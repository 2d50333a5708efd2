"""Command-line front end: point evaluations, optimization, simulation, sweeps.

Exit codes: 0 success, 2 usage error (a named invariant is violated),
3 numerical failure from the solvers, a result that overflows a double, or
a simulation whose arrays do not fit in memory.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields
from typing import Optional, get_args

import numpy as np

from . import __version__
from .age import age_of
from .levels import Infeasible, NoConvergence
from .optimize import opt_mds, opt_mm_mds, opt_repetition
from .schemes import (
    MDS,
    MultiMDS,
    Repetition,
    Scheme,
    SystemParams,
    Uncoded,
)
from .simulate import _root_seq, run_parallel

_SCHEMES = {cls.label: cls for cls in get_args(Scheme)}

CSV_COLUMNS = ["scheme", "n", "k", "l", "lambda", "c", "mu", "es", "es2",
               "age_analytic", "age_sim_mean", "age_sim_ci95", "k1"]

PRESETS = {
    "fig4a": {"kind": "k", "n": 100, "lambda": 1.0, "c": 1.0, "mu": 1.0},
    "fig4b": {"kind": "k", "n": 100, "lambda": 1.0, "c": 1.0, "mu": 0.5},
    "fig5a": {"kind": "n", "l": 2, "lambda": 1.0, "c": 1.0, "mu": 1.0,
              "n_values": list(range(100, 1001, 100))},
    "fig5b": {"kind": "l", "n": 100, "lambda": 1.0, "c": 1.0, "mu": 0.01,
              "l_values": [1, 2, 3, 4, 5]},
}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# Built on first use and kept: parsing never mutates a parser, and nothing
# adds to one after it is built, so every call in the process shares it.
@functools.cache
def _build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coded-aoi", exit_on_error=exit_on_error)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--lambda", dest="lambd", type=float, help="update transmission rate")
        p.add_argument("--c", type=float, help="whole-task runtime shift")
        p.add_argument("--mu", type=float, help="whole-task straggling rate")
        p.add_argument("--n", type=int, help="number of workers")
        p.add_argument("--config", help="JSON file with defaults for any flag")

    def add_scheme(p):
        p.add_argument("--scheme", choices=list(_SCHEMES))
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int, dest="load", help="subtasks per worker (mm-mds)")

    p_age = sub.add_parser("age", help="analytic age of one scheme",
                           exit_on_error=exit_on_error)
    add_params(p_age)
    add_scheme(p_age)

    p_opt = sub.add_parser("optimize", help="age-optimal code parameter",
                           exit_on_error=exit_on_error)
    add_params(p_opt)
    p_opt.add_argument("--family", choices=list(_OPTIMIZERS))
    p_opt.add_argument("--l", type=int, dest="load")
    p_opt.add_argument("--objective", choices=["age", "service"])

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of the age",
                           exit_on_error=exit_on_error)
    add_params(p_sim)
    add_scheme(p_sim)
    p_sim.add_argument("--cycles", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--reps", type=_positive_int)
    p_sim.add_argument("--mode", choices=["fast", "full-stream"])
    p_sim.add_argument("--policy", choices=["zero-wait", "return-triggered"])

    p_sw = sub.add_parser("sweep", help="parameter sweep written as CSV",
                          exit_on_error=exit_on_error)
    add_params(p_sw)
    p_sw.add_argument("--preset", choices=sorted(PRESETS))
    add_scheme(p_sw)
    p_sw.add_argument("--k-range", dest="k_range", help="A:B[:STEP], inclusive")
    p_sw.add_argument("--n-range", dest="n_range", help="A:B[:STEP], inclusive")
    p_sw.add_argument("--l-range", dest="l_range", help="A:B[:STEP], inclusive")
    p_sw.add_argument("--out", help="output CSV path")
    p_sw.add_argument("--seed", type=int)
    p_sw.add_argument("--cycles", type=int, help="add a simulation overlay")
    p_sw.add_argument("--reps", type=_positive_int)
    return top


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if one was given.

    Each value is parsed as ``--flag=value`` by the command's own parser, so
    it gets the same type conversion and choices check as on the command line.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    aliases = {"lambda": "lambd", "l": "load", "k-range": "k_range",
               "n-range": "n_range", "l-range": "l_range"}
    flags = {dest: key for key, dest in aliases.items()}
    dests, argv = [], [args.command]
    for key, value in cfg.items():
        dest = aliases.get(key, key.replace("-", "_"))
        if not hasattr(args, dest):
            raise UsageError(f"config key {key!r} is not a flag of this command")
        if getattr(args, dest) is None:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise UsageError(f"config key {key!r} must be a string or a number, "
                                 f"got {value!r}")
            dests.append(dest)
            argv.append(f"--{flags.get(dest, dest)}={value}")
    try:
        typed = _build_parser(exit_on_error=False).parse_args(argv)
    except argparse.ArgumentError as e:
        raise UsageError(f"config {path}: {e}")
    for dest in dests:
        setattr(args, dest, getattr(typed, dest))
    return args


def _need(args, name: str, flag: Optional[str] = None):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"missing required flag --{flag or name}")
    return value


def _params(args) -> SystemParams:
    return SystemParams(
        arrival_rate=_need(args, "lambd", "lambda"),
        shift=_need(args, "c"),
        straggling=_need(args, "mu"),
        nworkers=_need(args, "n"),
    )


def _build_scheme(args, **given) -> Scheme:
    """The --scheme class, each field taken from ``given`` or else from its flag."""
    cls = _SCHEMES[_need(args, "scheme")]
    return cls(**{f.name: given[f.name] if f.name in given
                  else _need(args, f.name, "l" if f.name == "load" else None)
                  for f in fields(cls)})


def cmd_age(args) -> int:
    params = _params(args)
    scheme = _build_scheme(args)
    res = age_of(scheme, params)
    print(f"scheme={scheme.label} n={params.nworkers} "
          f"lambda={_fmt(params.arrival_rate)} c={_fmt(params.shift)} mu={_fmt(params.straggling)}")
    print(f"age={_fmt(res.delta)} es={_fmt(res.es)} es2={_fmt(res.es2)}")
    return 0


# --family -> optimizer; the optimizers are looked up at call time, so a
# patched module attribute is seen
_OPTIMIZERS = {
    "rep": lambda params, args, objective: opt_repetition(params, objective),
    "mds": lambda params, args, objective: opt_mds(params, objective),
    "mm-mds": lambda params, args, objective: opt_mm_mds(
        params, _need(args, "load", "l"), objective),
}


def cmd_optimize(args) -> int:
    params = _params(args)
    family = _need(args, "family")
    res = _OPTIMIZERS[family](params, args, args.objective or "age")
    line = (f"family={family} k_star={res.k_star} alpha_star={_fmt(res.alpha_star)} "
            f"delta_star={_fmt(res.delta_star)} es_continuous={_fmt(res.continuous_objective)}")
    if res.levels is not None:
        line += " levels=" + ",".join(str(c) for c in res.levels)
    print(line)
    return 0


def cmd_simulate(args) -> int:
    params = _params(args)
    scheme = _build_scheme(args)
    cycles = _need(args, "cycles")
    seed = _need(args, "seed")
    reps = 1 if args.reps is None else args.reps
    mode = (args.mode or "fast").replace("-", "_")
    policy = args.policy or "zero-wait"
    rep = run_parallel(scheme, params, cycles, reps, seed, mode=mode, policy=policy)
    print(f"scheme={scheme.label} mode={mode} policy={policy} "
          f"cycles={rep.cycles} reps={reps} seed={rep.seed}")
    parts = [f"mean_age={_fmt(rep.mean_age)}", f"ci95={_fmt(rep.ci95_halfwidth)}",
             f"es={_fmt(rep.empirical_es)}", f"es2={_fmt(rep.empirical_es2)}",
             f"ed={_fmt(rep.empirical_ed)}", f"ez={_fmt(rep.empirical_ez)}"]
    if rep.dropped_fraction is not None:
        parts.append(f"dropped={_fmt(rep.dropped_fraction)}")
    print(" ".join(parts))
    return 0


def _parse_range(text: str, flag: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--{flag} must look like A:B or A:B:STEP, got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--{flag} must hold integers, got {text!r}")
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or nums[1] < nums[0]:
        raise UsageError(f"--{flag} must be a nonempty forward range, got {text!r}")
    return list(range(nums[0], nums[1] + 1, step))


def _row(scheme: Scheme, params: SystemParams) -> list:
    """One CSV row in CSV_COLUMNS order, with the simulation columns empty."""
    res = age_of(scheme, params)
    load, k1 = "", ""
    if isinstance(scheme, MultiMDS):
        load, k1 = scheme.load, scheme.order_stat(params)[2]
    return [scheme.label, params.nworkers, getattr(scheme, "k", ""), load,
            _fmt(params.arrival_rate), _fmt(params.shift), _fmt(params.straggling),
            _fmt(res.es), _fmt(res.es2), _fmt(res.delta), "", "", k1]


def _sweep_rows(args) -> tuple[list[tuple[Scheme, SystemParams]], dict]:
    """Expand a preset or a custom range into (scheme, params) grid points."""
    if args.preset:
        preset = PRESETS[args.preset]
        meta = {"preset": args.preset}
        rows = []
        if preset["kind"] == "k":
            p = SystemParams(preset["lambda"], preset["c"], preset["mu"], preset["n"])
            rows.append((Uncoded(), p))
            rows.extend((Repetition(k), p) for k in range(1, p.nworkers + 1))
            rows.extend((MDS(k), p) for k in range(1, p.nworkers))
        elif preset["kind"] == "n":
            for n in preset["n_values"]:
                p = SystemParams(preset["lambda"], preset["c"], preset["mu"], n)
                res = opt_mm_mds(p, preset["l"])
                rows.append((MultiMDS(res.k_star, preset["l"]), p))
        else:
            p = SystemParams(preset["lambda"], preset["c"], preset["mu"], preset["n"])
            for load in preset["l_values"]:
                res = opt_mm_mds(p, load)
                rows.append((MultiMDS(res.k_star, load), p))
        return rows, meta

    ranges = [r for r in (args.k_range, args.n_range, args.l_range) if r]
    if len(ranges) != 1:
        raise UsageError("custom sweep needs exactly one of --k-range/--n-range/--l-range "
                         "(or use --preset)")
    scheme_name = _need(args, "scheme")
    meta = {"scheme": scheme_name}
    rows = []
    if args.k_range:
        p = _params(args)
        for k in _parse_range(args.k_range, "k-range"):
            rows.append((_build_scheme(args, k=k), p))
    elif args.n_range:
        for n in _parse_range(args.n_range, "n-range"):
            p = SystemParams(_need(args, "lambd", "lambda"), _need(args, "c"),
                             _need(args, "mu"), n)
            rows.append((_build_scheme(args), p))
    else:
        if "load" not in {f.name for f in fields(_SCHEMES[scheme_name])}:
            raise UsageError(f"--l-range only applies to --scheme {MultiMDS.label}")
        p = _params(args)
        for load in _parse_range(args.l_range, "l-range"):
            rows.append((_build_scheme(args, load=load), p))
    return rows, meta


def cmd_sweep(args) -> int:
    seed = _need(args, "seed")
    root = _root_seq(seed)  # the seed rule of simulate, checked before any row
    points, meta = _sweep_rows(args)
    # every row is computed before the file is opened, so a failed sweep
    # leaves an existing --out file as it was
    rows = [_row(scheme, params) for scheme, params in points]

    out = args.out or (f"{args.preset}.csv" if args.preset else "sweep.csv")
    reps = 1 if args.reps is None else args.reps
    if args.cycles is not None:
        sim = CSV_COLUMNS.index("age_sim_mean")
        row_seeds = root.generate_state(len(points), np.uint64)
        for (scheme, params), row, row_seed in zip(points, rows, row_seeds):
            rep = run_parallel(scheme, params, args.cycles, reps, int(row_seed))
            row[sim:sim + 2] = _fmt(rep.mean_age), _fmt(rep.ci95_halfwidth)

    lines = [f"# coded-aoi sweep v{__version__}"]
    meta_str = " ".join(f"{k}={v}" for k, v in meta.items())
    lines.append(f"# {meta_str} seed={seed} cycles={args.cycles or '-'} reps={reps}")
    try:
        fh = open(out, "w", newline="")
    except OSError as e:
        print(f"error: cannot write {out}: {e}", file=sys.stderr)
        return 2
    with fh:
        for line in lines:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"age": cmd_age, "optimize": cmd_optimize,
               "simulate": cmd_simulate, "sweep": cmd_sweep}[args.command]
    try:
        return handler(_apply_config(args))
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (Infeasible, NoConvergence, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
