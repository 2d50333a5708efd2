"""Command-line front end: point evaluations, optimization, simulation, sweeps.

Each flag is its own dest, with "-" read as "_", and a ``--config`` key is a
flag name.  A sweep preset builds its own (scheme, params) rows and refuses
every custom-sweep flag; a custom sweep ranges over one axis, ``n`` or a
field of the chosen scheme.

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

from . import __version__
from .age import age_of
from .levels import Infeasible, NoConvergence
from .optimize import opt_mds, opt_mm_mds, opt_repetition
from .schemes import MDS, MultiMDS, Repetition, Scheme, SystemParams, Uncoded
from .simulate import _root_seq, run_parallel

_SCHEMES = {cls.label: cls for cls in get_args(Scheme)}

CSV_COLUMNS = ["scheme", "n", "k", "l", "lambda", "c", "mu", "es", "es2",
               "age_analytic", "age_sim_mean", "age_sim_ci95", "k1"]

# a custom sweep's range flag -> the SystemParams or scheme field it sets
_AXES = {"k-range": "k", "n-range": "nworkers", "l-range": "load"}


def _fig4(mu: float) -> list[tuple[Scheme, SystemParams]]:
    """Age against k at n = 100: uncoded, repetition at each k, MDS at each k < n."""
    p = SystemParams(1.0, 1.0, mu, 100)
    return [(Uncoded(), p), *((Repetition(k), p) for k in range(1, p.nworkers + 1)),
            *((MDS(k), p) for k in range(1, p.nworkers))]


def _fig5(points: list[tuple[SystemParams, int]]) -> list[tuple[Scheme, SystemParams]]:
    """The age-optimal multi-message code at each (params, load) point; opt_mm_mds
    is looked up at call time, so a patched module attribute is seen."""
    return [(MultiMDS(opt_mm_mds(p, load).k_star, load), p) for p, load in points]


PRESETS = {
    "fig4a": functools.partial(_fig4, 1.0),
    "fig4b": functools.partial(_fig4, 0.5),
    "fig5a": functools.partial(_fig5, [(SystemParams(1.0, 1.0, 1.0, n), 2)
                                       for n in range(100, 1001, 100)]),
    "fig5b": functools.partial(_fig5, [(SystemParams(1.0, 1.0, 0.01, 100), load)
                                       for load in range(1, 6)]),
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

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, exit_on_error=exit_on_error)
        p.add_argument("--lambda", type=float, help="update transmission rate")
        p.add_argument("--c", type=float, help="whole-task runtime shift")
        p.add_argument("--mu", type=float, help="whole-task straggling rate")
        p.add_argument("--n", type=int, help="number of workers")
        p.add_argument("--l", type=int, help="subtasks per worker (mm-mds)")
        p.add_argument("--config", help="JSON file with defaults for any flag")
        return p

    def add_scheme(p):
        p.add_argument("--scheme", choices=list(_SCHEMES))
        p.add_argument("--k", type=int)

    def add_runs(p):
        p.add_argument("--cycles", type=int, help="cycles per replication; a sweep "
                       "simulates every row")
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=_positive_int, help="replications, default 1")

    add_scheme(command("age", "analytic age of one scheme"))

    p_opt = command("optimize", "age-optimal code parameter")
    p_opt.add_argument("--family", choices=list(_OPTIMIZERS))
    p_opt.add_argument("--objective", choices=["age", "service"])

    p_sim = command("simulate", "Monte Carlo estimate of the age")
    add_scheme(p_sim)
    add_runs(p_sim)
    p_sim.add_argument("--mode", choices=["fast", "full-stream"])
    p_sim.add_argument("--policy", choices=["zero-wait", "return-triggered"])

    p_sw = command("sweep", "parameter sweep written as CSV")
    p_sw.add_argument("--preset", choices=sorted(PRESETS))
    add_scheme(p_sw)
    for flag in _AXES:
        p_sw.add_argument(f"--{flag}", help="A:B[:STEP], inclusive")
    p_sw.add_argument("--out", help="output CSV path")
    add_runs(p_sw)
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
    # the command's own flags, but not --config: the namespace also holds
    # the subcommand's name
    flags = vars(args).keys() - {"command", "config"}
    dests, argv = [], [args.command]
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise UsageError(f"config key {key!r} is not a flag of this command")
        if getattr(args, dest) is None:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise UsageError(f"config key {key!r} must be a string or a number, "
                                 f"got {value!r}")
            dests.append(dest)
            argv.append(f"--{dest.replace('_', '-')}={value}")
    try:
        typed = _build_parser(exit_on_error=False).parse_args(argv)
    except argparse.ArgumentError as e:
        raise UsageError(f"config {path}: {e}")
    for dest in dests:
        setattr(args, dest, getattr(typed, dest))
    return args


def _need(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"missing required flag --{name.replace('_', '-')}")
    return value


def _params(args, **given) -> SystemParams:
    """SystemParams from the flags, with ``nworkers`` from ``given`` if it is there."""
    return SystemParams(
        arrival_rate=_need(args, "lambda"),
        shift=_need(args, "c"),
        straggling=_need(args, "mu"),
        nworkers=given["nworkers"] if "nworkers" in given else _need(args, "n"),
    )


def _build_scheme(args, **given) -> Scheme:
    """The --scheme class, each field taken from ``given`` or else from its flag."""
    cls = _SCHEMES[_need(args, "scheme")]
    return cls(**{f.name: given[f.name] if f.name in given
                  else _need(args, "l" if f.name == "load" else f.name)
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
    "mm-mds": lambda params, args, objective: opt_mm_mds(params, _need(args, "l"), objective),
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
    values = vars(scheme)  # its fields, so not the class constant load = 1
    k1 = scheme.order_stat(params)[2] if "load" in values else ""
    return [scheme.label, params.nworkers, values.get("k", ""), values.get("load", ""),
            _fmt(params.arrival_rate), _fmt(params.shift), _fmt(params.straggling),
            _fmt(res.es), _fmt(res.es2), _fmt(res.delta), "", "", k1]


def _sweep_rows(args) -> tuple[list[tuple[Scheme, SystemParams]], dict]:
    """A preset's (scheme, params) rows, or those of the one custom range."""
    if args.preset:
        # a preset builds every row itself, so a custom-sweep flag would be dropped
        given = [f"--{flag}" for flag in ("scheme", "k", "l", *_AXES, "lambda", "c", "mu", "n")
                 if getattr(args, flag.replace("-", "_")) is not None]
        if given:
            raise UsageError(f"--preset builds its own rows and takes no {', '.join(given)}")
        return PRESETS[args.preset](), {"preset": args.preset}
    axes = [(flag, field, text) for flag, field in _AXES.items()
            if (text := getattr(args, flag.replace("-", "_")))]
    if len(axes) != 1:
        raise UsageError(f"custom sweep needs exactly one of "
                         f"{'/'.join('--' + flag for flag in _AXES)} (or use --preset)")
    (flag, field, text), = axes
    name = _need(args, "scheme")
    takers = [label for label, cls in _SCHEMES.items()
              if field in {f.name for f in fields(SystemParams) + fields(cls)}]
    if name not in takers:
        raise UsageError(f"--{flag} only applies to --scheme {'/'.join(takers)}")
    rows = []
    for value in _parse_range(text, flag):
        params = _params(args, **{field: value})
        rows.append((_build_scheme(args, **{field: value}), params))
    return rows, {"scheme": name}


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
        row_seeds = root.generate_state(len(points), "uint64")
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
