"""The benchmark's workloads: inputs built from a seed, operations, and their checks.

Each workload is a list of operations run once per pass.  An operation
returns its raw result; its check runs after the timed region and returns a
failure message or None.  Checks compare values, not bytes, so a change that
legitimately moves a late digit is not counted as a failure.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from coded_aoi import MDS, MultiMDS, Repetition, SystemParams, Uncoded, age, cli, simulate

# |sim - analytic| / (ci95 / 1.96) must stay below this.  At these run
# lengths the statistic's tails are close to Student-t with about 20 degrees
# of freedom (full-stream runs: under 1% of 600 seeds beyond 3), so a correct
# simulator exceeds 7 with probability about 1e-6 per operation.
Z_BOUND = 7.0

# Each point runs as several shorter simulations with their own seeds, so
# the machine-speed calibration between operations (calibrate.py) stays
# close in time to the work it rescales.
SIM_CYCLES_PER_REP, SIM_SPLITS = 4096, 2
STREAM_CYCLES_PER_REP, STREAM_SPLITS = 8192, 4

# k values are today's age optima at lambda = c = mu = 1; fixed so the
# simulated work does not depend on the optimizer.
SIM_POINTS = [
    (Uncoded(), 100), (Repetition(50), 100), (MDS(69), 100), (MultiMDS(129, 2), 100),
    (MDS(682), 1000), (MultiMDS(1287, 2), 1000),
]
STREAM_POINTS = [(MDS(7), 1.0), (MDS(7), 20.0), (Uncoded(), 1.0), (Uncoded(), 20.0)]

AGE_MDS69 = 2.0317836502582427  # age_of(MDS(69)) at n=100, lambda=c=mu=1
UNIT = ["--lambda", "1", "--c", "1", "--mu", "1"]
PRESET_ROWS = {"fig4a": 200, "fig4b": 200, "fig5a": 10, "fig5b": 5}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    rows: int   # results the operation yields when it succeeds
    kind: str   # "sim" (returns a SimReport), "cli" (returns exit code, stdout) or "lib"


def _z_check(scheme, params: SystemParams, stream: bool, rep) -> Optional[str]:
    analytic = age.age_of(scheme, params).delta
    z = (rep.mean_age - analytic) / (rep.ci95_halfwidth / 1.96)
    if not abs(z) < Z_BOUND:
        return f"|z|={abs(z):.3g} >= {Z_BOUND} (sim {rep.mean_age!r}, analytic {analytic!r})"
    if stream and not (rep.dropped_fraction is not None and 0.0 < rep.dropped_fraction < 1.0):
        return f"dropped fraction {rep.dropped_fraction!r} outside (0, 1)"
    return None


def _sim_ops(points, seed: int, pass_index: int, reps: int, cycles: int, splits: int,
             mode: str) -> list[Op]:
    runs = [p for p in points for _ in range(splits)]
    seeds = np.random.SeedSequence([seed, pass_index]).generate_state(len(runs), np.uint64)
    ops = []
    for (scheme, params), s in zip(runs, seeds):
        label = f"{scheme} n={params.nworkers} lambda={params.arrival_rate:g}"
        ops.append(Op(label,
                      partial(_simulate, scheme, params, cycles, reps, int(s), mode=mode),
                      partial(_z_check, scheme, params, mode == "full_stream"),
                      rows=1, kind="sim"))
    return ops


# Library functions are looked up at call time, so the tracer's wrappers
# (installed after the inputs are built) see every call.
def _simulate(*args, **kwargs):
    return simulate.run_parallel(*args, **kwargs)


def _age_of(*args):
    return age.age_of(*args)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _check_sweep(path: str, rows: int, result) -> Optional[str]:
    rc, out = result
    if rc != 0:
        return f"exit {rc}"
    if f"({rows} rows)" not in out:
        return f"expected {rows} rows, stdout {out.strip()!r}"
    with open(path, newline="") as fh:
        data = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(data) != rows:
        return f"expected {rows} CSV rows, file has {len(data)}"
    bad = [r for r in data if not float(r["age_analytic"]) >= 2.0]
    if bad:
        return f"{len(bad)} rows with age below 2/lambda or not finite"
    return None


def _check_optimize(k_expected: Optional[int], k_max: int, result) -> Optional[str]:
    rc, out = result
    if rc != 0:
        return f"exit {rc}"
    m = re.search(r"k_star=(\d+)", out)
    if m is None:
        return f"no k_star in {out.strip()!r}"
    k = int(m.group(1))
    if k_expected is not None and k != k_expected:
        return f"k_star={k}, expected {k_expected}"
    if not 1 <= k <= k_max:
        return f"k_star={k} outside 1..{k_max}"
    return None


def _check_age_line(result) -> Optional[str]:
    rc, out = result
    if rc != 0:
        return f"exit {rc}"
    m = re.search(r"\bage=(\S+)", out)
    if m is None or not (math.isfinite(float(m.group(1))) and float(m.group(1)) >= 2.0):
        return f"age missing, not finite or below 2/lambda in {out.strip()!r}"
    return None


def _check_age_mds69(result) -> Optional[str]:
    err = abs(result.delta - AGE_MDS69) / AGE_MDS69
    return None if err <= 1e-12 else f"age {result.delta!r}, relative error {err:.3g}"


def _analytic_ops(seed: int, tmpdir: str) -> list[Op]:
    ops = []
    for preset, rows in PRESET_ROWS.items():
        path = os.path.join(tmpdir, f"{preset}.csv")
        argv = ["sweep", "--preset", preset, "--seed", str(seed), "--out", path]
        ops.append(Op(f"sweep {preset}", partial(_cli, argv),
                      partial(_check_sweep, path, rows), rows, "cli"))
    # Known optima at n=100: mds 69 and repetition 100 at mu=1.
    expected = {("rep", 100): 100, ("mds", 100): 69}
    for n in (100, 1000, 10_000):
        families = [("rep", 1), ("mds", 1)] + [("mm-mds", load) for load in range(2, 6)]
        for family, load in families:
            argv = ["optimize", "--family", family, "--n", str(n)] + UNIT
            if family == "mm-mds":
                argv += ["--l", str(load)]
            ops.append(Op(f"optimize {family} l={load} n={n}", partial(_cli, argv),
                          partial(_check_optimize, expected.get((family, n)), n * load), 1, "cli"))
    for family, k in (("mds", 58), ("rep", 50)):  # known optima at n=100, mu=0.5
        argv = ["optimize", "--family", family, "--n", "100",
                "--lambda", "1", "--c", "1", "--mu", "0.5"]
        ops.append(Op(f"optimize {family} n=100 mu=0.5", partial(_cli, argv),
                      partial(_check_optimize, k, 100), 1, "cli"))
    for scheme, extra in (("uncoded", []), ("mds", ["--k", "682000"])):
        argv = ["age", "--scheme", scheme, "--n", "1000000"] + extra + UNIT
        ops.append(Op(f"age {scheme} n=1e6", partial(_cli, argv), _check_age_line, 1, "cli"))
    ops.append(Op("age_of MDS(69) n=100",
                  partial(_age_of, MDS(69), SystemParams(1.0, 1.0, 1.0, 100)),
                  _check_age_mds69, 1, "lib"))
    return ops


def build(workload: str, seed: int, pass_index: int, nproc: int, tmpdir: str) -> list[Op]:
    """Operations of one pass; the same (seed, pass_index) gives the same inputs."""
    if workload == "sim-validate":
        points = [(s, SystemParams(1.0, 1.0, 1.0, n)) for s, n in SIM_POINTS]
        return _sim_ops(points, seed, pass_index, nproc, SIM_CYCLES_PER_REP, SIM_SPLITS,
                        "fast")
    if workload == "stream-drops":
        points = [(s, SystemParams(lam, 1.0, 1.0, 10)) for s, lam in STREAM_POINTS]
        return _sim_ops(points, seed, pass_index, nproc, STREAM_CYCLES_PER_REP,
                        STREAM_SPLITS, "full_stream")
    if workload == "analytic-sweep":
        return _analytic_ops(seed, tmpdir)
    raise KeyError(f"unknown workload {workload!r}")
