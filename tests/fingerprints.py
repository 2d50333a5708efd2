"""Seeded fingerprints of the simulator and the service samplers.

A named table of seeded library calls.  Each entry's values, rounded to 12
significant digits as the goldens print them (so that libm differences do
not flip bits), hash to one ``name sha256`` line of
``tests/expected_output/fingerprints.txt``.  A refactor leaves that file as
it is; a change that moves values names the entries it moved, and says
why.  The entries are ``run_parallel`` over every scheme, both modes, both
policies and one and three replications, ``sample_service_batch`` of the
largest-of-n draws, uncoded and repetition where k does not divide n, and
``sample_service_batch`` at the golden, benchmark and CI mm-mds points, each
call but one reaching one row past a widening block of the window sampler.
Regenerate with

    PYTHONPATH=src python tests/fingerprints.py
"""
import hashlib
import itertools
import math
import os

import numpy as np

from coded_aoi import (MDS, MultiMDS, Repetition, SystemParams, Uncoded, run_parallel,
                       sample_service_batch)

FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_output",
                    "fingerprints.txt")

# n = 20: Repetition at k | n and at k not dividing n, MultiMDS at load 1 and 2
RUN_SCHEMES = [Uncoded(), Repetition(5), Repetition(6), MDS(14), MultiMDS(14, 1),
               MultiMDS(30, 2)]
# the largest of n at n = 20, whose draws take one uniform each: uncoded, and
# repetition with two group sizes, 2 groups of 4 replicas and 4 of 3
LARGEST_SCHEMES = [Uncoded(), Repetition(6)]
# (n, k, load, mu, size) at the mm-mds golden, benchmark and CI points: one
# row more than a widening block, WIDEN_DOUBLES // (window ranks) rows,
# except at load 2000, whose rows take about 0.5 ms each, so that its block
# of 12483 rows would take 6 s; its 201 rows stay in one block
SAMPLE_POINTS = [
    (20, 30, 2, 1.0, 87382), (100, 129, 2, 1.0, 43691), (1000, 1287, 2, 1.0, 17477),
    (10**6, 1287000, 2, 1.0, 642), (10**6, 3999999, 4, 2.0, 262145),
    (10**6, 2999990, 3, 1.0, 131073), (10**8, 128700000, 2, 1.0, 65),
    (100, 399, 4, 2.0, 262145), (100, 100000, 2000, 0.01, 201),
]


def _digest(values) -> str:
    text = "\n".join(f"{float(v):.12g}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _entries():
    """(name, values) of each entry, in table order."""
    # lambda = 5 makes the full-stream pool drop arrivals
    p = SystemParams(5.0, 1.0, 1.0, 20)
    for scheme, mode, policy, reps in itertools.product(
            RUN_SCHEMES, ("fast", "full_stream"), ("zero-wait", "return-triggered"), (1, 3)):
        r = run_parallel(scheme, p, 300, reps, 1, mode=mode, policy=policy)
        name = f"run_parallel/{repr(scheme).replace(' ', '')}/{mode}/{policy}/reps={reps}"
        yield name, (r.mean_age, r.ci95_halfwidth, r.cycles, r.empirical_es, r.empirical_es2,
                     r.empirical_ed, r.empirical_ez,
                     math.nan if r.dropped_fraction is None else r.dropped_fraction)
    for scheme in LARGEST_SCHEMES:
        x = sample_service_batch(scheme, SystemParams(1.0, 1.0, 1.0, 20),
                                 np.random.default_rng(1), 4097)
        yield f"sample_service_batch/{repr(scheme).replace(' ', '')}/n=20/size=4097", x
    for n, k, load, mu, size in SAMPLE_POINTS:
        x = sample_service_batch(MultiMDS(k, load), SystemParams(1.0, 1.0, mu, n),
                                 np.random.default_rng(1), size)
        yield f"sample_service_batch/n={n}/k={k}/load={load}/mu={mu:g}/size={size}", x


def fingerprints() -> list[str]:
    """One ``name sha256`` line per entry of the table, in table order."""
    return [f"{name} {_digest(values)}" for name, values in _entries()]


if __name__ == "__main__":
    with open(FILE, "w") as f:
        f.write("\n".join(fingerprints()) + "\n")
