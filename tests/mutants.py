"""Planted bugs that the tests must catch.

Each entry of MUTANTS names a file, an exact snippet of it, the snippet's
replacement and the tests that must fail once it is made.  For each entry
the script copies ``src/`` and ``tests/`` to a temporary directory, makes
the replacement there and runs the named tests with ``pytest -x -q``: the
entry is killed if they fail and survives if they pass.  A snippet that
does not occur exactly once in its file is refused before anything runs, so
an entry cannot go stale without notice.  The named tests of every entry
first run on an unmutated copy, where they must pass.  Run from anywhere:

    python tests/mutants.py           # exit 0 when every entry is killed
    python tests/mutants.py --list    # the entries, without running them

It exits 1 if an entry survives or the unmutated copy fails its tests, and
2 if a snippet does not match.  Standard library only; the tests need what
the tier-1 suite needs.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMES = "src/coded_aoi/schemes.py"
ORDER_STATS = "src/coded_aoi/order_stats.py"
LEVELS = "src/coded_aoi/levels.py"
SIMULATE = "src/coded_aoi/simulate.py"
SELECTION = "tests/test_schemes.py::test_window_selection_equals_a_pooled_sort_bit_for_bit"
TOP_RANKS = "tests/test_schemes.py::test_top_rank_sampler_matches_the_worker_mechanism"
SCRATCH_BOUND = "tests/test_schemes.py::test_multiset_sampler_scratch_is_bounded"
PAST_INT64 = "tests/test_schemes.py::test_law_sampler_runs_past_int64_workers"
POWER_SUMS = "tests/test_order_stats.py::test_power_sums_equal_the_direct_fsum_bit_for_bit"
LEVEL_ROOTS = "tests/test_levels.py::test_level_roots_equal_the_reference_residual_bit_for_bit"
ROUND_WALK = "tests/test_properties.py::test_stream_cycles_equal_the_round_walk"
WALK_SCRATCH = "tests/test_simulate.py::test_stream_cycles_scratch_is_bounded"
REQUIRE_INT = "tests/test_levels.py::test_require_int_returns_a_python_int_at_least_its_bound"
PYTHON_PARAMS = "tests/test_schemes.py::test_system_params_store_python_numbers"
WIDEN_LAW = "tests/test_schemes.py::test_widening_fills_each_gap_with_its_order_statistics"
# a memo of _checked_sum keyed on (n, m) alone, which hands one order's sum to the other
ORDERLESS_MEMO = """def _orderless(fn):
    memo = {}

    def cached(order, n, m):
        if (n, m) not in memo:
            memo[n, m] = fn(order, n, m)
        return memo[n, m]
    return cached


@_orderless
def _checked_sum("""


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("window selection: the max of each pair taken as its min", SCHEMES,
           "np.maximum(pairs, ai, out=pairs)", "np.minimum(pairs, ai, out=pairs)", (SELECTION,)),
    Mutant("window selection: the min over the pairs taken as their max", SCHEMES,
           "v = terms.min(axis=axis)", "v = terms.max(axis=axis)", (SELECTION,)),
    Mutant("window selection: K one above the k-th's position", SCHEMES,
           "plan.rest.size, plan.col + 1", "plan.rest.size, plan.col + 2", (SELECTION,)),
    Mutant("window selection: K one below the k-th's position", SCHEMES,
           "plan.rest.size, plan.col + 1", "plan.rest.size, plan.col", (SELECTION,)),
    Mutant("window selection: the other windows left unsorted at load >= 3", SCHEMES,
           "        b.sort(axis=1)\n", "", (SELECTION,)),
    Mutant("top ranks: each uniform's divisor n - i + 1, not n - i", SCHEMES,
           "v /= float(n - i)", "v /= float(n - i + 1)", (TOP_RANKS,)),
    Mutant("window selection: np.take's row-major copy of the chunk left out of its count",
           SCHEMES, "rest += ranks", "rest += 0", (SCRATCH_BOUND,)),
    Mutant("repetition: every group taken as one of floor(n/k) replicas", SCHEMES,
           "k - r, k - r, rng, size)", "k, k, rng, size)", (f"{PAST_INT64}[scheme2]",)),
    Mutant("harmonic sums: the direct part's remainder lo dropped", ORDER_STATS,
           "math.fsum((hi, lo, _tail(", "math.fsum((hi, _tail(", (POWER_SUMS,)),
    Mutant("harmonic sums: the memo keyed without the order", ORDER_STATS,
           "@functools.lru_cache(maxsize=1024)\ndef _checked_sum(", ORDERLESS_MEMO,
           (POWER_SUMS,)),
    Mutant("level residual: each slope term's divisor m + 1, not m", LEVELS,
           "slopes.append((1.0 - x) / m)", "slopes.append((1.0 - x) / (m + 1))", (LEVEL_ROOTS,)),
    Mutant("full-stream walk: a round's rows left uncapped by WAIT_SLICE", SIMULATE,
           "return min(w, max(1, WAIT_SLICE // m))", "return w", (WALK_SCRATCH,)),
    Mutant("full-stream walk: a round's gaps kept alive while the next round draws", SIMULATE,
           "        del t  # freed before the next round draws\n", "", (WALK_SCRATCH,)),
    Mutant("full-stream walk: a waiting cycle's sum carried from its row's second-last gap",
           SIMULATE, "t[-1].take(wait)", "t[-2].take(wait)", (ROUND_WALK,)),
    Mutant("require_int: a numpy integer returned unconverted", LEVELS,
           "        value = int(value)\n", "", (REQUIRE_INT,)),
    Mutant("require_int: the lower bound itself refused", LEVELS,
           "if low is not None and value < low:", "if low is not None and value <= low:",
           (REQUIRE_INT,)),
    Mutant("SystemParams: nworkers checked but not stored", SCHEMES,
           'object.__setattr__(self, "nworkers", require_int("nworkers", self.nworkers, 1))',
           'require_int("nworkers", self.nworkers, 1)', (PYTHON_PARAMS,)),
    Mutant("widening: a top run's scale 1/(m - q), not 1/(m - s1 - q)", SCHEMES,
           "tops.append(1.0 / (m - s1 - np.arange(s2, dtype=float)))",
           "tops.append(1.0 / (m - np.arange(s2, dtype=float)))", (WIDEN_LAW,)),
    Mutant("widening: a bottom run's scale 1/(m + 1 - t), not 1/(m - t)", SCHEMES,
           "bottoms.append(1.0 / (m - np.arange(s1, dtype=float)))",
           "bottoms.append(1.0 / (m + 1 - np.arange(s1, dtype=float)))", (WIDEN_LAW,)),
    Mutant("widening: the top run's (1 - u0) factor dropped", SCHEMES,
           "w *= p * y[-1] if s1 else p", "w *= p", (WIDEN_LAW,)),
]


def check(mutants: list[Mutant]) -> list[str]:
    """The entries whose snippet does not occur exactly once in their file."""
    stale = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.snippet)
        if count != 1:
            stale.append(f"{m.name}: the snippet occurs {count} times in {m.file}")
    return stale


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[bool, float]:
    """Whether the tests pass on a copy of src/ and tests/ with the mutant
    made, and the seconds they took."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp) / tree, ignore=ignore)
        if mutant is not None:
            path = Path(tmp) / mutant.file
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        # an installed coded_aoi must not shadow the copy
        where = subprocess.run(
            [sys.executable, "-c", "import coded_aoi; print(coded_aoi.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).resolve().is_relative_to(Path(tmp).resolve()):
            raise RuntimeError(f"coded_aoi imports from {where.stdout.strip()}, not the copy")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=tmp, env=env, capture_output=True, text=True)
        return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the entries and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}\n    {m.file}: {m.snippet.strip()!r} -> {m.replacement.strip()!r}"
                  f"\n    {' '.join(m.tests)}")
        return 0
    if stale := check(MUTANTS):
        print("\n".join(stale), file=sys.stderr)
        return 2
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    clean, seconds = run(tests)
    print(f"{'ok' if clean else 'FAILED'}  unmutated copy ({seconds:.1f} s)", flush=True)
    survivors = 0
    for m in MUTANTS:
        passed, seconds = run(m.tests, m)
        survivors += passed
        print(f"{'SURVIVED' if passed else 'killed'}  {m.name} ({seconds:.1f} s)", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {total:.0f} s")
    return 1 if survivors or not clean else 0


if __name__ == "__main__":
    sys.exit(main())
