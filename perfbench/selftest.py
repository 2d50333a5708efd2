"""Self-test of the benchmark: run it and check what it reports about itself.

    python3 perfbench/selftest.py

Checks that every workload of BENCHMARK.json builds; that every traced
function records at least one span on the workload that should hit it and
is rebound under the aliases that ``from .x import y`` creates; that the
exact counts repeat across two runs with one seed; that the traced split has
the expected shape; that an untraced run prints every end-to-end metric with
its unit; and that the benchmark refuses to run without the library
sources.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Wrapped span -> the workload whose operations must call it.
EXPECTED_SPANS = {
    "order_stats.harmonic": "analytic-sweep",
    "order_stats.sample_batch": "sim-validate",
    "schemes.sample_service_batch": "sim-validate",
    "schemes.service_moments": "analytic-sweep",
    "levels.solve_levels": "analytic-sweep",
    "levels.chain_alphas": "analytic-sweep",
    "age.age_of": "analytic-sweep",
    "optimize.opt_repetition": "analytic-sweep",
    "optimize.opt_mds": "analytic-sweep",
    "optimize.opt_mm_mds": "analytic-sweep",
    "optimize.refine_discrete": "analytic-sweep",
    "simulate.run_parallel": "stream-drops",
    "simulate.batch_means_ci": "stream-drops",
    "cli.main": "analytic-sweep",
}

# Aliases created by ``from .x import y`` that must be rebound too.
REQUIRED_BINDINGS = {
    "schemes.sample_service_batch": "coded_aoi.simulate.sample_service_batch",
    "levels.chain_alphas": "coded_aoi.optimize.chain_alphas",
    "schemes.service_moments": "coded_aoi.age.service_moments",
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra],
                          capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_declarations() -> None:
    for name in WORKLOADS:
        check(len(workloads.build(name, SEED, 0, 2, str(run.SCRATCH))) > 0, f"{name} builds")
    check(set(EXPECTED_SPANS.values()) <= set(WORKLOADS), "expected spans name real workloads")


def check_traced() -> None:
    span_calls: dict[str, dict[str, int]] = {}
    spans_file = run.SCRATCH / "selftest-spans.jsonl"
    for workload in WORKLOADS:
        extra = ("--spans-out", str(spans_file)) if workload == "stream-drops" else ()
        detail, result = bench(workload, 1, *extra)
        again_detail, again = bench(workload, 1)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: no failed operation ({detail['failures'][:3]})")
        check(list(result["metrics"]) == PER_LAYER, f"{workload}: every per-layer metric")
        counts, counts_again = detail["trace"]["counts"], again_detail["trace"]["counts"]
        check(counts == counts_again, f"{workload}: exact counts repeat with seed {SEED}")
        for span, alias in REQUIRED_BINDINGS.items():
            check(alias in detail["trace"]["bindings"][span], f"{workload}: {alias} is wrapped")
        span_calls[workload] = detail["trace"]["span_calls"]

        m = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "sim-validate":
            check(m["simulate.service_s"] > 0.5 * m["trace.wall_s"],
                  "sim-validate: sampling is most of the traced wall time")
        if workload == "stream-drops":
            spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
            check(len(spans) == sum(detail["trace"]["span_calls"].values())
                  and all(s["parent"] < s["id"] and s["start"] <= s["end"] for s in spans),
                  "stream-drops: --spans-out writes every span of the first traced pass")
            spans_file.unlink()
            check(m["simulate.self_s"] > m["simulate.service_s"],
                  "stream-drops: the event loop outweighs sampling")
            check(0 < m["simulate.dropped"] < m["simulate.arrivals"],
                  "stream-drops: drop counts recovered")
        if workload == "analytic-sweep":
            check(span_calls[workload]["schemes.sample_service_batch"] == 0,
                  "analytic-sweep: no sampler span")
        check(abs(m["trace.unaccounted_s"]) < 0.05 * m["trace.wall_s"],
              f"{workload}: spans account for the traced wall time")

    for span, workload in EXPECTED_SPANS.items():
        check(span_calls[workload].get(span, 0) >= 1, f"{span} records a span on {workload}")


def check_untraced() -> None:
    detail, result = bench("sim-validate", 0)
    m = result["metrics"]
    check([(k, v["unit"]) for k, v in m.items()]
          == [(e["name"], e["unit"]) for e in SPEC["end_to_end"]]
          and all(v["value"] > 0 for v in m.values()),
          "untraced run prints every end-to-end metric, non-zero, with its unit")
    check(detail["fail_frac"] == 0 and "cycles_per_s" in detail["timings"],
          "detailed report carries fail_frac and cycles_per_s")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-validate",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and proc.stdout.strip() == "",
              "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    check_declarations()
    check_refuses_without_sources()
    check_untraced()
    check_traced()
    return 0


if __name__ == "__main__":
    sys.exit(main())
