"""coded-aoi benchmark: one workload, measured for a fixed time, one JSON result.

    python3 perfbench/run.py --workload sim-validate --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is loaded from ``src/`` next to this
directory.  The run repeats passes of the workload until ``--seconds`` have
elapsed.  Each pass is a fresh interpreter (passrun.py), started one at a
time, so per-process costs such as the scipy import and the harmonic tables
are paid once per pass, as a command-line user pays them.

The last line of standard output is the result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it is
a detailed report with the machine, the run, per-timing medians, high
percentiles and sample counts, exact counts and every failure.  See
README.md in this directory for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

MIN_PASSES = 3            # untraced runs; traced runs need two of each kind
IMPORTTIME_PROBES = 3
DEADLINE_S = 165.0        # the whole run, set-up included, ends well within 180 s


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles; with ten samples or fewer no such percentile
    exists and ``p`` is None.
    """
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None, "p": None, "p_value": None}
    if n > 10:
        q = math.floor(100 * (n - 10) / n)
        out["p"] = q
        out["p_value"] = xs[max(math.ceil(q * n / 100) - 1, 0)]
    return out


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "python": platform.python_version(),
            "commit": commit, "seed": seed}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_times(env: dict, timeout: float) -> dict:
    """Cumulative import seconds of coded_aoi and of scipy, from -X importtime.

    scipy is counted as the sum of every scipy module whose importer is not
    itself a scipy module, so what scipy pulls in is charged to scipy.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coded_aoi"],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"import coded_aoi failed: {proc.stderr[-2000:]}")
    # Children are printed before their parent, one indent level deeper.
    stack: list[tuple[int, str, int, list]] = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if m is None:
            continue
        level = len(m.group(3)) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop())
        stack.append((level, m.group(4), int(m.group(2)), children))

    def scipy_us(node, inside: bool) -> int:
        _, name, cum, children = node
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            return cum
        return sum(scipy_us(c, inside or is_scipy) for c in children)

    coded = sum(cum for _, name, cum, _ in stack if name == "coded_aoi")
    return {"import.coded_aoi_s": coded / 1e6,
            "import.scipy_s": sum(scipy_us(node, False) for node in stack) / 1e6}


def run_pass(args, index: int, traced: bool, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(index), "--trace", str(int(traced))]
    if traced and index == 0 and args.spans_out:
        cmd += ["--spans-out", args.spans_out]
    t_start = time.monotonic()
    try:
        setup_factor = calibrate.startup_factor(env, timeout)
        proc = subprocess.run(cmd + ["--started", repr(time.monotonic())], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"error": f"pass {index} timed out after {timeout:.0f} s",
                "stderr": "", "elapsed": time.monotonic() - t_start}
    except subprocess.CalledProcessError as e:
        return {"error": f"pass {index}: start-up probe exited {e.returncode}",
                "stderr": "", "elapsed": time.monotonic() - t_start}
    if proc.returncode != 0:
        return {"error": f"pass {index} exited {proc.returncode}",
                "stderr": proc.stderr[-4000:], "elapsed": time.monotonic() - t_start}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report["setup_s"]
    report["setup_s"] *= setup_factor
    report["stderr"] = proc.stderr[-4000:]
    report["elapsed"] = time.monotonic() - t_start
    report["traced"] = traced
    return report


def run_passes(args, env: dict, t_begin: float) -> list[dict]:
    """Passes until --seconds have elapsed; traced runs alternate traced/untraced."""
    passes: list[dict] = []
    min_passes = 4 if args.trace else MIN_PASSES
    longest = 0.0
    while True:
        now = time.monotonic()
        remaining = t_begin + DEADLINE_S - now
        if passes and (remaining < longest * 1.5 or
                       (len(passes) >= min_passes and now - t_begin >= args.seconds)):
            break
        index = len(passes)
        p = run_pass(args, index, bool(args.trace) and index % 2 == 0, env, max(remaining, 1.0))
        passes.append(p)
        longest = max(longest, p["elapsed"])
        if "error" in p:
            break
    return passes


def end_to_end(ok: list[dict]) -> dict:
    rows_per_s = [sum(r["rows"] for r in p["ops"]) / p["wall_s"] for p in ok]
    out = {
        "setup_s": summarize([p["setup_s"] for p in ok]),
        "wall_s": summarize([p["wall_s"] for p in ok]),
        "rows_per_s": summarize(rows_per_s),
        "peak_rss_mb": summarize([p["peak_rss_mb"] for p in ok]),
    }
    sim_s = [p["sim_s"] for p in ok if p["sim_s"] > 0]
    if sim_s:
        cycles = [sum(r["cycles"] for r in p["ops"]) / p["sim_s"] for p in ok if p["sim_s"] > 0]
        out["cycles_per_s"] = summarize(cycles)
    return out


def per_layer(traced: list[dict], untraced: list[dict], imports: dict) -> dict:
    first = traced[0]["trace"]
    values = dict(imports)
    values.update(first["counts"])  # exact: taken from the first traced pass
    for name in first["timings"]:
        values[name] = statistics.median(p["trace"]["timings"][name] for p in traced)
    cycles_per_s = [p["trace"]["counts"]["simulate.cycles"] / p["sim_s"]
                    for p in traced if p["sim_s"] > 0]
    values["simulate.cycles_per_s"] = statistics.median(cycles_per_s) if cycles_per_s else 0.0
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    return values


def main(argv: list[str] | None = None) -> int:
    t_begin = time.monotonic()
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="write the first traced pass's spans here (JSON lines)")
    args = ap.parse_args(argv)

    if not (SRC / "coded_aoi" / "__init__.py").is_file():
        print(f"error: no coded_aoi package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    env = child_env()
    imports = {}
    if args.trace:
        probes = [import_times(env, 60.0) for _ in range(IMPORTTIME_PROBES)]
        imports = {k: statistics.median(p[k] for p in probes) for k in probes[0]}

    passes = run_passes(args, env, t_begin)
    ok = [p for p in passes if "error" not in p]
    failures = [{"pass": i, "error": p["error"]} for i, p in enumerate(passes) if "error" in p]
    failures += [{"pass": i, "op": r["name"], "error": r["error"]}
                 for i, p in enumerate(ok) for r in p["ops"] if not r["ok"]]
    attempted = sum(len(p["ops"]) for p in ok) + (len(passes) - len(ok))
    failed = len(failures)
    for p in passes:
        if "error" in p or not all(r["ok"] for r in p["ops"]):
            print(p["stderr"], file=sys.stderr)

    traced = [p for p in ok if p["traced"]]
    untraced = [p for p in ok if not p["traced"]]
    if not ok or (args.trace and not (traced and untraced)):
        print(f"error: no usable passes: {failures}", file=sys.stderr)
        return 1
    summaries = end_to_end(ok if not args.trace else untraced)
    if args.trace:
        values = per_layer(traced, untraced, imports)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    op_latency_raw = summarize([r["s"] for p in ok for r in p["ops"]])
    detail = {
        "benchmark": "coded-aoi perfbench",
        "workload": args.workload,
        "machine": machine(args.seed) | {"versions": ok[0]["versions"]},
        "run": {"seconds": args.seconds, "trace": args.trace, "passes": len(passes),
                "traced_passes": len(traced), "elapsed_s": time.monotonic() - t_begin},
        "timings": summaries | {"op_latency_raw_s": op_latency_raw},
        "passes": [{k: p[k] for k in ("traced", "setup_raw_s", "setup_s", "wall_raw_s",
                                       "speed_factor", "wall_s")} for p in ok],
        "fail_frac": failed / attempted,
        "failures": failures,
    }
    if args.trace:
        detail["trace"] = {"bindings": traced[0]["trace"]["bindings"],
                           "span_calls": traced[0]["trace"]["span_calls"],
                           "counts": traced[0]["trace"]["counts"],
                           "layer_timings": {name: summarize([p["trace"]["timings"][name]
                                                              for p in traced])
                                             for name in traced[0]["trace"]["timings"]}}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
