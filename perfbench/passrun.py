"""One benchmark pass: a fresh interpreter that imports coded_aoi, builds the
workload's inputs, runs every operation once, checks the results and prints
one JSON line.  Started by run.py; not meant to be run by hand.

Set-up is measured from the moment the parent started this process until the
inputs are built, so it includes interpreter start and every import, as a
command-line user pays them.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import coded_aoi
    from run import SCRATCH, SRC
    if Path(coded_aoi.__file__).resolve().parent.parent != SRC:
        print(f"coded_aoi loaded from {coded_aoi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import calibrate
    import tracing
    import workloads

    tmpdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        ops = workloads.build(args.workload, args.seed, args.pass_index,
                              len(os.sched_getaffinity(0)), tmpdir)
        tracer = tracing.Tracer()
        bindings = tracing.install(tracer) if args.trace else {}
        setup_s = time.monotonic() - args.started

        cal = calibrate.Calibrator(args.workload)
        cal.sample()
        results = []
        for op in ops:
            tracer.enabled = bool(args.trace)
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except (Exception, SystemExit) as e:  # an operation failure is data, not fatal
                out, error = None, f"{type(e).__name__}: {e}"
                traceback.print_exc()
            dt = time.perf_counter() - t0
            tracer.enabled = False
            results.append((op, out, error, dt))
            cal.sample()

        records = []
        for op, out, error, dt in results:
            if error is None:
                try:
                    error = op.check(out)
                except Exception as e:  # a malformed result fails its check
                    error = f"check raised {type(e).__name__}: {e}"
            records.append({"name": op.name, "s": dt, "ok": error is None, "error": error,
                            "rows": op.rows if error is None else 0,
                            "cycles": out.cycles if op.kind == "sim" and error is None else 0,
                            "kind": op.kind})
        ops_s = sum(r["s"] for r in records)
        speed = cal.nominal([r["s"] for r in records]) / ops_s
        report = {
            "setup_s": setup_s,
            "wall_raw_s": ops_s,
            "speed_factor": speed,
            "calibration_s": cal.samples,
            "wall_s": ops_s * speed,
            "sim_s": sum(r["s"] for r in records if r["kind"] == "sim") * speed,
            "ops": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "coded_aoi": coded_aoi.__version__},
        }
        if args.trace:
            cli_rows = sum(r["rows"] for r in records if r["kind"] == "cli")
            report["trace"] = tracing.layer_metrics(tracer, ops_s, cli_rows)
            timings = report["trace"]["timings"]
            for name in timings:
                timings[name] *= speed
            report["trace"]["bindings"] = bindings
            if args.spans_out:
                tracer.write_spans(args.spans_out)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
