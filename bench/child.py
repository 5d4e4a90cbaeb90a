"""One timed repeat of a lapmult run, in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py CONFIG [--threads K] [--trace SPANS] [--out DIR] [--parse-only]

Drives the public entry points (config.parse_config -> runner.run_config ->
runner.report_json / runner.inequalities_csv) and prints one JSON line: the
CLOCK_MONOTONIC instant at which the config was parsed (the parent subtracts
its spawn instant to get set-up time), the run's wall and CPU time, peak RSS,
the sha256 of the report and CSV bytes, and the pass flag of every suite.
With ``--trace`` the run is traced from outside (see tracer.py), the spans are
written to SPANS, and the per-layer metrics are added to the line.
"""

import time  # first, so set-up time ends on the same clock the parent started

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path

import lapmult
from lapmult import config, runner


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "lapmult": lapmult.__version__,
        "lapmult_path": str(Path(lapmult.__file__).resolve().parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    parser.add_argument("--out", help="also write report.json and inequalities.csv here")
    parser.add_argument("--parse-only", action="store_true", help="stop after parsing; print the environment")
    args = parser.parse_args(argv)
    if args.trace and args.threads != 1:
        parser.error("the tracer is single-threaded: --trace needs --threads 1")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    cfg = config.parse_config(raw)
    parsed_at = time.perf_counter()
    cpu0 = time.process_time()
    result = {"parsed_at": parsed_at, "suites_total": len(cfg.suites)}
    if args.parse_only:
        result["environment"] = environment()
        print(json.dumps(result))
        return 0

    try:
        outcome = runner.run_config(cfg, threads=args.threads)
        report = runner.report_json(outcome).encode("utf-8")
        table = runner.inequalities_csv(outcome).encode("utf-8")
    except Exception:  # a raising suite fails the whole repeat; the parent counts it
        traceback.print_exc()
        result["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
        print(json.dumps(result))
        return 0
    result["run_s"] = time.perf_counter() - parsed_at
    result["run_cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["report_sha256"] = hashlib.sha256(report).hexdigest()
    result["csv_sha256"] = hashlib.sha256(table).hexdigest()
    result["overall_pass"] = outcome.overall_pass
    result["suites"] = [
        {"name": s["name"], "passed": s["passed"], "report_only": s["report_only"]}
        for s in outcome.report["suites"]
    ]
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, config.KNOWN_CHECKS)
        result["spans"] = len(tracer.spans)
        Path(args.trace).write_text(tracer.spans_json(), encoding="utf-8")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_bytes(report)
        (out / "inequalities.csv").write_bytes(table)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
