"""lapmult benchmark: seeded workloads, fresh-process timing, outside-in trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload (workloads.py) turns the seed
into a config; the program sees only that config.  The loop is closed with one
client: each repeat is one full run of the config in a fresh interpreter
(child.py), started after the previous one ended, because a user pays import
and parse cost on every CLI run and no module-level cache may carry over.

``--trace 0`` times untraced repeats for ``--seconds`` (at least three) and
reports the end-to-end metrics: medians of run_s, run_cpu_s, setup_s and
peak_rss_mb, and pass_frac (suites that passed over suites attempted).

Times are reported at a reference host speed.  On a shared host the CPU speed
drifts by a third from one minute to the next, with every process of the
machine slowing together, so raw medians of runs a few minutes apart differ
more than any bound a regression check could use.  Before every repeat the
parent times a fixed calibration burst (HostSpeed); run_s, run_cpu_s and
setup_s are the raw medians times REFERENCE_BURST_S over the run's median
burst.  The raw medians and every burst are in the result file; the raw run_s
median and the median burst are also on the stdout lines before the result,
and the traced pass reports the burst as host.burst_s.  The child runs with one BLAS thread, so that
it and the single-threaded burst feel the same contention.

``--trace 1`` runs one untraced repeat, one at ``threads=2``, and traced
repeats (at least two) for the rest of ``--seconds``, and reports the
per-layer metrics: medians of the traced times, counts that must repeat
exactly, runner.threads2_run_s and trace.overhead_s.

Correctness: every non-report-only suite passes, and every repeat's
report.json and CSV bytes equal the first repeat's, whether traced or
untraced, at one thread or two.  A suite that fails, or any suite of a repeat
that raised or whose bytes differ, counts as failed.

Earlier stdout lines describe the run (environment, report sha256, sample
counts); the last line is the JSON result.  Spans, reports and a full result
file go under bench/work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
CHILD_TIMEOUT_S = 150
MIN_REPEATS = {0: 3, 1: 2}
SETUP_ONLY_REPEATS = 6
# one BLAS thread: on two cores a second thread mostly spins, and a run that
# needs both cores slows with contention the calibration burst cannot see
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BURSTS = 5  # calibration bursts before each repeat
REFERENCE_BURST_S = 0.030  # one burst at the reference speed (2-core x86-64 host, 2026)


class HostSpeed:
    """Times a fixed burst of the program's three kinds of work.

    An interpreter loop, small symmetric eigendecompositions and products
    (the spectral layer at n = 16), and streaming over a 16 MB array (path
    tables larger than L2).  The median burst over a run tracks how fast the
    host is running during that run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        small = rng.standard_normal((16, 16))
        self.small = small + small.T
        self.large = rng.standard_normal(2_000_000)
        self.bursts: list[float] = []

    def _burst(self) -> None:
        total = 0
        for k in range(100_000):
            total += k * k
        for _ in range(150):
            np.linalg.eigh(self.small)
            self.small @ self.small
        for _ in range(3):
            self.large.sum()
            self.large * 1.0001

    def sample(self, count: int = BURSTS) -> None:
        for _ in range(count):
            started = time.perf_counter()
            self._burst()
            self.bursts.append(time.perf_counter() - started)

    def burst_s(self) -> float:
        return statistics.median(self.bursts)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference speed."""
        return REFERENCE_BURST_S / self.burst_s()


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(config: Path, *extra: str) -> dict:
    """Run child.py once and return its result line, with setup_s added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "child.py"), str(config), *extra]
    spawned = time.perf_counter()  # CLOCK_MONOTONIC: comparable with the child's clock
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"error": f"child exited with {proc.returncode}"}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1])
    result["setup_s"] = result["parsed_at"] - spawned
    return result


class Repeats:
    """Timed repeats of one workload and the failure count over them."""

    def __init__(self, config: Path, suites: int, host: HostSpeed | None = None) -> None:
        self.config = config
        self.suites = suites
        self.host = host
        self.samples: list[dict] = []
        self.reference: tuple[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, *extra: str) -> dict:
        if self.host is not None:
            self.host.sample()
        result = child(self.config, *extra)
        self.attempted += self.suites
        if "error" in result:
            bad = self.suites
        else:
            digest = (result["report_sha256"], result["csv_sha256"])
            if self.reference is None:
                self.reference = digest
            failing = sum(1 for s in result["suites"] if not s["passed"] and not s["report_only"])
            bad = self.suites if digest != self.reference else failing
        result["failed_suites"] = bad
        self.failed += bad
        self.samples.append(result)
        return result

    def until(self, deadline: float, minimum: int, *extra: str) -> list[dict]:
        """Repeat while the next repeat is expected to end before ``deadline``."""
        out = []
        while True:
            started = time.perf_counter()
            out.append(self.run(*extra))
            took = time.perf_counter() - started
            if len(out) >= minimum and time.perf_counter() + took > deadline:
                return out


def median_of(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else math.nan


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return f"none (needs more than 10 samples, have {n})"
    pct = math.floor(100 * (n - 10) / n)
    rank = max(0, math.ceil(pct / 100 * n) - 1)
    return f"p{pct}={sorted(values)[rank]:.6g}"


def end_to_end(rep: Repeats, samples: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference speed, and the raw medians."""
    raw = {
        "run_s": median_of(samples, "run_s"),
        "run_cpu_s": median_of(samples, "run_cpu_s"),
        "setup_s": median_of(samples + setups, "setup_s"),
    }
    scale = rep.host.scale()
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = median_of(samples, "peak_rss_mb")
    metrics["pass_frac"] = 1.0 - rep.failed / rep.attempted
    return metrics, raw


def per_layer(rep: Repeats, untraced: dict, threads2: dict, traced: list[dict]) -> tuple[dict, bool]:
    """Medians over the traced repeats; counts must repeat exactly."""
    layers = [s["layers"] for s in traced if "layers" in s]
    out: dict[str, float] = {}
    steady = len(layers) == len(traced)
    for name in layers[0] if layers else ():
        values = [lv[name] for lv in layers]
        if isinstance(values[0], int) or name.endswith(("_reuse", "budget_errors")):
            steady = steady and len(set(values)) == 1
        out[name] = statistics.median(values)
    out["runner.threads2_run_s"] = threads2.get("run_s", math.nan)
    out["trace.overhead_s"] = median_of(traced, "run_s") - untraced.get("run_s", math.nan)
    out["host.burst_s"] = rep.host.burst_s()
    return out, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lapmult benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lapmult" / "__init__.py").is_file():
        return fail(f"no lapmult sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    build = WORKLOADS.get(args.workload)
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    if build is None or why is None:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(build(args.seed), encoding="utf-8")

    # set-up only: warms the bytecode and page caches, stamps the environment,
    # and gives setup_s more samples than the full repeats alone would
    host = HostSpeed()
    host.sample()
    setups = [child(config, "--parse-only") for _ in range(SETUP_ONLY_REPEATS)]
    probe = setups[-1]
    if any("error" in s for s in setups):
        return fail("the program failed to import or to parse the generated config")
    if not Path(probe["environment"]["lapmult_path"]).samefile(ROOT / "src" / "lapmult"):
        return fail(f"imported lapmult from {probe['environment']['lapmult_path']}, not this checkout")
    stamp = dict(probe["environment"], commit=git_commit())
    rep = Repeats(config, probe["suites_total"], host)
    start = time.perf_counter()
    deadline = start + args.seconds

    if args.trace == 0:
        samples = rep.until(deadline, MIN_REPEATS[0], "--out", str(work / "report"))
        host.sample()
        metrics, raw = end_to_end(rep, samples, setups[1:])
        steady = True
        timed = samples
    else:
        untraced = rep.run("--out", str(work / "report"))
        threads2 = rep.run("--threads", "2")
        traced = rep.until(deadline, MIN_REPEATS[1], "--trace", str(work / "spans.jsonl"))
        host.sample()
        metrics, steady = per_layer(rep, untraced, threads2, traced)
        raw = {}
        timed = traced
    correct = rep.failed == 0 and steady

    section = "end_to_end" if args.trace == 0 else "per_layer"
    printed = {}
    for entry in spec[section]:
        value = metrics.get(entry["name"])
        if value is None or (isinstance(value, float) and math.isnan(value)):
            correct = False
            value = -1.0
        printed[entry["name"]] = {"value": value, "unit": entry["unit"]}

    run_values = [s["run_s"] for s in timed if "run_s" in s]
    summary = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": stamp,
        "report_sha256": rep.reference[0] if rep.reference else None,
        "csv_sha256": rep.reference[1] if rep.reference else None,
        "repeats": len(rep.samples),
        "run_s_samples": len(run_values),
        "run_s_tail": tail(run_values),
        "counts_repeat": steady,
        "host_burst_s": host.burst_s(),
        "host_bursts": host.bursts,
        "raw_medians": raw,
        "samples": rep.samples,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"bench: environment {json.dumps(stamp, sort_keys=True)}")
    print(f"bench: workload {args.workload} seed {args.seed}: {why}")
    print(f"bench: report sha256 {summary['report_sha256']} csv sha256 {summary['csv_sha256']}")
    print(f"bench: {len(run_values)} timed repeats, raw run_s median {statistics.median(run_values) if run_values else 'n/a'}"
          f", tail {summary['run_s_tail']}; {rep.failed} of {rep.attempted} suites failed")
    print(f"bench: median calibration burst {host.burst_s():.6f} s over {len(host.bursts)}, "
          f"reference {REFERENCE_BURST_S} s: times scaled by {host.scale():.4f}")
    if args.trace == 1 and run_values:
        run_s = statistics.median(run_values)
        shares = {k: metrics[k] / run_s for k in metrics if k.endswith(".self_s") and k.count(".") == 1}
        print("bench: traced self time share " + ", ".join(
            f"{k[:-7]} {v:.0%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print(json.dumps({"correct": correct, "attempted": rep.attempted, "failed": rep.failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
