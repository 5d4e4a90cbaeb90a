"""Checks of the benchmark itself: workloads, the outside-in tracer, run.py's refusal.

Run with ``PYTHONPATH=src python -m pytest bench``.  The per-layer counts on
the tiny config below are derived from the code of each layer, so a tracer
that misses a namespace or a counter that drifts fails here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import lapmult
from lapmult import config, dilation, runner, suites
from lapmult.semigroup import random_reversible_generator
import run
from tracer import Tracer, layer_metrics
from workloads import PRESET, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

PROBES, STEPS, P_GRID = 4, 2, [1.5, 3]
TINY = {
    "schema": "lapmult-config-1",
    "suites": [
        {"check": "step_identity", "seed": 1, "instances": 2, "max_n": 4, "max_pieces": 3},
        {"check": "multiplier_pnorm", "chain": {"seed": 3, "n": 3},
         "multiplier": {"type": "step", "breakpoints": [0, 0.5, 1.0], "values": [1, -1]},
         "p_grid": P_GRID, "probes": PROBES, "ascent_steps": STEPS, "probe_seed": 0},
        {"check": "mc_crosscheck", "seed": 5, "n": 2,
         "dilation": {"horizon": 2, "epsilon": 0.8, "mode": "mc", "samples": 50, "seed": 7}},
    ],
}


def traced_tiny() -> dict:
    with Tracer() as tracer:
        outcome = runner.run_config(config.parse_config(TINY))
        runner.report_json(outcome)
        runner.inequalities_csv(outcome)
    return layer_metrics(tracer, config.KNOWN_CHECKS)


def test_counts_derived_from_the_code():
    m = traced_tiny()
    family = suites.step_instance_family(1, 2, 4, 3)
    pieces = sum(step.values.size for _, step, _ in family)
    sizes = sum(gen.space.n for gen, _, _ in family)

    # telescoping_Tm builds two heat kernels per step piece; mc_crosscheck one
    assert m["multiplier.telescoping_Tm.calls"] == 2
    assert m["semigroup.heat_operator.calls"] == 2 * pieces + 1
    # every heat kernel decomposes, plus one per step instance and one for T_m
    assert m["spectral.decompose.calls"] == 2 * pieces + 1 + 2 + 1
    assert m["spectral.decompose_reuse"] == 4 / (2 * pieces + 4)
    assert m["spectral.spectral_apply.calls"] == 2
    # the step symbol is evaluated once per eigenvalue: apply_Tm, then T_m's matrix
    assert m["multiplier.symbol_evals"] == sizes + 3

    n = 3
    assert m["inequalities.opnorm_lower_estimate.calls"] == len(P_GRID)
    assert m["inequalities.ascent_columns"] == len(P_GRID) * 2 * PROBES * (STEPS + 1)
    assert m["inequalities.ascent_flops"] == len(P_GRID) * 8 * n * n * 2 * PROBES * (2 * STEPS + 1)

    # exact mode enumerates the 2^3 paths once per call; mc samples per stratum
    space, _ = random_reversible_generator([5, 1], 2)
    per_call = int(np.maximum(1, np.rint(50 * space.weights / space.weights.sum())).sum())
    for fn in ("hat_expectation", "path_lp_norm"):
        for mode in ("exact", "mc"):
            assert m[f"dilation.{fn}.{mode}.calls"] == 1
    assert m["dilation.all_paths.calls"] == 2
    assert m["dilation.paths_built"] == 2 * 2**3
    assert m["dilation.path_table_reuse"] == 0.5
    assert m["dilation.transition_products.calls"] == 2
    assert m["dilation.mc_paths_sampled"] == 2 * per_call
    assert m["dilation.functional_evals"] == 1 + 2 + 1 + 2
    assert m["dilation.budget_errors"] == 0

    ran = {"step_identity", "multiplier_pnorm", "mc_crosscheck"}
    for check in config.KNOWN_CHECKS:
        assert (m[f"suites.{check}.s"] > 0) == (check in ran), check
    assert m["config.parse_s"] > 0 and m["runner.report_s"] > 0


def test_every_namespace_is_patched_and_restored():
    originals = (dilation.hat_expectation, suites.suite_mc_crosscheck)
    with Tracer():
        wrapped = dilation.hat_expectation
        assert wrapped is not originals[0]
        assert suites.hat_expectation is wrapped and lapmult.hat_expectation is wrapped
        assert runner._RUNNERS["mc_crosscheck"] is suites.suite_mc_crosscheck
        assert suites.suite_mc_crosscheck is not originals[1]
    assert dilation.hat_expectation is originals[0] and suites.hat_expectation is originals[0]
    assert runner._RUNNERS["mc_crosscheck"] is originals[1]


def test_per_layer_names_match_benchmark_json():
    produced = set(traced_tiny()) | {"runner.threads2_run_s", "trace.overhead_s", "host.burst_s"}
    names = [e["name"] for e in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert set(names) == produced


def _child(config_path: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(BENCH / "child.py"), str(config_path), *extra],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_counts_and_bytes_repeat_across_fresh_processes(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    plain = _child(path)
    first = _child(path, "--trace", str(tmp_path / "a.jsonl"))
    second = _child(path, "--trace", str(tmp_path / "b.jsonl"))
    assert plain["report_sha256"] == first["report_sha256"] == second["report_sha256"]
    assert plain["csv_sha256"] == first["csv_sha256"] == second["csv_sha256"]
    counts = [e["name"] for e in SPEC["per_layer"] if e["unit"] == "count" and e["name"] in first["layers"]]
    assert counts and all(first["layers"][k] == second["layers"][k] for k in counts)
    assert len((tmp_path / "a.jsonl").read_text().splitlines()) == first["spans"]


def test_workloads_are_seeded_and_parse():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert WORKLOADS["paper-suite"](0) == PRESET.read_text(encoding="utf-8")
    for name, build in WORKLOADS.items():
        assert build(3) == build(3)
        assert build(3) != build(4), name
        for seed in (0, 3):
            config.parse_config(json.loads(build(seed)))

    preset = json.loads(PRESET.read_text(encoding="utf-8"))["suites"]
    shifted = json.loads(WORKLOADS["paper-suite"](3))["suites"]
    for old, new in zip(preset, shifted):
        if "instances" in old:
            assert new["seed"] == old["seed"]
        elif "seed" in old:
            assert new["seed"] == old["seed"] + 3
        if "probe_seed" in old:
            assert new["probe_seed"] == old["probe_seed"] + 3
        if "chain" in old:
            assert new["chain"]["seed"] == old["chain"]["seed"] + 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper-suite", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_failures_count_suites_of_bad_repeats(monkeypatch):
    def ok(sha="a", failing=0):
        suites_ = [{"passed": i >= failing, "report_only": False} for i in range(3)]
        return {"report_sha256": sha, "csv_sha256": "c", "suites": suites_}

    results = iter([ok(), ok(sha="b"), {"error": "raised"}, ok(failing=1), ok()])
    monkeypatch.setattr(run, "child", lambda config, *extra: next(results))
    rep = run.Repeats(Path("unused.json"), suites=3)
    for _ in range(5):
        rep.run()
    assert rep.attempted == 15
    assert [s["failed_suites"] for s in rep.samples] == [0, 3, 3, 1, 0]
    assert rep.failed == 7
