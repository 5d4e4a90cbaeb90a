"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure) and asserts the criterion.  Seeds, sizes, and tolerances are pinned
here; the suites they call are the same ones the CLI runs.
"""

import json
import math
import time

import numpy as np
import pytest

from lapmult import (
    SampledMultiplier,
    decompose,
    imaginary_power_preset,
    random_reversible_generator,
    symbol_of_sampled,
)
from lapmult.cli import EXIT_OK, main
from lapmult.suites import (
    suite_dilation_identity,
    suite_imaginary_powers,
    suite_l2_bound,
    suite_llogl_chain,
    suite_multiplier_pnorm_family,
    suite_step_convergence,
    suite_step_identity,
    suite_transform_identity,
    suite_transform_pnorm,
)

STEP_FAMILY = dict(seed=2024, instances=50, max_n=16, max_pieces=8)
DILATION_FAMILY = dict(seed=303, instances=20, max_n=6, max_horizon=6, epsilon=0.8)
P_GRID = [1.25, 1.5, 2.0, 3.0, 4.0]


def announce(number, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {marker} - {detail}")


def test_criterion_1_step_identity_exact():
    start = time.perf_counter()
    result = suite_step_identity(**STEP_FAMILY, tol=1e-10)
    elapsed = time.perf_counter() - start
    worst = result.summary["max_relative_deviation"]
    ok = result.passed and elapsed < 5.0
    announce(1, ok, f"max relative deviation {worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (< 5s)")
    assert result.passed, f"identity deviation {worst} above 1e-10"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_l2_multiplier_bound():
    result = suite_l2_bound(**STEP_FAMILY)
    ok = result.passed
    announce(2, ok, f"violations {result.summary['violations']}, worst ratio "
                    f"{result.summary['worst_ratio']:.12f} (slack 1e-9)")
    assert result.summary["violations"] == 0


def test_criterion_3_dilation_identity():
    start = time.perf_counter()
    result = suite_dilation_identity(**DILATION_FAMILY, tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 30.0
    announce(3, ok, f"max dev vs kernel powers {result.summary['max_deviation_kernel_power']:.3e}, "
                    f"vs heat operator {result.summary['max_deviation_heat']:.3e} (tol 1e-10), "
                    f"runtime {elapsed:.2f}s (< 30s)")
    assert result.passed
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_4_transform_identity():
    result = suite_transform_identity(**DILATION_FAMILY, tol=1e-10)
    announce(4, result.passed,
             f"max dev vs kernel powers {result.summary['max_deviation_kernel_powers']:.3e}, "
             f"vs telescoping {result.summary['max_deviation_telescoping']:.3e} (tol 1e-10)")
    assert result.passed


def test_criterion_5_pnorm_grid_with_growth_fit():
    result = suite_multiplier_pnorm_family(
        seed=STEP_FAMILY["seed"],
        instances=STEP_FAMILY["instances"],
        max_n=STEP_FAMILY["max_n"],
        max_pieces=STEP_FAMILY["max_pieces"],
        p_grid=P_GRID,
        probes=1000,
        ascent_steps=50,
        probe_seed=99,
    )
    by_name = {r.name: r for r in result.inequalities}
    p2 = by_name["multiplier-pnorm p=2"]
    detail = ", ".join(f"p={p:g}: ratio {by_name[f'multiplier-pnorm p={p:g}'].ratio:.4f}"
                       f"/{by_name[f'multiplier-pnorm p={p:g}'].threshold:g}" for p in P_GRID)
    announce(5, result.passed, detail + f"; growth fit slope {result.summary['growth_fit_slope']:.4f}")
    assert result.passed, "observed ratio above its threshold"
    assert p2.threshold == 1.0 and p2.provenance == "paper"
    assert result.summary["growth_fit_slope"] is not None


def test_criterion_6_transform_bound_and_contraction():
    result = suite_transform_pnorm(
        seed=DILATION_FAMILY["seed"],
        instances=DILATION_FAMILY["instances"],
        max_n=DILATION_FAMILY["max_n"],
        max_horizon=DILATION_FAMILY["max_horizon"],
        epsilon=DILATION_FAMILY["epsilon"],
        p_grid=P_GRID,
    )
    worst = max(r.ratio / r.threshold for r in result.inequalities)
    announce(6, result.passed,
             f"worst ratio/threshold {worst:.4f}, contraction excess "
             f"{result.summary['worst_contraction_excess']:.3e} (slack 1e-10)")
    assert all(r.passed for r in result.inequalities), "transform ratio above p*-1"
    assert result.summary["contraction_ok"]


def test_criterion_7_step_convergence_curve():
    space, gen = random_reversible_generator(7, 6)
    sampled = SampledMultiplier(lambda t: np.exp(-np.asarray(t, dtype=float)), 4.0, 513, 1.0)

    # the sampled reference itself must match the analytic symbol -lam/(lam+1)
    # within its reported error at every chain eigenvalue
    symbol = symbol_of_sampled(sampled)
    truncated = lambda lam: -lam * (1.0 - math.exp(-4.0 * (lam + 1.0))) / (lam + 1.0)
    for lam in decompose(gen).eigenvalues:
        lam = float(lam)
        if lam == 0.0:
            continue
        assert abs(symbol.evaluator(lam) - truncated(lam)) <= max(symbol.error_bound(lam), 1e-8)

    result = suite_step_convergence(gen, sampled, piece_counts=[4, 8, 16, 32, 64],
                                    field_seed=5, rel_tol=1e-2)
    errors = result.summary["errors"]
    announce(7, result.passed,
             "errors " + ", ".join(f"{e:.2e}" for e in errors)
             + f"; final {errors[-1]:.2e} < 1e-2*||f||_2 = {result.summary['tol']:.2e}")
    assert result.summary["monotone_ok"], "error curve not nonincreasing within 10% jitter"
    assert errors[-1] < result.summary["tol"]


def test_criterion_8_llogl_chain_family_stability():
    result = suite_llogl_chain(seed=606, chains=20, fields=20, n=4, horizon=5,
                               epsilon=0.8, stability_doubling=True, stability_rel=0.25)
    stability = result.summary["stability"]
    detail = ", ".join(f"{name}: max {info['base_max']:.3f} (+{100 * info['growth']:.1f}%)"
                       for name, info in stability.items())
    announce(8, result.passed, detail)
    assert result.summary["all_finite"], "a chained ratio was not finite"
    for name, info in stability.items():
        assert info["growth"] <= 0.25, f"{name} family max unstable under doubling"


def test_criterion_9_imaginary_powers():
    _, gen = random_reversible_generator(11, 8)
    result = suite_imaginary_powers(gen, gammas=[0.5, 1.0, 2.0])
    detail = ", ".join(
        f"gamma={g}: dev {info['worst_symbol_deviation']:.2e} <= err {info['max_reported_error']:.2e}"
        for g, info in result.summary["per_gamma"].items()
    )
    announce(9, result.passed, detail)
    assert result.passed
    for gamma in (0.5, 1.0, 2.0):
        info = result.summary["per_gamma"][f"{gamma:g}"]
        assert info["opnorm_2"] <= info["sup"] + info["max_reported_error"] + 1e-12


# Of the family's 50 members x 4 values of p other than 2, the Riesz-Thorin
# upper bound leaves 60 that could set a worst row; only those run an ascent.
PAPER_SUITE_ASCENTS = 60


def test_criterion_10_reproducible_paper_suite(tmp_path, cold_step_family, counted_ascents):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cold_step_family()
    code1 = main(["run", "paper-suite", "--out", str(out1)])
    ascents1 = len(counted_ascents)
    counted_ascents.clear()
    cold_step_family()
    code2 = main(["run", "paper-suite", "--out", str(out2)])
    ascents = (ascents1, len(counted_ascents))
    first = (out1 / "report.json").read_bytes()
    second = (out2 / "report.json").read_bytes()
    identical = first == second
    overall = json.loads(first)["overall_pass"]
    announce(10, code1 == EXIT_OK and code2 == EXIT_OK and identical,
             f"exit codes ({code1}, {code2}), byte-identical reports: {identical}, "
             f"overall_pass: {overall}, probe ascents: {ascents}")
    assert code1 == EXIT_OK and code2 == EXIT_OK
    assert identical, "reports differ between runs"
    assert overall
    assert ascents == (PAPER_SUITE_ASCENTS, PAPER_SUITE_ASCENTS)
