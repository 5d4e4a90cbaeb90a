import math
import warnings

import numpy as np
import pytest

from lapmult import (
    Field,
    SampledMultiplier,
    StepMultiplier,
    WeightedSpace,
    approximation_limit_check,
    constant_field,
    decompose,
    heat_operator,
    llogl_chain_check,
    lp_norm,
    multiplier_operator,
    multiplier_pnorm_check,
    opnorm_exact,
    opnorm_lower_estimate,
    random_reversible_generator,
    reference_constant,
    transform_pnorm_check,
)
from lapmult.dilation import PathSpace
from lapmult.inequalities import make_report

from conftest import random_field


def unit_mass_path_space(seed=7, n=4, horizon=5, epsilon=0.8):
    space, gen = random_reversible_generator(seed, n, unit_mass=True)
    return space, gen, PathSpace(heat_operator(gen, epsilon / 2.0), horizon)


class TestReferenceConstant:
    def test_values(self):
        assert reference_constant(2.0) == 1.0
        assert reference_constant(3.0) == 2.0
        assert reference_constant(1.25) == 4.0
        assert reference_constant(1.5) == 2.0

    def test_symmetry_under_duality(self):
        for p in (1.2, 1.7, 2.5, 6.0):
            q = p / (p - 1.0)
            assert reference_constant(p) == pytest.approx(reference_constant(q), rel=1e-12)

    def test_domain(self):
        for p in (1.0, 0.5, math.inf):
            with pytest.raises(ValueError):
                reference_constant(p)


class TestReportSemantics:
    def test_pass_rule(self):
        assert make_report("x", 1.0, 1.0, 1.0, "paper").passed
        assert not make_report("x", 1.1, 1.0, 1.0, "paper").passed
        assert make_report("x", 0.0, 0.0, 2.0, "reference-constant").passed

    def test_ratio_conventions(self):
        assert make_report("x", 0.0, 0.0, 1.0, "paper").ratio == 0.0
        assert make_report("x", 1.0, 0.0, 1.0, "paper").ratio == math.inf
        assert make_report("x", 3.0, 2.0, math.inf, "report-only").ratio == 1.5

    def test_report_only_passes_on_finite_lhs(self):
        assert make_report("x", 5.0, 0.0, math.inf, "report-only").passed


class TestOpnormExact:
    def test_identity_all_p(self):
        space = WeightedSpace([0.3, 0.9, 1.5])
        for p in (1.0, 2.0, math.inf):
            assert opnorm_exact(np.eye(3), space, p).value == pytest.approx(1.0, abs=1e-12)

    def test_heat_operators_are_contractions(self):
        for seed in range(5):
            space, gen = random_reversible_generator(seed, 7)
            kernel = heat_operator(gen, 0.8).entries
            for p in (1.0, 2.0, math.inf):
                assert opnorm_exact(kernel, space, p).value <= 1.0 + 1e-10

    def test_two_state_multiplier_norm(self, two_state):
        # eigenvalues {0, 2a} and m = e^{-t lam} - 1 give ||T_m||_2 = 1 - e^{-2at}
        space, gen, a = two_state
        t = 0.6
        op, _ = multiplier_operator(gen, StepMultiplier([0.0, t], [1.0]))
        expected = 1.0 - math.exp(-2 * a * t)
        assert opnorm_exact(op, space, 2.0).value == pytest.approx(expected, rel=1e-12)

    def test_unsupported_p(self):
        space = WeightedSpace([1.0, 1.0])
        with pytest.raises(ValueError):
            opnorm_exact(np.eye(2), space, 3.0)


class TestOpnormLowerEstimate:
    def test_identity_lower_bound(self):
        space = WeightedSpace([0.5, 1.0, 2.0])
        est = opnorm_lower_estimate(np.eye(3), space, 3.0, probes=8, ascent_steps=2, seed=0)
        assert est.value >= 1.0 - 1e-12
        assert est.kind == "lower_bound"

    def test_never_exceeds_exact_at_p2(self):
        for seed in range(5):
            space, gen = random_reversible_generator(seed, 6)
            kernel = heat_operator(gen, 0.5).entries
            exact = opnorm_exact(kernel, space, 2.0).value
            low = opnorm_lower_estimate(kernel, space, 2.0, probes=64, ascent_steps=40, seed=1)
            assert low.value <= exact + 1e-9

    def test_converges_to_exact_at_p2(self):
        for seed in (3, 4):
            space, gen = random_reversible_generator(seed, 6)
            kernel = heat_operator(gen, 0.5).entries
            exact = opnorm_exact(kernel, space, 2.0).value
            low = opnorm_lower_estimate(kernel, space, 2.0, probes=128, ascent_steps=60, seed=2)
            assert low.value == pytest.approx(exact, abs=1e-6)

    def test_monotone_in_ascent_steps(self):
        space, gen = random_reversible_generator(9, 7)
        op, _ = multiplier_operator(gen, StepMultiplier([0.0, 0.5, 1.5], [1.0, -1.0j]))
        values = [
            opnorm_lower_estimate(op, space, 2.7, probes=16, ascent_steps=k, seed=3).value
            for k in (0, 1, 2, 5, 10, 20)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values[:-1], values[1:]))

    def test_monotone_in_probes(self):
        space, gen = random_reversible_generator(10, 6)
        op, _ = multiplier_operator(gen, StepMultiplier([0.0, 1.0, 2.0], [0.5, -1.2]))
        values = [
            opnorm_lower_estimate(op, space, 1.6, probes=m, ascent_steps=4, seed=4).value
            for m in (4, 8, 16, 64, 256)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values[:-1], values[1:]))

    def test_requires_interior_p(self):
        space = WeightedSpace([1.0, 1.0])
        for p in (1.0, math.inf):
            with pytest.raises(ValueError):
                opnorm_lower_estimate(np.eye(2), space, p)


# The probe ascent as first written (five |.|^s passes per step), kept verbatim
# as the reference for the one-power-per-dual-map loop in the library.
def _columnwise_pnorm(values, w, p):
    return (w @ np.abs(values) ** p) ** (1.0 / p)


def _dual_map(values, exponent):
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a**exponent * values
    return np.where(a > 0.0, out, 0.0)


def reference_lower_estimate(op, space, p, probes, ascent_steps, seed):
    t = np.asarray(op, dtype=complex)
    w = space.weights
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((probes, 2, space.n))
    complex_probes = z[:, 0, :] + 1j * z[:, 1, :]
    fields = np.concatenate([complex_probes, np.abs(complex_probes)], axis=0).T
    q = p / (p - 1.0)
    adj = t.conj().T

    best = 0.0
    for step in range(ascent_steps + 1):
        images = t @ fields
        num = _columnwise_pnorm(images, w, p)
        den = _columnwise_pnorm(fields, w, p)
        live = den > 0.0
        if np.any(live):
            best = max(best, float((num[live] / den[live]).max()))
        if step == ascent_steps:
            break
        duals = _dual_map(images, p - 2.0)
        pullback = (adj @ (duals * w[:, None])) / w[:, None]
        updated = _dual_map(pullback, q - 2.0)
        norms = _columnwise_pnorm(updated, w, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = updated / norms
        fields = np.where(norms > 0.0, scaled, fields)
    return best


ORACLE_P = (1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0)


class TestAscentOracle:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_reference_loop(self, n, kind):
        rng = np.random.default_rng([n, kind == "complex"])
        space = WeightedSpace(rng.uniform(0.05, 4.0, n))
        op = rng.standard_normal((n, n))
        if kind == "complex":
            op = op + 1j * rng.standard_normal((n, n))
        for p in ORACLE_P:
            want = reference_lower_estimate(op, space, p, 12, 25, n)
            got = opnorm_lower_estimate(op, space, p, probes=12, ascent_steps=25, seed=n).value
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), p

    def test_zero_operator(self):
        space = WeightedSpace([0.5, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ORACLE_P:
                est = opnorm_lower_estimate(np.zeros((3, 3)), space, p, probes=4, ascent_steps=3)
                assert est.value == 0.0

    def test_exact_zeros_in_image_and_pullback(self):
        # a zero row leaves exact zeros in Tf; a zero column leaves them in the pullback
        rng = np.random.default_rng(5)
        space = WeightedSpace(rng.uniform(0.5, 2.0, 4))
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op[1, :] = 0.0
        op[:, 2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1.25, 1.5, 3.0, 4.0):
                got = opnorm_lower_estimate(op, space, p, probes=6, ascent_steps=8, seed=1).value
                assert math.isfinite(got) and got > 0.0
                want = reference_lower_estimate(op, space, p, 6, 8, 1)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), p


class TestMultiplierPnormCheck:
    def test_zero_multiplier(self):
        space, gen = random_reversible_generator(2, 5)
        result = multiplier_pnorm_check(gen, StepMultiplier([0.0, 1.0], [0.0]),
                                        [1.5, 2.0, 3.0], probes=32, ascent_steps=5, seed=0)
        assert result.passed
        assert all(r.ratio == 0.0 for r in result.reports)

    def test_p2_has_paper_threshold_one(self):
        space, gen = random_reversible_generator(3, 6)
        result = multiplier_pnorm_check(gen, StepMultiplier([0.0, 0.7], [1.0]),
                                        [1.5, 2.0, 4.0], probes=64, ascent_steps=10, seed=1)
        by_name = {r.name: r for r in result.reports}
        p2 = by_name["multiplier-pnorm p=2"]
        assert p2.threshold == 1.0
        assert p2.provenance == "paper"
        assert p2.passed
        assert by_name["multiplier-pnorm p=4"].provenance == "reference-constant"

    def test_seed7_grid_within_reference_constants(self):
        space, gen = random_reversible_generator(7, 6)
        rng = np.random.default_rng(6)
        step = StepMultiplier(
            np.concatenate([[0.0], np.sort(rng.uniform(0, 3, 4))]),
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
        )
        result = multiplier_pnorm_check(gen, step, [1.25, 1.5, 3.0, 4.0],
                                        probes=200, ascent_steps=20, seed=7)
        for report in result.reports:
            assert report.ratio <= report.threshold * (1 + 1e-9)

    def test_growth_fit_reported(self):
        space, gen = random_reversible_generator(8, 5)
        result = multiplier_pnorm_check(gen, StepMultiplier([0.0, 1.0], [1.0]),
                                        [1.25, 1.5, 2.0], probes=64, ascent_steps=10, seed=2)
        assert result.fit_slope is not None
        assert result.fit_intercept is not None


class TestTransformPnormCheck:
    def test_zero_multipliers(self):
        space, gen, ps = unit_mass_path_space()
        result = transform_pnorm_check(ps, np.zeros(ps.horizon), random_field(space, 0), 2.0)
        assert result.report.lhs == 0.0
        assert result.passed

    def test_unit_multipliers_telescoping_sanity(self):
        # S = f_N - f_0 forces ||S||_p <= 2 ||f||_p by triangle + contraction
        space, gen, ps = unit_mass_path_space(n=3, horizon=4)
        f = random_field(space, 1)
        result = transform_pnorm_check(ps, np.ones(ps.horizon), f, 3.0)
        nu = ps.initial_law
        fnorm = float((nu @ np.abs(f.values) ** 3) ** (1 / 3))
        assert result.report.lhs <= 2.0 * fnorm * (1 + 1e-12)
        assert result.contraction_ok

    def test_seed7_signs_p3(self):
        space, gen, ps = unit_mass_path_space(seed=7, n=4, horizon=5)
        rng = np.random.default_rng(5)
        signs = rng.choice([-1.0, 1.0], ps.horizon)
        result = transform_pnorm_check(ps, signs, random_field(space, 2), 3.0)
        assert result.report.threshold == 2.0
        assert result.report.ratio <= 2.0
        assert result.contraction_excess <= 1e-10

    def test_ratio_invariant_under_field_scaling(self):
        space, gen, ps = unit_mass_path_space(n=3, horizon=3)
        f = random_field(space, 3)
        signs = np.array([1.0, -1.0, 1.0])
        r1 = transform_pnorm_check(ps, signs, f, 2.5).report.ratio
        r2 = transform_pnorm_check(ps, signs, 7.5 * f, 2.5).report.ratio
        assert r1 == pytest.approx(r2, rel=1e-12)


class TestLloglChainCheck:
    def test_constant_field(self):
        space, gen, ps = unit_mass_path_space()
        result = llogl_chain_check(ps, np.ones(ps.horizon), constant_field(space, 2.0))
        assert result.all_finite
        assert result.davis_step.lhs == pytest.approx(0.0, abs=1e-12)
        assert result.square_vs_maximal.ratio == pytest.approx(0.0, abs=1e-12)

    def test_requires_unit_mass(self):
        space, gen = random_reversible_generator(3, 4)  # total mass well away from 1
        ps = PathSpace(heat_operator(gen, 0.4), 3)
        with pytest.raises(ValueError):
            llogl_chain_check(ps, np.ones(3), random_field(space, 0))

    def test_square_function_pathwise_sanity(self):
        # every increment is at most 2 sup_i |f_i|, so the square function is
        # bounded by 2 sqrt(N) times the maximal function on every path
        from lapmult import all_paths, reverse_martingale, square_and_maximal

        space, gen, ps = unit_mass_path_space(n=3, horizon=4)
        f = random_field(space, 4)
        family = reverse_martingale(ps, f)
        square_fn, maximal_fn = square_and_maximal(ps, family)
        paths = all_paths(ps)
        lhs = square_fn.evaluator(paths)
        rhs = 2.0 * math.sqrt(ps.horizon) * maximal_fn.evaluator(paths)
        assert np.all(lhs <= rhs + 1e-12)

    def test_random_instance_all_finite(self):
        space, gen, ps = unit_mass_path_space(seed=12, n=4, horizon=4)
        rng = np.random.default_rng(8)
        result = llogl_chain_check(ps, rng.choice([-1.0, 1.0], 4), random_field(space, 5))
        assert result.all_finite
        for report in result.reports:
            assert report.provenance == "report-only"
            assert math.isinf(report.threshold)


class TestApproximationLimit:
    def test_exponential_limit(self):
        space, gen = random_reversible_generator(7, 6)
        sampled = SampledMultiplier(lambda t: np.exp(-np.asarray(t, float)), 4.0, 513, 1.0)
        result = approximation_limit_check(gen, sampled, random_field(space, 6),
                                           [4, 8, 16, 32, 64], 2.0, tol=1e-2)
        assert result.passed
        assert result.limit_report.provenance == "paper"

    def test_constant_sampler_degenerate_chain(self):
        space, gen = random_reversible_generator(8, 5)
        sampled = SampledMultiplier(lambda t: np.full(np.shape(t), 1.0), 2.0, 129, 1.0)
        result = approximation_limit_check(gen, sampled, random_field(space, 7),
                                           [2, 4, 8], 2.0, tol=1e-6)
        assert result.passed

    def test_zero_sampler(self):
        space, gen = random_reversible_generator(9, 5)
        sampled = SampledMultiplier(lambda t: np.zeros(np.shape(t)), 2.0, 65, 0.0)
        result = approximation_limit_check(gen, sampled, random_field(space, 8),
                                           [2, 4], 2.0, tol=1e-10)
        assert result.passed
        assert all(r.lhs < 1e-12 for r in result.step_reports)
