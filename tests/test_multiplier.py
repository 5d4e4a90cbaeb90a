import inspect
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import gamma as scipy_gamma

from lapmult import (
    Field,
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    approximate_by_steps,
    constant_field,
    decompose,
    imaginary_power_preset,
    lp_norm,
    random_reversible_generator,
    step_convergence_check,
    symbol_of_sampled,
    symbol_of_step,
    telescoping_Tm,
)
from lapmult.multiplier import (
    symbol_bound, MultiplierSymbol, _EXP_UNDERFLOW, _complex_gamma, _nonzero_prefix, _simpson_weights,
)
from lapmult.suites import step_instance_family, suite_step_convergence

from conftest import random_field


def exp_sampler(t):
    return np.exp(-np.asarray(t, dtype=float))


def reference_symbol_of_sampled(sampled):
    """symbol_of_sampled without its table or prefix cut: fresh full-grid Simpson sums on every call."""
    t = sampled._grid
    mv = sampled._grid_values
    h = float(t[1] - t[0])
    sup = sampled.declared_sup
    tmax = sampled.truncation
    w_full = _simpson_weights(t.size, h)
    w_half = _simpson_weights((t.size + 1) // 2, 2.0 * h)

    def _quadratures(lam: float) -> tuple[complex, complex]:
        g = mv * np.exp(-lam * t)
        return complex(w_full @ g), complex(w_half @ g[::2])

    def evaluator(lam: float) -> complex:
        if lam == 0.0:
            return 0j
        s_full, _ = _quadratures(lam)
        return -lam * s_full

    def error_bound(lam: float) -> float:
        if lam == 0.0:
            return 0.0
        s_full, s_half = _quadratures(lam)
        richardson = abs(lam) * abs(s_full - s_half)
        first_cell = sup * (1.0 - math.exp(-2.0 * lam * h)) + sup * lam * (h / 3.0) * (
            1.0 + 4.0 * math.exp(-lam * h) + math.exp(-2.0 * lam * h)
        )
        tail = sup * math.exp(-lam * tmax)
        return richardson + first_cell + tail

    return MultiplierSymbol(evaluator, error_bound)


def random_step_multiplier(seed, pieces, horizon=3.0):
    rng = np.random.default_rng(seed)
    breakpoints = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, pieces))])
    values = rng.standard_normal(pieces) + 1j * rng.standard_normal(pieces)
    return StepMultiplier(breakpoints, values)


class TestStepMultiplier:
    def test_validation(self):
        with pytest.raises(ValueError):  # first breakpoint nonzero
            StepMultiplier([0.5, 1.0], [1.0])
        with pytest.raises(ValueError):  # decreasing breakpoints
            StepMultiplier([0.0, 2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):  # length mismatch
            StepMultiplier([0.0, 1.0], [1.0, 2.0])

    def test_sup_norm(self):
        step = StepMultiplier([0.0, 1.0, 2.0], [3.0, -4.0j])
        assert step.sup_norm == 4.0


class TestStepSymbol:
    def test_indicator_closed_form(self):
        # M = 1_[0,t) gives m(lam) = e^{-t lam} - 1
        t = 1.3
        symbol = symbol_of_step(StepMultiplier([0.0, t], [1.0]))
        for lam in (0.0, 0.2, 1.0, 5.0):
            expected = 0.0 if lam == 0.0 else math.exp(-t * lam) - 1.0
            assert symbol.evaluator(lam) == pytest.approx(expected, abs=1e-15)

    def test_zero_multiplier(self):
        symbol = symbol_of_step(StepMultiplier([0.0, 1.0], [0.0]))
        assert symbol.evaluator(2.0) == 0.0

    def test_log2_value(self):
        symbol = symbol_of_step(StepMultiplier([0.0, math.log(2.0)], [1.0]))
        assert symbol.evaluator(1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_vanishes_at_zero_and_respects_sup(self):
        step = random_step_multiplier(5, 6)
        symbol = symbol_of_step(step)
        assert symbol.evaluator(0.0) == 0.0
        for lam in np.linspace(0.0, 20.0, 50):
            assert abs(symbol.evaluator(lam)) <= step.sup_norm + 1e-12


class TestSampledSymbol:
    def test_zero_sampler(self):
        sampled = SampledMultiplier(lambda t: np.zeros_like(np.asarray(t, float)), 10.0, 101, 0.0)
        symbol = symbol_of_sampled(sampled)
        assert symbol.evaluator(1.0) == 0.0

    def test_exponential_against_analytic_laplace(self):
        # M(t) = e^{-t} has m(lam) = -lam / (lam + 1)
        sampled = SampledMultiplier(exp_sampler, 40.0, 4001, 1.0)
        symbol = symbol_of_sampled(sampled)
        for lam in (0.5, 1.0, 2.0):
            expected = -lam / (lam + 1.0)
            assert abs(symbol.evaluator(lam) - expected) <= symbol.error_bound(lam)
            assert symbol.evaluator(lam) == pytest.approx(expected, abs=1e-7)

    def test_step_through_both_paths(self):
        # constant M over [0, T): the quadrature truncates there, so the two
        # symbols must agree within the reported error
        c = 0.8 - 0.4j
        t_max = 4.0
        step = StepMultiplier([0.0, t_max], [c])
        sampled = SampledMultiplier(lambda t: np.full(np.shape(t), c), t_max, 129, abs(c))
        closed = symbol_of_step(step)
        quad = symbol_of_sampled(sampled)
        for lam in (0.3, 1.0, 2.5, 6.0):
            assert abs(quad.evaluator(lam) - closed.evaluator(lam)) <= quad.error_bound(lam)

    @pytest.mark.parametrize("make", [
        lambda: SampledMultiplier(exp_sampler, 1e-3, 9, 1.0),
        lambda: SampledMultiplier(exp_sampler, 40.0, 4001, 1.0),
        lambda: SampledMultiplier(exp_sampler, 1e16, 9, 1.0),
        lambda: imaginary_power_preset(10.0, 1e300, 9),
    ])
    def test_symbol_bound_holds_on_its_window(self, make):
        sampled = make()
        symbol = symbol_of_sampled(sampled)
        for lam_max in (1e-300, 0.7, 1e4, 1e16):
            try:
                bound = symbol_bound(sampled, lam_max)
            except ValueError as exc:
                # a window on which the symbol or its error bound may overflow is refused
                assert "overflows the quadrature symbol or its error bound" in str(exc)
                continue
            for lam in np.geomspace(1e-300, lam_max, 25):
                assert abs(symbol.evaluator(float(lam))) <= bound, (lam_max, lam)
                assert symbol.error_bound(float(lam)) <= bound, (lam_max, lam)

    def test_symbol_bound_overflows_with_the_window(self):
        sampled = SampledMultiplier(exp_sampler, 1e300, 9, 1.0)
        assert math.isfinite(symbol_bound(sampled, 1.0))
        with pytest.raises(ValueError, match=r"^t_max = 1e\+300 on a chain with eigenvalues up to 1e\+12 "
                                             r"overflows the quadrature symbol or its error bound$"):
            symbol_bound(sampled, 1e12)

    def test_symbol_bound_of_a_step_is_its_sup(self):
        step = StepMultiplier([0.0, 0.5, 2.0], [1.0 - 2.0j, 0.5])
        symbol = symbol_of_step(step)
        lam_max = 5e307
        bound = symbol_bound(step, lam_max)
        assert bound == step.sup_norm == abs(1.0 - 2.0j)
        for lam in np.geomspace(1e-300, lam_max, 25):
            assert abs(symbol.evaluator(float(lam))) <= bound, lam

    def test_symbol_bound_of_a_step_overflows_with_its_last_breakpoint(self):
        step = StepMultiplier([0.0, 7.5e299], [1e-300])
        # lam_max t_N is 7.5e307 and then 7.5e308, past the double range
        assert symbol_bound(step, 1e8) == 1e-300
        with pytest.raises(ValueError, match=r"^a breakpoint at 7.5e\+299 on a chain with eigenvalues up to 1e\+09 "
                                             r"overflows the step symbol's exponent$"):
            symbol_bound(step, 1e9)

    def test_grid_off_simpson_pairs_rejected(self):
        # rounding a size up to 4m+1 would run a grid the caller did not ask for
        for size in (6, 7, 8, 100, 24000):
            with pytest.raises(ValueError, match=r"4m\+1"):
                SampledMultiplier(exp_sampler, 1.0, size, 1.0)
        for size in (5, 9, 101):
            assert SampledMultiplier(exp_sampler, 1.0, size, 1.0)._grid.size == size

    def test_sampler_exceeding_sup_rejected(self):
        with pytest.raises(ValueError):
            SampledMultiplier(lambda t: 2.0 * np.ones(np.shape(t)), 1.0, 9, 1.0)

    def test_scalar_sampler_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SampledMultiplier(lambda t: 0.5, 1.0, 9, 1.0)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            SampledMultiplier(exp_sampler, 1.0, 3, 1.0)


REPEATED_LAMS = (0.0, 0.3, 2.5, 0.3, 0.0, 7.0, 2.5, 0.3)
# Past the lams of the last two cases e^{-lam t} underflows to 0.0 before the grid ends.
SAMPLED_CASES = {
    "imaginary_power": (lambda: imaginary_power_preset(1.0, 8.0, 401), REPEATED_LAMS),
    "exp": (lambda: SampledMultiplier(exp_sampler, 4.0, 129, 1.0), REPEATED_LAMS),
    "imaginary_power_default": (lambda: imaginary_power_preset(1.0), (42.0, 129.0, 1e3, 42.0, 1e5)),
    "exp_513": (lambda: SampledMultiplier(exp_sampler, 4.0, 513, 1.0), (200.0, 1e3, 200.0, 1e4)),
}
CUT_CASES = ("imaginary_power_default", "exp_513")


class TestQuadratureReuse:
    @pytest.mark.parametrize("case", sorted(SAMPLED_CASES))
    @pytest.mark.parametrize("bound_first", [False, True])
    def test_bytes_match_fresh_quadrature(self, case, bound_first):
        # repeated lams reuse the symbol's own Simpson pairs; its two callables alternate
        make, lams = SAMPLED_CASES[case]
        symbol = symbol_of_sampled(make())
        reference = reference_symbol_of_sampled(make())
        calls = [("error_bound", np.float64), ("evaluator", np.complex128)]
        if not bound_first:
            calls.reverse()
        for lam in lams:
            for name, dtype in calls:
                got = dtype(getattr(symbol, name)(lam)).tobytes()
                assert got == dtype(getattr(reference, name)(lam)).tobytes(), (name, lam)

    @pytest.mark.parametrize("case", CUT_CASES)
    def test_dropped_terms_are_exact_zeros(self, case):
        make, lams = SAMPLED_CASES[case]
        t = make()._grid
        assert all(_nonzero_prefix(t, lam) < t.size for lam in lams)
        for lam in np.geomspace(1e-3, 1e7, 241):
            stop = _nonzero_prefix(t, float(lam))
            assert stop == t.size or stop % 512 == 0
            assert np.all(np.exp(-lam * t[stop:]) == 0.0), lam

    @pytest.mark.parametrize("case", CUT_CASES)
    def test_complex_weights_give_the_float_weight_pairs(self, case):
        # the pair the symbol keeps per lam, against products that cast float weights
        sampled = SAMPLED_CASES[case][0]()
        t, mv = sampled._grid, sampled._grid_values
        h = float(t[1] - t[0])
        w_full = _simpson_weights(t.size, h)
        w_half = _simpson_weights((t.size + 1) // 2, 2.0 * h)
        quadratures = inspect.getclosurevars(symbol_of_sampled(sampled).evaluator).nonlocals["_quadratures"]
        whole_grid = set()
        for lam in np.geomspace(_EXP_UNDERFLOW / sampled.truncation / 4.0, 1e4, 97).tolist():
            stop = _nonzero_prefix(t, lam)
            whole_grid.add(stop == t.size)
            g = mv[:stop] * np.exp(-lam * t[:stop])
            want = np.array([w_full[:stop] @ g, w_half[:(stop + 1) // 2] @ g[::2]])
            assert np.array(quadratures(lam)).tobytes() == want.tobytes(), lam
        assert whole_grid == {True, False}

    def test_full_grid_without_positive_lam(self):
        t = imaginary_power_preset(1.0)._grid
        for lam in (0.0, -1e-9, -5.0, math.nan):
            assert _nonzero_prefix(t, lam) == t.size


class TestApplyTm:
    def test_zero_symbol(self):
        space, gen = random_reversible_generator(3, 5)
        out = apply_Tm(decompose(gen), symbol_of_step(StepMultiplier([0.0, 1.0], [0.0])),
                       random_field(space, 0))
        assert np.abs(out.values).max() == 0.0

    def test_two_state_indicator(self, two_state):
        space, gen, a = two_state
        t = 0.9
        f = Field(space, [1.0, -1.0])
        out = apply_Tm(decompose(gen), symbol_of_step(StepMultiplier([0.0, t], [1.0])), f)
        scale = math.exp(-2 * a * t) - 1.0
        assert np.abs(out.values - scale * f.values).max() < 1e-12

    def test_constants_are_annihilated(self):
        space, gen = random_reversible_generator(6, 6)
        step = random_step_multiplier(1, 4)
        out = apply_Tm(decompose(gen), symbol_of_step(step), constant_field(space, 2.5))
        assert np.abs(out.values).max() < 1e-10

    def test_l2_bound(self):
        space, gen = random_reversible_generator(8, 9)
        dec = decompose(gen)
        for seed in range(20):
            step = random_step_multiplier(seed, 5)
            f = random_field(space, seed)
            out = apply_Tm(dec, symbol_of_step(step), f)
            assert lp_norm(out, 2.0) <= step.sup_norm * lp_norm(f, 2.0) * (1 + 1e-10)

    def test_linearity_in_multiplier(self):
        space, gen = random_reversible_generator(9, 6)
        dec = decompose(gen)
        f = random_field(space, 11)
        bp = np.array([0.0, 0.7, 1.9, 2.4])
        rng = np.random.default_rng(4)
        v1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a, b = 1.5 - 0.5j, -2.0j
        combined = apply_Tm(dec, symbol_of_step(StepMultiplier(bp, a * v1 + b * v2)), f)
        separate = a * apply_Tm(dec, symbol_of_step(StepMultiplier(bp, v1)), f) + b * apply_Tm(
            dec, symbol_of_step(StepMultiplier(bp, v2)), f
        )
        assert np.abs(combined.values - separate.values).max() < 1e-10


class TestTelescoping:
    def test_zero_multiplier(self):
        space, gen = random_reversible_generator(4, 5)
        out = telescoping_Tm(gen, StepMultiplier([0.0, 1.0], [0.0]), random_field(space, 1))
        assert np.abs(out.values).max() == 0.0

    def test_single_piece_is_heat_minus_identity(self):
        # M = 1_[0,t) telescopes to T^t f - f
        from lapmult import heat_operator

        space, gen = random_reversible_generator(5, 6)
        t = 1.1
        f = random_field(space, 2)
        out = telescoping_Tm(gen, StepMultiplier([0.0, t], [1.0]), f)
        expected = heat_operator(gen, t).entries @ f.values - f.values
        assert np.abs(out.values - expected).max() < 1e-12

    def test_matches_symbol_route(self):
        space, gen = random_reversible_generator(7, 6)
        dec = decompose(gen)
        step = random_step_multiplier(3, 4)
        f = random_field(space, 3)
        telescoped = telescoping_Tm(gen, step, f)
        spectral_route = apply_Tm(dec, symbol_of_step(step), f)
        scale = step.sup_norm * lp_norm(f, 2.0)
        assert lp_norm(telescoped - spectral_route, 2.0) <= 1e-10 * scale


    def test_expm_kernels_match_the_spectral_route_on_the_paper_family(self):
        # criterion 1 on the paper-suite step family, with telescoping_Tm's heat
        # kernels from scipy.linalg.expm: only the spectral route runs the
        # eigensolver, so the two routes share no numerical code
        for gen, step, f in step_instance_family(2024, 50, 16, 8):
            kernels = {t: scipy.linalg.expm(-t * gen.entries) for t in step.breakpoints}
            telescoped = np.zeros(gen.space.n, dtype=complex)
            for mi, t0, t1 in zip(step.values, step.breakpoints[:-1], step.breakpoints[1:]):
                telescoped += mi * (kernels[t1] @ f.values - kernels[t0] @ f.values)
            spectral_route = apply_Tm(decompose(gen), symbol_of_step(step), f)
            scale = max(step.sup_norm * lp_norm(f, 2.0), 1e-300)
            deviation = lp_norm(Field(f.space, telescoped) - spectral_route, 2.0)
            assert deviation <= 1e-10 * scale


class TestImaginaryPowers:
    def test_gamma_zero_is_identityish(self):
        preset = imaginary_power_preset(0.0, t_max=40.0, grid_size=4001)
        assert preset.sampler(np.array([0.5]))[0] == pytest.approx(-1.0)
        symbol = symbol_of_sampled(preset)
        for lam in (0.5, 1.0, 4.0):
            assert abs(symbol.evaluator(lam) - 1.0) <= symbol.error_bound(lam)
        assert symbol.evaluator(0.0) == 0.0

    def test_gamma_magnitude_validated(self):
        with pytest.raises(ValueError):
            imaginary_power_preset(11.0)

    def test_constant_modulus_matches_gamma_reflection(self):
        # |Gamma(1 - i g)|^2 = pi g / sinh(pi g)
        for g in (0.5, 1.0, 2.0):
            preset = imaginary_power_preset(g)
            expected = 1.0 / math.sqrt(math.pi * g / math.sinh(math.pi * g))
            assert preset.declared_sup == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_symbol_reproduces_imaginary_power(self, gamma):
        preset = imaginary_power_preset(gamma)
        symbol = symbol_of_sampled(preset)
        for lam in (0.5, 1.0, 2.0):
            target = np.exp(1j * gamma * math.log(lam))
            assert abs(symbol.evaluator(lam) - target) <= symbol.error_bound(lam)
            assert abs(abs(symbol.evaluator(lam)) - 1.0) <= symbol.error_bound(lam)


class TestComplexGamma:
    def test_matches_scipy_on_the_imaginary_power_line(self):
        z = 1.0 - 1j * np.linspace(-10.0, 10.0, 4001)
        got = np.array([_complex_gamma(complex(v)) for v in z])
        want = scipy_gamma(z)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_matches_scipy_on_the_right_half_plane(self):
        re, im = np.meshgrid(np.linspace(0.25, 14.0, 56), np.linspace(-10.0, 10.0, 81))
        z = (re + 1j * im).ravel()
        got = np.array([_complex_gamma(complex(v)) for v in z])
        want = scipy_gamma(z)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_matches_a_40_digit_gamma_within_the_documented_error(self):
        # mpmath.gamma shares no code with scipy; the README promises 1.3e-14
        with mpmath.workdps(40):
            for gamma in np.linspace(-10.0, 10.0, 401):
                want = complex(mpmath.gamma(mpmath.mpc(1.0, -gamma)))
                assert abs(_complex_gamma(complex(1.0, -gamma)) - want) <= 1.3e-14 * abs(want)

    def test_real_values(self):
        assert _complex_gamma(1 + 0j) == pytest.approx(1.0, rel=1e-15)
        assert _complex_gamma(5 + 0j) == pytest.approx(24.0, rel=1e-14)
        assert _complex_gamma(0.5 + 0j) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


class TestStepApproximation:
    def test_constant_sampler_is_exact(self):
        sampled = SampledMultiplier(lambda t: np.full(np.shape(t), 1.5), 2.0, 41, 1.5)
        for n in (1, 3, 8):
            step = approximate_by_steps(sampled, n)
            assert np.abs(step.values - 1.5).max() == 0.0

    def test_midpoint_values(self):
        sampled = SampledMultiplier(exp_sampler, 4.0, 41, 1.0)
        step = approximate_by_steps(sampled, 4)
        expected = [math.exp(-0.5), math.exp(-1.5), math.exp(-2.5), math.exp(-3.5)]
        assert np.abs(step.values - expected).max() < 1e-15

    def test_sup_norm_never_exceeds_declared(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            phases = rng.uniform(0, 2 * np.pi)
            sampled = SampledMultiplier(
                lambda t, ph=phases: np.sin(3.0 * np.asarray(t, float) + ph) + 0j, 5.0, 201, 1.0
            )
            for n in (2, 7, 30):
                assert approximate_by_steps(sampled, n).sup_norm <= 1.0 + 1e-12


class TestStepConvergence:
    def test_exponential_curve(self):
        space, gen = random_reversible_generator(7, 6)
        f = random_field(space, 5)
        sampled = SampledMultiplier(exp_sampler, 4.0, 513, 1.0)
        errors = step_convergence_check(gen, sampled, f, [4, 8, 16, 32, 64])
        # suite_step_convergence applies its pass rule (rel_tol 1e-2) to the same curve
        result = suite_step_convergence(gen, sampled, [4, 8, 16, 32, 64], field=f.values, rel_tol=1e-2)
        assert result.summary["errors"] == list(errors)
        assert result.passed
        assert result.summary["monotone_ok"]
        assert errors[-1] < errors[0]

    def test_aligned_step_gives_quadrature_error_only(self):
        # a constant sampler is exactly reproduced by every midpoint approximant,
        # so the errors sit at the flat quadrature floor instead of decaying
        space, gen = random_reversible_generator(8, 5)
        f = random_field(space, 6)
        sampled = SampledMultiplier(lambda t: np.full(np.shape(t), 1.0), 2.0, 129, 1.0)
        errors = step_convergence_check(gen, sampled, f, [2, 4, 8])
        assert max(errors) < 1e-6
        assert max(errors) <= min(errors) * 1.01

    def test_zero_sampler(self):
        space, gen = random_reversible_generator(9, 5)
        f = random_field(space, 7)
        sampled = SampledMultiplier(lambda t: np.zeros(np.shape(t)), 2.0, 65, 0.0)
        errors = step_convergence_check(gen, sampled, f, [2, 4])
        assert max(errors) < 1e-12


class TestEq4Bound:
    def test_symbol_bounded_by_sup_plus_error(self):
        space, gen = random_reversible_generator(10, 8)
        dec = decompose(gen)
        sampled = SampledMultiplier(exp_sampler, 30.0, 2001, 1.0)
        symbol = symbol_of_sampled(sampled)
        for lam in dec.eigenvalues:
            lam = float(lam)
            assert abs(symbol.evaluator(lam)) <= 1.0 + symbol.error_bound(lam) + 1e-12
