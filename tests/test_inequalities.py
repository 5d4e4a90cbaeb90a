import math
import warnings

import numpy as np
import pytest

from lapmult import (
    DEFAULT_PATH_BUDGET,
    EnumerationBudgetError,
    ExactPaths,
    Field,
    SampledMultiplier,
    StepMultiplier,
    WeightedSpace,
    approximation_limit_check,
    constant_field,
    all_paths,
    decompose,
    heat_operator,
    llogl_chain_check,
    llogl_norm,
    lp_norm,
    martingale_transform,
    multiplier_operator,
    multiplier_pnorm_family_check,
    opnorm_exact,
    opnorm_lower_estimate,
    opnorm_upper_bound,
    path_measure,
    random_reversible_generator,
    reference_constant,
    reverse_martingale,
    transform_pnorm_check,
    transition_products,
)
from lapmult import dilation
from lapmult.dilation import PathFunctional, PathSpace
from lapmult.inequalities import UPPER_BOUND_MARGIN, CONTRACTION_TOL, make_report, pnorm_growth_fit
from lapmult.space import luxemburg_rows
from lapmult.suites import step_instance_family

from conftest import random_field, seed_square_and_maximal


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
            assert opnorm_exact(np.eye(3), space, p) == pytest.approx(1.0, abs=1e-12)

    def test_heat_operators_are_contractions(self):
        for seed in range(5):
            space, gen = random_reversible_generator(seed, 7)
            kernel = heat_operator(gen, 0.8).entries
            for p in (1.0, 2.0, math.inf):
                assert opnorm_exact(kernel, space, p) <= 1.0 + 1e-10

    def test_two_state_multiplier_norm(self, two_state):
        # eigenvalues {0, 2a} and m = e^{-t lam} - 1 give ||T_m||_2 = 1 - e^{-2at}
        space, gen, a = two_state
        t = 0.6
        op, _ = multiplier_operator(gen, StepMultiplier([0.0, t], [1.0]))
        expected = 1.0 - math.exp(-2 * a * t)
        assert opnorm_exact(op, space, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_unsupported_p(self):
        space = WeightedSpace([1.0, 1.0])
        with pytest.raises(ValueError):
            opnorm_exact(np.eye(2), space, 3.0)


class TestOpnormLowerEstimate:
    def test_identity_lower_bound(self):
        space = WeightedSpace([0.5, 1.0, 2.0])
        est = opnorm_lower_estimate(np.eye(3), space, 3.0, probes=8, ascent_steps=2, seed=0)
        assert est >= 1.0 - 1e-12

    def test_never_exceeds_exact_at_p2(self):
        for seed in range(5):
            space, gen = random_reversible_generator(seed, 6)
            kernel = heat_operator(gen, 0.5).entries
            exact = opnorm_exact(kernel, space, 2.0)
            low = opnorm_lower_estimate(kernel, space, 2.0, probes=64, ascent_steps=40, seed=1)
            assert low <= exact + 1e-9

    def test_converges_to_exact_at_p2(self):
        for seed in (3, 4):
            space, gen = random_reversible_generator(seed, 6)
            kernel = heat_operator(gen, 0.5).entries
            exact = opnorm_exact(kernel, space, 2.0)
            low = opnorm_lower_estimate(kernel, space, 2.0, probes=128, ascent_steps=60, seed=2)
            assert low == pytest.approx(exact, abs=1e-6)

    def test_monotone_in_ascent_steps(self):
        space, gen = random_reversible_generator(9, 7)
        op, _ = multiplier_operator(gen, StepMultiplier([0.0, 0.5, 1.5], [1.0, -1.0j]))
        values = [
            opnorm_lower_estimate(op, space, 2.7, probes=16, ascent_steps=k, seed=3)
            for k in (0, 1, 2, 5, 10, 20)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values[:-1], values[1:]))

    def test_monotone_in_probes(self):
        space, gen = random_reversible_generator(10, 6)
        op, _ = multiplier_operator(gen, StepMultiplier([0.0, 1.0, 2.0], [0.5, -1.2]))
        values = [
            opnorm_lower_estimate(op, space, 1.6, probes=m, ascent_steps=4, seed=4)
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


# The one-power-per-dual-map ascent with every pass it had before the
# shortcuts (masked powers throughout, powers and products at exponents 0 and
# 1, casting multiplies, np.where on every step, a transposed adjoint), kept
# verbatim: the library must return the same value bit for bit.
def _untrimmed_abs2(values):
    return values.real**2 + values.imag**2


def _untrimmed_power_on_support(a2, exponent):
    return np.power(a2, exponent, out=np.zeros_like(a2), where=a2 > 0.0)


def untrimmed_lower_estimate(op, space, p, probes=64, ascent_steps=20, seed=0):
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie strictly between 1 and inf")
    if probes < 1 or ascent_steps < 0:
        raise ValueError("need probes >= 1 and ascent_steps >= 0")
    t = np.asarray(op, dtype=complex)
    n = space.n
    if t.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}")
    w = space.weights
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((probes, 2, n))
    complex_probes = z[:, 0, :] + 1j * z[:, 1, :]
    fields = np.concatenate([complex_probes, np.abs(complex_probes)], axis=0).T
    q = p / (p - 1.0)
    adjoint = t.conj().T * w[None, :] / w[:, None]
    den = (w @ _untrimmed_abs2(fields) ** (0.5 * p)) ** (1.0 / p)

    best = 0.0
    for step in range(ascent_steps + 1):
        images = t @ fields
        a2 = _untrimmed_abs2(images)
        s = _untrimmed_power_on_support(a2, 0.5 * (p - 2.0))
        num = (w @ (s * a2)) ** (1.0 / p)
        live = den > 0.0
        if np.any(live):
            best = max(best, float((num[live] / den[live]).max()))
        if step == ascent_steps:
            break
        pullback = adjoint @ (s * images)
        g2 = _untrimmed_abs2(pullback)
        b = _untrimmed_power_on_support(g2, 0.5 * (q - 2.0))
        norms = (w @ (b * g2)) ** (1.0 / p)
        mantissa, exponent = np.frexp(norms)
        moved = norms > 0.0
        fields = np.where(moved, np.ldexp(b, -exponent) * pullback, fields)
        den = np.where(moved, mantissa, den)
    return best


# p = 2 raises to exponent 0 in both maps, a product with exact ones; p = 4
# skips the image power (exponent 1)
EXACT_P = (1.25, 1.5, 2.0, 3.0, 4.0)


def random_operator(seed, n, order):
    rng = np.random.default_rng([seed, n])
    space = WeightedSpace(rng.uniform(0.05, 4.0, n))
    op = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return space, (np.asfortranarray(op) if order == "F" else np.ascontiguousarray(op))


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
            got = opnorm_lower_estimate(op, space, p, probes=12, ascent_steps=25, seed=n)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), p

    def test_zero_operator(self):
        space = WeightedSpace([0.5, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ORACLE_P:
                assert opnorm_lower_estimate(np.zeros((3, 3)), space, p, probes=4, ascent_steps=3) == 0.0

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
                got = opnorm_lower_estimate(op, space, p, probes=6, ascent_steps=8, seed=1)
                assert math.isfinite(got) and got > 0.0
                want = reference_lower_estimate(op, space, p, 6, 8, 1)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), p

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_equal_to_untrimmed_ascent(self, n, order):
        for seed in range(3):
            space, op = random_operator(seed, n, order)
            assert op.flags[f"{order}_CONTIGUOUS"]
            for p in EXACT_P:
                want = untrimmed_lower_estimate(op, space, p, 10, 12, seed)
                got = opnorm_lower_estimate(op, space, p, probes=10, ascent_steps=12, seed=seed)
                assert got == want, (seed, p)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_exact_zero_row_and_column_take_the_masked_branch(self, order):
        space, op = random_operator(5, 5, order)
        op[1, :] = 0.0  # exact zeros in every image
        op[:, 3] = 0.0  # exact zeros in every pullback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in EXACT_P:
                want = untrimmed_lower_estimate(op, space, p, 6, 9, 2)
                got = opnorm_lower_estimate(op, space, p, probes=6, ascent_steps=9, seed=2)
                assert math.isfinite(got) and got > 0.0
                assert got == want, p

    def test_single_probe_without_ascent(self):
        for order in ("C", "F"):
            space, op = random_operator(7, 6, order)
            for p in EXACT_P:
                want = untrimmed_lower_estimate(op, space, p, probes=1, ascent_steps=0, seed=3)
                got = opnorm_lower_estimate(op, space, p, probes=1, ascent_steps=0, seed=3)
                assert got == want


# The single-chain check is the family check on a family of one.
class TestMultiplierPnormCheck:
    def test_zero_multiplier(self):
        space, gen = random_reversible_generator(2, 5)
        members = [(gen, StepMultiplier([0.0, 1.0], [0.0]))]
        rows = multiplier_pnorm_family_check(members, [1.5, 2.0, 3.0], probes=32, ascent_steps=5, seed=0)
        assert all(r.passed for r in rows)
        assert all(r.ratio == 0.0 for r in rows)

    def test_p2_has_paper_threshold_one(self):
        space, gen = random_reversible_generator(3, 6)
        members = [(gen, StepMultiplier([0.0, 0.7], [1.0]))]
        rows = multiplier_pnorm_family_check(members, [1.5, 2.0, 4.0], probes=64, ascent_steps=10, seed=1)
        by_name = {r.name: r for r in rows}
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
        rows = multiplier_pnorm_family_check([(gen, step)], [1.25, 1.5, 3.0, 4.0],
                                             probes=200, ascent_steps=20, seed=7)
        for report in rows:
            assert report.ratio <= report.threshold * (1 + 1e-9)

    def test_growth_fit_reported(self):
        space, gen = random_reversible_generator(8, 5)
        grid = [1.25, 1.5, 2.0]
        members = [(gen, StepMultiplier([0.0, 1.0], [1.0]))]
        rows = multiplier_pnorm_family_check(members, grid, probes=64, ascent_steps=10, seed=2)
        slope, intercept = pnorm_growth_fit((p, r.ratio) for p, r in zip(grid, rows))
        assert slope is not None
        assert intercept is not None

    @staticmethod
    def _p2_instance():
        space, gen = random_reversible_generator(9, 7)
        step = StepMultiplier([0.0, 0.4, 1.3], [1.0 - 0.5j, -0.8])
        return gen, step, multiplier_operator(gen, step)

    def test_p2_row_is_the_exact_norm(self):
        gen, step, (op, sup) = self._p2_instance()
        p2 = multiplier_pnorm_family_check([(gen, step)], [1.5, 2.0], probes=16, ascent_steps=4, seed=3)[1]
        assert p2.lhs == opnorm_exact(op, gen.space, 2.0)
        assert p2.ratio == p2.lhs / sup
        assert p2.lhs >= opnorm_lower_estimate(op, gen.space, 2.0, probes=16, ascent_steps=4, seed=3)

    def test_requires_interior_p(self, counted_ascents):
        gen, step, _ = self._p2_instance()
        for p in (1.0, math.inf, 0.5, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="strictly between"):
                multiplier_pnorm_family_check([(gen, step)], [2.0, p], probes=8, ascent_steps=2, seed=0)
        assert counted_ascents == []

    def test_p2_row_runs_no_ascent(self, counted_ascents):
        # p = 2 takes the exact norm and a repeated p repeats its row
        gen, step, _ = self._p2_instance()
        grid = [1.25, 2.0, 3.0, 2, 1.25]
        rows = multiplier_pnorm_family_check([(gen, step)], grid, probes=8, ascent_steps=2, seed=0)
        assert [p for p, _ in counted_ascents] == [1.25, 3.0]
        assert rows[4].to_dict() == rows[0].to_dict()
        assert rows[3].to_dict() == rows[1].to_dict()


# The paper-suite preset's step family and its p != 2 grid.
def paper_suite_family():
    return [(gen, step) for gen, step, _ in step_instance_family(2024, 50, 16, 8)]


PAPER_SUITE_PS = (1.25, 1.5, 3.0, 4.0)


class TestOpnormUpperBound:
    def test_never_below_the_lower_estimate_on_the_paper_suite_family(self):
        for i, (gen, step) in enumerate(paper_suite_family()):
            op, _ = multiplier_operator(gen, step)
            for p in PAPER_SUITE_PS:
                lower = opnorm_lower_estimate(op, gen.space, p, probes=8, ascent_steps=4, seed=i)
                assert opnorm_upper_bound(op, gen.space, p) >= lower, (i, p)

    # On both analytic cases the ascent reaches the norm and its realized
    # ratio lands a few ulps above the unenlarged bound: the margin is needed.
    def test_markov_kernel_bound_is_one_with_the_margin(self):
        space, gen = random_reversible_generator(4, 6)
        kernel = heat_operator(gen, 0.7)
        for p in ORACLE_P:
            bound = opnorm_upper_bound(kernel.entries, space, p)
            assert bound == pytest.approx(1.0 + UPPER_BOUND_MARGIN, rel=1e-14, abs=0.0)
            assert bound >= opnorm_lower_estimate(kernel.entries, space, p, probes=8, ascent_steps=10)

    def test_multiple_of_identity_bound_is_its_modulus_with_the_margin(self):
        space, _ = random_reversible_generator(5, 6)
        op = (-1.5 + 2.0j) * np.eye(space.n)
        for p in ORACLE_P:
            bound = opnorm_upper_bound(op, space, p)
            assert bound == pytest.approx(2.5 * (1.0 + UPPER_BOUND_MARGIN), rel=1e-14, abs=0.0)
            assert bound >= opnorm_lower_estimate(op, space, p, probes=8, ascent_steps=2)

    def test_duality_on_the_paper_suite_family(self):
        # D T_m is symmetric, so T_m is its own weighted transpose: the
        # endpoint norms at 1 and inf agree, and so do the bounds at p and p'
        rounding = 64 * np.finfo(float).eps
        for gen, step in paper_suite_family():
            op, _ = multiplier_operator(gen, step)
            space = gen.space
            one, inf = opnorm_exact(op, space, 1.0), opnorm_exact(op, space, math.inf)
            assert one == pytest.approx(inf, rel=rounding, abs=0.0)
            for p in PAPER_SUITE_PS:
                dual = opnorm_upper_bound(op, space, p / (p - 1.0))
                assert opnorm_upper_bound(op, space, p) == pytest.approx(dual, rel=rounding, abs=0.0)

    def test_requires_interior_p(self):
        space = WeightedSpace([1.0, 1.0])
        for p in (1.0, math.inf, 0.5):
            with pytest.raises(ValueError):
                opnorm_upper_bound(np.eye(2), space, p)


def reference_family_rows(members, grid, probes, ascent_steps, seed):
    """Every member at every grid position, with no pruning and no reuse; the first of the largest ratios."""
    worst = []
    for p in map(float, grid):
        best = None
        for i, (gen, m) in enumerate(members):
            op, sup = multiplier_operator(gen, m)
            if p == 2.0:
                row = make_report("multiplier-pnorm p=2", opnorm_exact(op, gen.space, 2.0), sup, 1.0, "paper")
            else:
                value = opnorm_lower_estimate(op, gen.space, p, probes, ascent_steps, seed + i)
                row = make_report(f"multiplier-pnorm p={p:g}", value, sup, reference_constant(p), "reference-constant")
            if best is None or row.ratio > best.ratio:
                best = row
        worst.append(best.to_dict())
    return worst


class TestMultiplierPnormFamilyCheck:
    def test_rows_equal_the_check_on_every_member(self, counted_ascents):
        members = [(gen, step) for gen, step, _ in step_instance_family(31, 12, max_n=8, max_pieces=4)]
        grid = [1.5, 2.0, 3.0, 1.5, 4.0]
        want = reference_family_rows(members, grid, 8, 3, 5)
        counted_ascents.clear()
        rows = multiplier_pnorm_family_check(members, grid, probes=8, ascent_steps=3, seed=5)
        assert [r.to_dict() for r in rows] == want
        assert rows[3] is rows[0]
        assert {p for p, _ in counted_ascents} == {1.5, 3.0, 4.0}
        assert len(counted_ascents) < len(members) * 3

    def test_paper_suite_family_skips_ascents_and_keeps_rows(self, counted_ascents):
        members = paper_suite_family()
        grid = [1.25, 1.5, 2.0, 3.0, 4.0]
        want = reference_family_rows(members, grid, 8, 4, 99)
        counted_ascents.clear()
        rows = multiplier_pnorm_family_check(members, grid, probes=8, ascent_steps=4, seed=99)
        assert [r.to_dict() for r in rows] == want
        assert len(counted_ascents) < len(members) * len(PAPER_SUITE_PS)
        # each visited member runs at most one ascent per p
        assert len(set(counted_ascents)) == len(counted_ascents)

    def test_zero_sup_member_is_visited_and_gives_ratio_zero(self, counted_ascents):
        _, gen = random_reversible_generator(2, 5)
        zero = StepMultiplier([0.0, 1.0], [0.0])
        live = StepMultiplier([0.0, 0.3, 1.1], [1.0 - 0.5j, 0.25])
        grid = [1.5, 2.0, 3.0]
        multiplier_pnorm_family_check([(gen, live), (gen, zero)], grid, probes=8, ascent_steps=2, seed=0)
        assert {(1.5, 1), (3.0, 1)} <= set(counted_ascents)

        counted_ascents.clear()
        rows = multiplier_pnorm_family_check([(gen, zero)], grid, probes=8, ascent_steps=2, seed=0)
        assert counted_ascents == [(1.5, 0), (3.0, 0)]
        assert all(r.ratio == 0.0 and r.passed for r in rows)


class TestTransformPnormCheck:
    def test_zero_multipliers(self):
        space, gen, ps = unit_mass_path_space()
        ((row, excess),) = transform_pnorm_check(ps, np.zeros(ps.horizon), random_field(space, 0), [2.0])
        assert row.lhs == 0.0
        assert row.passed and excess <= CONTRACTION_TOL

    def test_unit_multipliers_telescoping_sanity(self):
        # S = f_N - f_0 forces ||S||_p <= 2 ||f||_p by triangle + contraction
        space, gen, ps = unit_mass_path_space(n=3, horizon=4)
        f = random_field(space, 1)
        ((row, excess),) = transform_pnorm_check(ps, np.ones(ps.horizon), f, [3.0])
        nu = ps.initial_law
        fnorm = float((nu @ np.abs(f.values) ** 3) ** (1 / 3))
        assert row.lhs <= 2.0 * fnorm * (1 + 1e-12)
        assert excess <= CONTRACTION_TOL

    def test_seed7_signs_p3(self):
        space, gen, ps = unit_mass_path_space(seed=7, n=4, horizon=5)
        rng = np.random.default_rng(5)
        signs = rng.choice([-1.0, 1.0], ps.horizon)
        ((row, excess),) = transform_pnorm_check(ps, signs, random_field(space, 2), [3.0])
        assert row.threshold == 2.0
        assert row.ratio <= 2.0
        assert excess <= 1e-10

    def test_ratio_invariant_under_field_scaling(self):
        space, gen, ps = unit_mass_path_space(n=3, horizon=3)
        f = random_field(space, 3)
        signs = np.array([1.0, -1.0, 1.0])
        r1 = transform_pnorm_check(ps, signs, f, [2.5])[0][0].ratio
        r2 = transform_pnorm_check(ps, signs, 7.5 * f, [2.5])[0][0].ratio
        assert r1 == pytest.approx(r2, rel=1e-12)


class TestLloglChainCheck:
    def test_constant_field(self):
        space, gen, ps = unit_mass_path_space()
        ((davis, square, maximal, end),) = llogl_chain_check(ps, [(np.ones(ps.horizon), constant_field(space, 2.0))])
        assert all(math.isfinite(r.ratio) for r in (davis, square, maximal, end))
        assert davis.name == "davis-step" and square.name == "square-vs-maximal"
        assert davis.lhs == pytest.approx(0.0, abs=1e-12)
        assert square.ratio == pytest.approx(0.0, abs=1e-12)

    def test_requires_unit_mass(self):
        space, gen = random_reversible_generator(3, 4)  # total mass well away from 1
        ps = PathSpace(heat_operator(gen, 0.4), 3)
        with pytest.raises(ValueError):
            llogl_chain_check(ps, [(np.ones(3), random_field(space, 0))])

    def test_square_function_pathwise_sanity(self):
        # every increment is at most 2 sup_i |f_i|, so the square function is
        # bounded by 2 sqrt(N) times the maximal function on every path
        space, gen, ps = unit_mass_path_space(n=3, horizon=4)
        levels = reverse_martingale(ps, random_field(space, 4))
        exact = ExactPaths(ps)
        lhs = exact.square(levels)
        rhs = 2.0 * math.sqrt(ps.horizon) * exact.maximal(levels)
        assert np.all(lhs <= rhs + 1e-12)

    def test_random_instance_all_finite(self):
        space, gen, ps = unit_mass_path_space(seed=12, n=4, horizon=4)
        rng = np.random.default_rng(8)
        (rows,) = llogl_chain_check(ps, [(rng.choice([-1.0, 1.0], 4), random_field(space, 5))])
        assert [r.name for r in rows] == ["davis-step", "square-vs-maximal", "maximal-vs-llogl", "end-to-end-llogl"]
        assert all(math.isfinite(r.ratio) for r in rows)
        for report in rows:
            assert report.provenance == "report-only"
            assert math.isinf(report.threshold)


# The single-field L log L chain, the single-p transform check, and the exact
# reductions and scalar Luxemburg bisection they used, kept verbatim as
# references (the square and maximal functions are the seed evaluators in
# conftest): the batched checks through ExactPaths must give the same reports
# bit for bit.
def single_path_lp_norm(ps, functional, p):
    paths = all_paths(ps)
    weights = path_measure(ps, paths)
    avals = np.abs(np.asarray(functional.evaluator(paths)))
    if not np.all(np.isfinite(avals)):
        raise ValueError("path functional returned non-finite values")
    if math.isinf(p):
        return float(avals[weights > 0.0].max(initial=0.0))
    return float((weights @ avals**p) ** (1.0 / p))


def single_hat_expectation(ps, functional):
    space = ps.kernel.space
    paths = all_paths(ps)
    weights = transition_products(ps, paths)
    svals = np.asarray(functional.evaluator(paths), dtype=complex)
    if not np.all(np.isfinite(svals)):
        raise ValueError("path functional returned non-finite values")
    contrib = weights * svals
    out = np.bincount(paths[:, 0], weights=contrib.real, minlength=space.n).astype(complex)
    out += 1j * np.bincount(paths[:, 0], weights=contrib.imag, minlength=space.n)
    return Field(space, out)


def _single_orlicz_integral(a, w, k):
    s = a / k
    return float((s * np.log(np.e + s)) @ w)


def single_llogl_norm(f):
    a = np.abs(f.values)
    w = f.space.weights
    l1 = float(a @ w)
    if l1 == 0.0:
        return 0.0
    lo = l1
    hi = l1
    while _single_orlicz_integral(a, w, hi) > 1.0:
        hi *= 2.0
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _single_orlicz_integral(a, w, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def single_transform_pnorm_check(ps, m_values, f, p):
    m = np.asarray(m_values, dtype=complex).ravel()
    sup = float(np.abs(m).max()) if m.size else 0.0
    if sup > 0.0:
        m = m / sup
    functional = martingale_transform(ps, m, f)
    lhs = single_path_lp_norm(ps, functional, p)
    law = ps.kernel.space.normalized()
    rhs = lp_norm(Field(law, f.values), p)
    report = make_report(
        f"transform-pnorm p={p:g}", lhs, rhs, reference_constant(p), "reference-constant"
    )
    conditioned = single_hat_expectation(ps, functional)
    c_lhs = lp_norm(Field(law, conditioned.values), p)
    if lhs > 0.0:
        excess = max(0.0, (c_lhs - lhs) / lhs)
    else:
        excess = 0.0 if c_lhs == 0.0 else math.inf
    return report, excess


def single_llogl_chain_check(ps, m_values, f):
    space = ps.kernel.space
    if abs(space.total_mass - 1.0) > 1e-9:
        raise ValueError("the L log L chain needs a unit-mass space")
    m = np.asarray(m_values, dtype=complex).ravel()
    sup = float(np.abs(m).max()) if m.size else 0.0
    if sup > 0.0:
        m = m / sup
    square_fn, maximal_fn = map(PathFunctional, seed_square_and_maximal(ps, reverse_martingale(ps, f)))
    transform = martingale_transform(ps, m, f)

    e_transform = single_path_lp_norm(ps, transform, 1.0)
    e_square = single_path_lp_norm(ps, square_fn, 1.0)
    e_maximal = single_path_lp_norm(ps, maximal_fn, 1.0)
    llogl = single_llogl_norm(f)
    conditioned = single_hat_expectation(ps, transform)
    end_lhs = lp_norm(conditioned, 1.0)

    inf = math.inf
    return (
        make_report("davis-step", e_transform, e_square, inf, "report-only"),
        make_report("square-vs-maximal", e_square, e_maximal, inf, "report-only"),
        make_report("maximal-vs-llogl", e_maximal, llogl, inf, "report-only"),
        make_report("end-to-end-llogl", end_lhs, llogl, inf, "report-only"),
    )


def oracle_batch(space, horizon, seed):
    """Signs with random complex fields, plus the edge cases each chain step must survive."""
    rng = np.random.default_rng([seed, space.n, horizon, 9])
    batch = [(rng.choice([-1.0, 1.0], horizon), random_field(space, 100 * seed + j)) for j in range(4)]
    batch += [
        (rng.choice([-1.0, 1.0], horizon), random_field(space, seed, real=True)),
        (np.ones(horizon), constant_field(space, 1.5 - 0.5j)),  # zero increments
        (np.zeros(horizon), random_field(space, seed + 1)),  # all-zero multiplier row
        (rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon), random_field(space, seed + 2)),
        (rng.choice([-1.0, 1.0], horizon), constant_field(space, 0.0)),
    ]
    return batch


ORACLE_SHAPES = [(n, horizon) for n in (2, 3, 5) for horizon in (1, 3, 5)]


class TestBatchedChecksOracle:
    @pytest.mark.parametrize("n,horizon", ORACLE_SHAPES)
    def test_llogl_chain_equals_single_field_checks(self, n, horizon):
        for seed in range(3):
            space, _, ps = unit_mass_path_space(seed=seed + 20, n=n, horizon=horizon)
            batch = oracle_batch(space, horizon, seed)
            results = llogl_chain_check(ps, batch)
            assert len(results) == len(batch)
            for (m_values, f), got in zip(batch, results):
                want = single_llogl_chain_check(ps, m_values, f)
                assert [r.to_dict() for r in got] == [r.to_dict() for r in want]

    @pytest.mark.parametrize("n,horizon", ORACLE_SHAPES)
    def test_transform_pnorm_equals_single_p_checks(self, n, horizon):
        grid = (1.25, 1.5, 2.0, 3.0, 4.0, 7.5)
        for seed in range(3):
            # a space of total mass far from one, as the suite's families have
            space, gen = random_reversible_generator(seed + 40, n)
            ps = PathSpace(heat_operator(gen, 0.4), horizon)
            for m_values, f in oracle_batch(space, horizon, seed):
                results = transform_pnorm_check(ps, m_values, f, grid)
                assert len(results) == len(grid)
                for p, (got_row, got_excess) in zip(grid, results):
                    want_row, want_excess = single_transform_pnorm_check(ps, m_values, f, p)
                    assert got_row.to_dict() == want_row.to_dict()
                    assert got_excess == want_excess

    def test_unit_mass_required_before_any_work(self):
        space, gen = random_reversible_generator(3, 4)
        ps = PathSpace(heat_operator(gen, 0.4), 3)
        with pytest.raises(ValueError, match="unit-mass"):
            llogl_chain_check(ps, [(np.ones(3), random_field(space, 0))])
        with pytest.raises(ValueError, match="unit-mass"):
            single_llogl_chain_check(ps, np.ones(3), random_field(space, 0))
        assert "_table" not in vars(ps)

    def test_empty_batch(self):
        _, _, ps = unit_mass_path_space(n=3, horizon=2)
        assert llogl_chain_check(ps, []) == ()
        assert transform_pnorm_check(ps, np.ones(2), random_field(ps.kernel.space, 0), []) == ()


class TestLuxemburgOracle:
    def test_rows_equal_scalar_bisection(self):
        for case in range(400):
            rng = np.random.default_rng([case, 5])
            n = int(rng.integers(1, 9))
            space = WeightedSpace(rng.uniform(0.01, 3.0, n))
            scale = 10.0 ** rng.uniform(-6, 6)
            fields = [Field(space, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
                      for _ in range(int(rng.integers(1, 6)))]
            if case % 7 == 0:
                fields.append(constant_field(space, 0.0))
            moduli = np.abs([f.values for f in fields])
            got = luxemburg_rows(moduli, space.weights).tolist()
            assert got == [single_llogl_norm(f) for f in fields]
            assert [llogl_norm(f) for f in fields] == got


class TestBatchedCheckBudget:
    def test_llogl_chain_budget_raised_before_any_field_is_read(self):
        # 4^11 paths exceed the default budget; the batch must not even be iterated
        _, _, ps = unit_mass_path_space(n=4, horizon=10)
        assert ps.path_count > DEFAULT_PATH_BUDGET

        def untouchable():
            raise AssertionError("per-field work before the budget check")
            yield

        with pytest.raises(EnumerationBudgetError):
            llogl_chain_check(ps, untouchable())
        assert "_table" not in vars(ps)

    def test_transform_pnorm_budget_raised_before_any_field_is_read(self, monkeypatch):
        space, _, ps = unit_mass_path_space(n=3, horizon=4)
        wrong_length = np.ones(ps.horizon + 1)  # would be rejected by per-field work
        monkeypatch.setattr(dilation, "DEFAULT_PATH_BUDGET", ps.path_count - 1)
        with pytest.raises(EnumerationBudgetError):
            transform_pnorm_check(ps, wrong_length, random_field(space, 0), [2.0])
        assert "_table" not in vars(ps)

    def test_batched_checks_cache_nothing_but_the_table(self):
        space, _, ps = unit_mass_path_space(n=3, horizon=4)
        transform_pnorm_check(ps, np.ones(ps.horizon), random_field(space, 1), [1.5, 3.0])
        llogl_chain_check(ps, [(np.ones(ps.horizon), random_field(space, 2))])
        assert set(vars(ps)) - {"kernel", "horizon"} == {"_table"}


class TestApproximationLimit:
    def test_exponential_limit(self):
        space, gen = random_reversible_generator(7, 6)
        sampled = SampledMultiplier(lambda t: np.exp(-np.asarray(t, float)), 4.0, 513, 1.0)
        rows = approximation_limit_check(gen, sampled, random_field(space, 6),
                                         [4, 8, 16, 32, 64], 2.0, tol=1e-2)
        assert all(r.passed for r in rows)
        assert [r.name for r in rows] == [f"approx-bound n={n}" for n in (4, 8, 16, 32, 64)] + ["limit-bound"]
        assert rows[-1].provenance == "paper"

    def test_constant_sampler_degenerate_chain(self):
        space, gen = random_reversible_generator(8, 5)
        sampled = SampledMultiplier(lambda t: np.full(np.shape(t), 1.0), 2.0, 129, 1.0)
        rows = approximation_limit_check(gen, sampled, random_field(space, 7),
                                         [2, 4, 8], 2.0, tol=1e-6)
        assert all(r.passed for r in rows)

    def test_zero_sampler(self):
        space, gen = random_reversible_generator(9, 5)
        sampled = SampledMultiplier(lambda t: np.zeros(np.shape(t)), 2.0, 65, 0.0)
        rows = approximation_limit_check(gen, sampled, random_field(space, 8),
                                         [2, 4], 2.0, tol=1e-10)
        assert all(r.passed for r in rows)
        assert all(r.lhs < 1e-12 for r in rows[:-1])
