import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from lapmult import (
    Field,
    WeightedSpace,
    constant_field,
    llogl_norm,
    lp_norm,
    weighted_inner,
)

from lapmult.space import _orlicz_integrals

from conftest import random_field

# ||f||_1 / ||f||_{L log L} over the seeded probability-space family below;
# frozen once, asserted stable.
FROZEN_L1_LLOGL_FAMILY_MAX = 0.7956812489082118


def probability_space(seed=0, n=5):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.5, n)
    return WeightedSpace(w / w.sum())


class TestConstruction:
    def test_rejects_bad_weights(self):
        for weights in ([], [0.0, 1.0], [-1.0, 1.0], [np.inf, 1.0], [np.nan]):
            with pytest.raises(ValueError):
                WeightedSpace(weights)

    def test_rejects_bad_fields(self):
        space = WeightedSpace([1.0, 2.0])
        with pytest.raises(ValueError):
            Field(space, [1.0])
        with pytest.raises(ValueError):
            Field(space, [np.nan, 0.0])
        with pytest.raises(ValueError):
            Field(space, [np.inf, 0.0])

    def test_values_are_immutable(self):
        f = constant_field(WeightedSpace([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            f.values[0] = 0.0

    def test_normalized(self):
        space = WeightedSpace([2.0, 6.0])
        assert space.normalized().total_mass == pytest.approx(1.0, abs=1e-15)


class TestLpNorm:
    def test_zero_field(self):
        assert lp_norm(constant_field(WeightedSpace([0.3, 0.7, 1.1]), 0.0), 2.0) == 0.0

    def test_constant_on_probability_space(self):
        space = WeightedSpace([0.2, 0.5, 0.3])
        assert lp_norm(constant_field(space), 3.0) == pytest.approx(1.0, rel=1e-14)

    def test_direct_sum(self):
        # (|1|^2 * 0.5 + |-1|^2 * 0.5)^(1/2) = 1
        f = Field(WeightedSpace([0.5, 0.5]), [1.0, -1.0])
        assert lp_norm(f, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_inf_norm(self):
        f = Field(WeightedSpace([0.1, 0.9]), [3.0, -4.0])
        assert lp_norm(f, math.inf) == 4.0

    def test_rejects_p_below_one(self):
        f = constant_field(WeightedSpace([1.0]))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinite_p(self, p):
        f = constant_field(WeightedSpace([1.0, 2.0]))
        with pytest.raises(ValueError, match="p must satisfy p >= 1"):
            lp_norm(f, p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_homogeneity_and_triangle(self, p):
        space = probability_space(3, 6)
        for seed in range(20):
            f = random_field(space, seed)
            g = random_field(space, 100 + seed)
            a = 2.3 - 1.1j
            assert lp_norm(a * f, p) == pytest.approx(abs(a) * lp_norm(f, p), rel=1e-12)
            assert lp_norm(f + g, p) <= (lp_norm(f, p) + lp_norm(g, p)) * (1 + 1e-12)

    def test_monotone_in_p_on_probability_spaces(self):
        space = probability_space(9, 7)
        grid = [1.0, 1.3, 2.0, 2.7, 4.0, 8.0, math.inf]
        for seed in range(20):
            f = random_field(space, seed)
            norms = [lp_norm(f, p) for p in grid]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(norms[:-1], norms[1:]))


@settings(max_examples=50, deadline=None)
@given(
    values=arrays(np.float64, (4,), elements=st.floats(-1e6, 1e6)),
    scale=st.floats(1e-3, 1e3),
)
def test_norm_homogeneity_hypothesis(values, scale):
    f = Field(WeightedSpace([0.1, 0.2, 0.3, 0.4]), values)
    assert lp_norm(scale * f, 2.0) == pytest.approx(scale * lp_norm(f, 2.0), rel=1e-12, abs=1e-12)


class TestWeightedInner:
    def test_zero(self):
        space = WeightedSpace([1.0, 1.0])
        assert weighted_inner(constant_field(space, 0.0), constant_field(space, 0.0)) == 0.0

    def test_constant_probability_space(self):
        space = probability_space(1, 4)
        assert weighted_inner(constant_field(space), constant_field(space)) == pytest.approx(1.0)

    def test_direct_sum(self):
        space = WeightedSpace([0.5, 0.5])
        f = Field(space, [1.0, -1.0])
        g = Field(space, [1.0, 1.0])
        assert weighted_inner(f, g) == 0.0

    def test_conjugate_symmetry_and_positivity(self):
        space = probability_space(5, 6)
        for seed in range(10):
            f = random_field(space, seed)
            g = random_field(space, 50 + seed)
            assert weighted_inner(f, g) == pytest.approx(np.conj(weighted_inner(g, f)), rel=1e-13)
            assert weighted_inner(f, f).real > 0
            assert abs(weighted_inner(f, f).imag) < 1e-14

    def test_matches_l2_norm(self):
        space = probability_space(8, 5)
        for seed in range(10):
            f = random_field(space, seed)
            assert weighted_inner(f, f).real == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-12)

    def test_mismatched_spaces(self):
        f = constant_field(WeightedSpace([1.0, 1.0]))
        g = constant_field(WeightedSpace([1.0, 2.0]))
        with pytest.raises(ValueError):
            weighted_inner(f, g)


class TestLloglNorm:
    def test_zero_field(self):
        assert llogl_norm(constant_field(WeightedSpace([0.4, 0.6]), 0.0)) == 0.0

    def test_constant_against_scalar_oracle(self):
        # independent oracle: solve (1/k) log(e + 1/k) = 1 for the scalar k
        oracle = brentq(lambda k: (1 / k) * np.log(np.e + 1 / k) - 1.0, 0.5, 4.0, xtol=1e-14)
        space = probability_space(2, 6)
        assert llogl_norm(constant_field(space)) == pytest.approx(oracle, rel=1e-9)

    def test_homogeneity_is_exact_under_doubling(self):
        space = probability_space(4, 8)
        for seed in range(10):
            f = random_field(space, seed)
            assert llogl_norm(2.0 * f) == pytest.approx(2.0 * llogl_norm(f), rel=1e-12)

    def test_monotone_in_modulus(self):
        space = probability_space(6, 5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.uniform(0.1, 2.0, space.n)
            b = a * rng.uniform(1.0, 2.0, space.n)
            assert llogl_norm(Field(space, a)) <= llogl_norm(Field(space, b)) * (1 + 1e-10)

    def test_l1_dominated_with_unit_constant(self):
        # Phi(s) >= s forces ||f||_1 <= ||f||_{L log L} on probability spaces
        worst = 0.0
        for i in range(200):
            rng = np.random.default_rng([12345, i])
            n = int(rng.integers(2, 12))
            w = rng.uniform(0.2, 1.5, n)
            space = WeightedSpace(w / w.sum())
            f = Field(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            worst = max(worst, lp_norm(f, 1.0) / llogl_norm(f))
        assert worst <= 1.0 + 1e-10
        assert worst == pytest.approx(FROZEN_L1_LLOGL_FAMILY_MAX, rel=1e-6)


class TestVecdotBits:
    """``luxemburg_rows`` sums each row through ``np.vecdot``, which must give the bits of ``row @ w``."""

    @pytest.mark.parametrize("rows", [1, 2, 20, 800])
    def test_vecdot_equals_row_dots(self, rows):
        for n in range(1, 17):
            rng = np.random.default_rng([rows, n])
            a = 10.0 ** rng.uniform(-6, 6, (rows, n))
            shared = rng.uniform(0.01, 3.0, n)
            per_row = rng.uniform(0.01, 3.0, (rows, n))
            assert np.vecdot(a, shared).tolist() == [row @ shared for row in a]
            assert np.vecdot(a, per_row).tolist() == [row @ w for row, w in zip(a, per_row)]
            # the bisection's shapes: a gathered subset of rows, weights broadcast and gathered
            subset = np.flatnonzero(rng.random(rows) < 0.5)
            assert (np.vecdot(a[subset], np.broadcast_to(shared, a.shape)[subset]).tolist()
                    == [a[r] @ shared for r in subset])

    def test_each_pass_sums_its_rows_as_row_dots(self):
        rng = np.random.default_rng(3)
        a = 10.0 ** rng.uniform(-6, 6, (800, 7))
        k = 10.0 ** rng.uniform(-3, 3, 800)
        for w in (rng.uniform(0.01, 3.0, 7), rng.uniform(0.01, 3.0, (800, 7))):
            weights = np.broadcast_to(w, a.shape)
            s = a / k[:, None]
            phi = s * np.log(np.e + s)
            assert _orlicz_integrals(a, weights, k).tolist() == [row @ wr for row, wr in zip(phi, weights)]
