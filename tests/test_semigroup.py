import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from lapmult import (
    Field,
    MarkovKernel,
    ReversibleGenerator,
    WeightedSpace,
    constant_field,
    heat_operator,
    lp_norm,
    random_reversible_generator,
    verify_markov_conditions,
    weighted_inner,
)
from lapmult.suites import suite_markov_conditions

from conftest import random_field


def two_state_heat(a, t):
    """Closed-form 2x2 oracle for equal weights: e^{-tA} with A = [[a,-a],[-a,a]]."""
    e = math.exp(-2.0 * a * t)
    return np.array([[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]])


class TestGeneratorConstruction:
    def test_single_state_is_zero(self):
        space, gen = random_reversible_generator(0, 1)
        assert gen.entries.shape == (1, 1)
        assert gen.entries[0, 0] == 0.0

    def test_determinism(self):
        s1, g1 = random_reversible_generator(42, 5)
        s2, g2 = random_reversible_generator(42, 5)
        assert np.array_equal(s1.weights, s2.weights)
        assert np.array_equal(g1.entries, g2.entries)

    def test_rejects_zero_states(self):
        with pytest.raises(ValueError):
            random_reversible_generator(0, 0)

    def test_invariant_violations_raise(self):
        space = WeightedSpace([1.0, 1.0])
        with pytest.raises(ValueError):  # positive off-diagonal
            ReversibleGenerator(space, [[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):  # rows do not sum to zero
            ReversibleGenerator(space, [[1.0, -0.5], [-1.0, 1.0]])
        with pytest.raises(ValueError):  # detailed balance broken
            ReversibleGenerator(WeightedSpace([1.0, 3.0]), [[1.0, -1.0], [-1.0, 1.0]])

    def test_unit_mass_option(self):
        space, _ = random_reversible_generator(3, 6, unit_mass=True)
        assert space.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_seed42_satisfies_all_conditions(self):
        # the verifier is the oracle for the construction
        _, gen = random_reversible_generator(42, 5)
        violations = verify_markov_conditions(heat_operator(gen, 0.9))
        assert max(violations.values()) < 1e-10  # so the suite's rule, <= tol, passes too


class TestHeatOperator:
    def test_time_zero_is_identity(self):
        _, gen = random_reversible_generator(5, 4)
        kernel = heat_operator(gen, 0.0)
        assert np.abs(kernel.entries - np.eye(4)).max() < 1e-12

    def test_two_state_closed_form(self, two_state):
        _, gen, a = two_state
        for t in (0.1, 0.5, 2.0):
            kernel = heat_operator(gen, t)
            assert np.abs(kernel.entries - two_state_heat(a, t)).max() < 1e-13

    def test_semigroup_law(self):
        _, gen = random_reversible_generator(8, 7)
        for s, t in ((0.2, 0.5), (1.0, 0.01), (2.0, 3.0)):
            combined = heat_operator(gen, s).entries @ heat_operator(gen, t).entries
            direct = heat_operator(gen, s + t).entries
            assert np.abs(combined - direct).max() < 1e-10

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_matches_expm(self, n, scale):
        # expm (Pade scaling and squaring) never calls eigh, so the routes
        # share no numerical code.  Each is backward stable: eigh of the
        # symmetrized generator and expm of -tA each give an entrywise error
        # of about 2 n u max(1, ||tA||_1), the D^{-+1/2} weight conjugation
        # multiplies the first by at most sqrt(3), and the two errors add,
        # so 8 n u max(1, ||tA||_1) bounds the gap.  Over 3354 seeded (chain, t)
        # pairs (n <= 12, t <= 3, scales 1 and 1e4) the largest gap seen was
        # 2.8 n u max(1, ||tA||_1).  heat_operator's own guard allows the same
        # bound, so the stiff cases (scale 1e8, t = 30) build a kernel instead
        # of raising.
        u = np.finfo(float).eps
        for seed in range(5):
            _, gen = random_reversible_generator(seed, n, conductance_scale=scale)
            for t in (0.0, 0.01, 0.7, 2.0, 30.0):
                ta = t * gen.entries
                tol = 8 * n * u * max(1.0, np.linalg.norm(ta, 1))
                gap = np.abs(heat_operator(gen, t).entries - scipy.linalg.expm(-ta)).max()
                assert gap <= tol, (seed, t, gap, tol)

    @pytest.mark.parametrize("seed,n,t", [(0, 2, 0.5), (1, 3, 2.0), (2, 5, 0.3), (3, 6, 1.0), (4, 8, 3.0)])
    def test_matches_a_40_digit_expm(self, seed, n, t):
        # mpmath.expm at 40 digits shares no code with eigh or scipy and is
        # exact at double precision, so the gap is heat_operator's own error:
        # about 2 n u max(1, ||tA||_1) from eigh, times at most sqrt(3) from
        # the weight conjugation.  The largest gap on these cases is 0.25 of
        # n u max(1, ||tA||_1).
        _, gen = random_reversible_generator(seed, n)
        ta = t * gen.entries
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix((-ta).tolist())).tolist(), dtype=float)
        tol = 4 * n * np.finfo(float).eps * max(1.0, np.linalg.norm(ta, 1))
        assert np.abs(heat_operator(gen, t).entries - exact).max() <= tol

    def test_rejects_negative_time(self):
        _, gen = random_reversible_generator(5, 3)
        with pytest.raises(ValueError):
            heat_operator(gen, -0.1)


# The pass rule of suite_markov_conditions: no violation above its default tol.
TOL = 1e-10


class TestVerifyConditions:
    def test_identity_kernel(self):
        space = WeightedSpace([0.4, 0.6, 1.0])
        violations = verify_markov_conditions(MarkovKernel(space, np.eye(3), step=0.0))
        assert set(violations) == {
            "positivity_violation", "conservation_violation", "symmetry_violation",
            "contraction_violation_p1", "contraction_violation_pinf",
        }
        assert max(violations.values()) == 0.0

    def test_heat_kernels_pass(self):
        for seed in range(5):
            _, gen = random_reversible_generator(seed, 6)
            violations = verify_markov_conditions(heat_operator(gen, 0.7))
            assert max(violations.values()) <= TOL

    def test_non_detailed_balance_kernel_reported(self):
        # equal weights: defect |dx_0 Q_01 - dx_1 Q_10| = |0.1 - 0.5| = 0.4
        space = WeightedSpace([1.0, 1.0])
        kernel = MarkovKernel(space, [[0.9, 0.1], [0.5, 0.5]], step=1.0)
        violations = verify_markov_conditions(kernel)
        assert violations["symmetry_violation"] == pytest.approx(0.4, abs=1e-14)
        assert max(violations.values()) > TOL
        assert violations["positivity_violation"] == 0.0
        assert violations["conservation_violation"] < 1e-15

    def test_note_mentions_interpolation(self):
        _, gen = random_reversible_generator(0, 1)
        assert "interpolation" in suite_markov_conditions(gen).summary["note"]


class TestSemigroupProperties:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_contraction_on_probes(self, p):
        space, gen = random_reversible_generator(21, 8)
        kernel = heat_operator(gen, 0.6).entries
        for seed in range(200):
            f = random_field(space, seed)
            image = Field(space, kernel @ f.values)
            assert lp_norm(image, p) <= lp_norm(f, p) * (1 + 1e-10) + 1e-300

    def test_conservation(self):
        space, gen = random_reversible_generator(13, 6)
        kernel = heat_operator(gen, 1.3).entries
        ones = constant_field(space)
        assert np.abs(kernel @ ones.values - 1.0).max() < 1e-10

    def test_positivity_preserved(self):
        space, gen = random_reversible_generator(14, 6)
        kernel = heat_operator(gen, 0.8).entries
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.uniform(0.0, 3.0, space.n)
            assert (kernel @ f).min() > -1e-12

    def test_self_adjointness(self):
        space, gen = random_reversible_generator(15, 7)
        kernel = heat_operator(gen, 0.5).entries
        for seed in range(30):
            f = random_field(space, seed)
            g = random_field(space, 1000 + seed)
            tf = Field(space, kernel @ f.values)
            tg = Field(space, kernel @ g.values)
            assert weighted_inner(tf, g) == pytest.approx(weighted_inner(f, tg), abs=1e-10)
