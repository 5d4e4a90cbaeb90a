import functools
import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

from lapmult import (
    EnumerationBudgetError,
    ExactPaths,
    Field,
    MarkovKernel,
    PathSpace,
    WeightedSpace,
    all_paths,
    constant_field,
    dilate,
    dilation_identity_check,
    hat_expectation,
    heat_operator,
    lp_norm,
    martingale_transform,
    path_lp_norm,
    random_reversible_generator,
    reverse_martingale,
    transform_expectation_identity,
    transition_products,
)
from lapmult import dilation
from lapmult._keep import kept
from lapmult.dilation import (
    PathFunctional,
    _increment_tables,
    _sample_stratum,
    _stratum_counts,
    _transform_tables,
)
from lapmult.config import parse_config
from lapmult.inequalities import transform_pnorm_check
from lapmult.runner import report_json, run_config
from lapmult.suites import suite_mc_crosscheck

from conftest import random_field, seed_square_and_maximal


def make_path_space(seed=7, n=4, horizon=5, epsilon=0.8):
    space, gen = random_reversible_generator(seed, n)
    kernel = heat_operator(gen, epsilon / 2.0)
    return space, gen, PathSpace(kernel, horizon)


def two_state_flip_space(q, horizon):
    space = WeightedSpace([0.5, 0.5])
    kernel = MarkovKernel(space, [[1.0 - q, q], [q, 1.0 - q]], step=1.0)
    return space, PathSpace(kernel, horizon)


def brute_force_conditional(ps, evaluate_path):
    """Pure-Python oracle: E[S | x_0 = x] by nested-loop enumeration."""
    n = ps.n_states
    q = ps.kernel.entries
    out = np.zeros(n, dtype=complex)
    for start in range(n):
        for rest in itertools.product(range(n), repeat=ps.horizon):
            path = (start,) + rest
            weight = 1.0
            for a, b in zip(path[:-1], path[1:]):
                weight *= q[a, b]
            out[start] += weight * evaluate_path(path)
    return out


class TestPathSpace:
    def test_budget_guard(self, monkeypatch):
        _, _, ps = make_path_space(n=4, horizon=5)
        monkeypatch.setattr(dilation, "DEFAULT_PATH_BUDGET", 100)
        with pytest.raises(EnumerationBudgetError):
            all_paths(ps)
        with pytest.raises(EnumerationBudgetError):
            ExactPaths(ps)

    def test_horizon_limit(self):
        kernel = MarkovKernel(WeightedSpace([1.0]), [[1.0]], step=1.0)
        assert all_paths(PathSpace(kernel, dilation.MAX_TABLE_HORIZON)).shape == (1, 63)
        with pytest.raises(ValueError, match="horizon = 63 is past the path table's limit of 62"):
            all_paths(PathSpace(kernel, 63))

    def test_a_huge_horizon_is_refused_without_forming_the_path_count(self):
        # 2**(10**8 + 1) has about 3e7 digits: printing it would pass Python's
        # int-to-string limit, so the count must be stated as a power
        kernel = MarkovKernel(WeightedSpace([1.0, 1.0]), [[0.5, 0.5], [0.5, 0.5]], step=1.0)
        with pytest.raises(EnumerationBudgetError, match=r"give 2\*\*100000001 paths"):
            ExactPaths(PathSpace(kernel, 10**8))

    def test_installed_numpy_holds_the_table_axes(self):
        # the table's array has horizon + 2 axes; numpy 1 allows 32, numpy 2 allows 64
        assert np.empty((1,) * (dilation.MAX_TABLE_HORIZON + 2)).size == 1

    def test_path_measure_is_probability(self):
        _, _, ps = make_path_space()
        weights = ExactPaths(ps).measure
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_initial_law_is_marginal_of_pi0(self):
        _, _, ps = make_path_space(n=3, horizon=4)
        paths = all_paths(ps)
        marginal = np.bincount(paths[:, 0], weights=ExactPaths(ps).measure, minlength=3)
        assert np.abs(marginal - ps.initial_law).max() < 1e-12

    def test_negative_horizon_rejected(self):
        space = WeightedSpace([1.0])
        kernel = MarkovKernel(space, [[1.0]])
        with pytest.raises(ValueError):
            PathSpace(kernel, -1)

    @pytest.mark.parametrize("epsilon", [0.8, 1e-3, 3.0])
    def test_dilate_builds_the_half_step_heat_kernel(self, epsilon):
        space, gen = random_reversible_generator(7, 4)
        ps = dilate(gen, epsilon, 5)
        want = heat_operator(gen, epsilon / 2)
        assert ps.horizon == 5 and ps.kernel.space is space
        assert ps.kernel.step == want.step
        assert ps.kernel.entries.tobytes() == want.entries.tobytes()


def seed_level_fields(ps, f):
    """The level fields as first kept, one Field per level: g_0 = f, g_{k+1} = Q g_k."""
    q = ps.kernel.entries
    levels = [f]
    for _ in range(ps.horizon):
        levels.append(Field(f.space, q @ levels[-1].values))
    return tuple(levels)


class TestReverseMartingale:
    def test_level_zero_is_f(self):
        space, _, ps = make_path_space()
        f = random_field(space, 0)
        levels = reverse_martingale(ps, f)
        assert np.array_equal(levels[0], f.values)

    def test_two_state_flip_closed_form(self):
        # one kernel step sends (1, -1) to (1-2q)(1, -1)
        q = 0.3
        space, ps = two_state_flip_space(q, horizon=1)
        levels = reverse_martingale(ps, Field(space, [1.0, -1.0]))
        assert np.abs(levels[1] - (1 - 2 * q) * np.array([1, -1])).max() < 1e-14

    def test_constant_fixed_by_conservation(self):
        space, _, ps = make_path_space()
        levels = reverse_martingale(ps, constant_field(space, 2.0 + 1.0j))
        for level in levels:
            assert np.abs(level - (2.0 + 1.0j)).max() < 1e-12

    @pytest.mark.parametrize("n,horizon", [(1, 0), (2, 1), (5, 4)])
    def test_levels_are_one_read_only_array(self, n, horizon):
        space, _, ps = make_path_space(seed=n + horizon, n=n, horizon=horizon)
        f = random_field(space, n)
        levels = reverse_martingale(ps, f)
        assert levels.shape == (horizon + 1, n) and levels.dtype == complex
        assert not levels.flags.writeable
        assert np.array_equal(levels[0], f.values)
        assert np.array_equal(levels, np.vstack([lv.values for lv in seed_level_fields(ps, f)]))

    def test_martingale_property_two_routes(self):
        # route 1: algebra (Q g_k = g_{k+1}); route 2: path enumeration of the
        # conditional expectation given the suffix sigma-algebra
        space, _, ps = make_path_space(n=3, horizon=3)
        f = random_field(space, 1)
        levels = reverse_martingale(ps, f)
        q = ps.kernel.entries
        for k in range(ps.horizon):
            assert np.abs(q @ levels[k] - levels[k + 1]).max() < 1e-12

        paths = all_paths(ps)
        weights = ExactPaths(ps).measure
        k = 1
        values_k = levels[k][paths[:, k]]
        suffix_code = paths[:, k + 1]
        for extra in range(k + 2, ps.horizon + 1):
            suffix_code = suffix_code * ps.n_states + paths[:, extra]
        numerator = np.bincount(suffix_code, weights=weights * values_k.real) + 1j * np.bincount(
            suffix_code, weights=weights * values_k.imag
        )
        denominator = np.bincount(suffix_code, weights=weights)
        conditional = numerator / denominator
        # E[f_k | suffix] must be g_{k+1}(x_{k+1}): read the latter off any
        # representative path per suffix group
        representative = {}
        for idx, code in enumerate(suffix_code):
            representative.setdefault(int(code), idx)
        for code, idx in representative.items():
            expected = levels[k + 1][paths[idx, k + 1]]
            assert conditional[code] == pytest.approx(expected, abs=1e-12)


class TestHatExpectation:
    def test_function_of_initial_state_returned_exactly(self):
        space, _, ps = make_path_space(n=3, horizon=3)
        f = random_field(space, 2)
        functional = PathFunctional(lambda paths: f.values[paths[:, 0]])
        out = hat_expectation(ps, functional)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_exact_level_gives_kernel_power(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        f = random_field(space, 3)
        levels = reverse_martingale(ps, f)
        exact = ExactPaths(ps)
        q = ps.kernel.entries
        for k in range(ps.horizon + 1):
            out = exact.conditioned(exact.level(levels, k))
            expected = np.linalg.matrix_power(q, 2 * k) @ f.values
            assert np.abs(out - expected).max() < 1e-11

    def test_against_pure_python_enumeration(self):
        space, _, ps = make_path_space(n=3, horizon=2)
        f = random_field(space, 4)
        m_values = np.array([0.5 - 1.0j, -1.2])
        functional = martingale_transform(ps, m_values, f)
        fast = hat_expectation(ps, functional)
        levels = reverse_martingale(ps, f)
        exact = ExactPaths(ps)

        def evaluate_path(path):
            return sum(
                m_values[i] * (levels[i + 1][path[i + 1]] - levels[i][path[i]])
                for i in range(ps.horizon)
            )

        slow = brute_force_conditional(ps, evaluate_path)
        assert np.abs(fast.values - slow).max() < 1e-13
        assert np.abs(exact.conditioned(exact.transform(levels, m_values)) - slow).max() < 1e-13
        for k in range(ps.horizon + 1):
            by_loops = brute_force_conditional(ps, lambda path: levels[k][path[k]])
            assert np.abs(exact.conditioned(exact.level(levels, k)) - by_loops).max() < 1e-13

    def test_mc_agrees_with_exact(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        f = random_field(space, 5)
        functional = martingale_transform(ps, np.array([1.0, -1.0, 1.0, 1.0]), f)
        exact = hat_expectation(ps, functional)
        mc, stderr = hat_expectation(ps, functional, mode="mc", seed=11, samples=20000)
        assert np.all(np.abs(mc.values - exact.values) <= 4.0 * stderr)

    def test_mc_needs_seed_and_samples(self):
        space, _, ps = make_path_space()
        functional = PathFunctional(lambda paths: np.ones(len(paths)))
        with pytest.raises(ValueError):
            hat_expectation(ps, functional, mode="mc")


MC_REDUCTIONS = pytest.mark.parametrize(
    "reduce", [hat_expectation, functools.partial(path_lp_norm, p=2.0)],
    ids=["hat_expectation", "path_lp_norm"],
)


def mc_bytes(result):
    """The bytes of a Monte Carlo result: (Field, stderr array) or (estimate, stderr)."""
    estimate, stderr = result
    estimate = estimate.values if isinstance(estimate, Field) else np.float64(estimate)
    return estimate.tobytes() + np.asarray(stderr, dtype=float).tobytes()


class TestMonteCarloArguments:
    # the space keeps its last draw keyed by (seed, samples), so both must be
    # plain integers: a Generator or a float would make the key say less than the draw
    @MC_REDUCTIONS
    @pytest.mark.parametrize(
        "seed,samples",
        [(1, math.inf), (1, 2.5), (1, 2.0), (1, True), (True, 50), (2.0, 50),
         (np.random.default_rng(1), 50), (None, 50), (1, None), (1, 0), (1, -3)],
        ids=["inf", "2.5", "float-samples", "bool-samples", "bool-seed", "float-seed",
             "generator", "no-seed", "no-samples", "zero", "negative"],
    )
    def test_non_integer_arguments_rejected(self, reduce, seed, samples):
        _, _, ps = make_path_space(n=3, horizon=2)
        functional = PathFunctional(lambda paths: np.ones(len(paths)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integer seed and a positive integer sample count"):
                reduce(ps, functional, mode="mc", seed=seed, samples=samples)
        assert kept(ps) is None

    @MC_REDUCTIONS
    def test_numpy_integers_accepted(self, reduce):
        space, _, ps = make_path_space(n=3, horizon=2)
        functional = martingale_transform(ps, np.ones(ps.horizon), random_field(space, 4))
        want = reduce(PathSpace(ps.kernel, ps.horizon), functional, mode="mc", seed=5, samples=60)
        got = reduce(ps, functional, mode="mc", seed=np.int64(5), samples=np.int32(60))
        assert mc_bytes(got) == mc_bytes(want)

    # exact mode enumerates every path: a sample count or seed there would be
    # silently ignored
    @MC_REDUCTIONS
    @pytest.mark.parametrize("given", [{"seed": 1}, {"samples": 10**9}, {"seed": 1, "samples": 50}])
    def test_exact_mode_rejects_monte_carlo_arguments(self, reduce, given):
        _, _, ps = make_path_space(n=3, horizon=2)
        functional = PathFunctional(lambda paths: np.ones(len(paths)))
        with pytest.raises(ValueError, match="Monte Carlo mode only"):
            reduce(ps, functional, mode="exact", **given)
        assert kept(ps) is None
        reduce(ps, functional, mode="exact", seed=None, samples=None)


class TestNanExponent:
    # p < 1.0 is False for NaN, so every guard reads "not p >= 1.0"
    def test_path_norms_reject_nan(self):
        space, _, ps = make_path_space(n=3, horizon=2)
        functional = martingale_transform(ps, np.ones(ps.horizon), random_field(space, 3))
        exact = ExactPaths(ps)
        calls = [
            lambda p: path_lp_norm(ps, functional, p),
            lambda p: path_lp_norm(ps, functional, p, mode="mc", seed=1, samples=50),
            lambda p: exact.lp_norm(np.abs(functional.evaluator(all_paths(ps))), p),
        ]
        for call in calls:
            for p in (math.nan, -math.inf, 0.5):
                with pytest.raises(ValueError, match="p must satisfy p >= 1"):
                    call(p)


class TestSharedDraw:
    """A path space keeps its last stratified draw, so Monte Carlo calls with
    one (seed, samples) share the sample and still evaluate every stratum."""

    @staticmethod
    def _seen(ps, reduce, seed=5, samples=300):
        seen = []

        def record(paths):
            seen.append(paths)
            return np.ones(len(paths))

        reduce(ps, PathFunctional(record), mode="mc", seed=seed, samples=samples)
        return seen

    def test_same_pair_hands_over_the_same_read_only_arrays(self):
        _, _, ps = make_path_space(n=4, horizon=3)
        first = self._seen(ps, hat_expectation)
        second = self._seen(ps, functools.partial(path_lp_norm, p=2.0))
        assert len(first) == len(second) == ps.n_states
        for a, b in zip(first, second):
            assert a is b
            assert a.dtype == np.int32
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0

    @pytest.mark.parametrize("seed,samples", [(6, 300), (5, 301)])
    def test_new_pair_draws_anew_as_a_fresh_space(self, seed, samples):
        _, _, ps = make_path_space(n=4, horizon=3)
        old = self._seen(ps, hat_expectation)
        new = self._seen(ps, hat_expectation, seed=seed, samples=samples)
        fresh = self._seen(PathSpace(ps.kernel, ps.horizon), hat_expectation, seed=seed, samples=samples)
        # the key is the pair itself, even where 301 rounds to the same stratum counts
        for a, b, c in zip(old, new, fresh):
            assert a is not b
            assert np.array_equal(b, c)

    def test_space_holds_one_draw(self):
        _, _, ps = make_path_space(n=4, horizon=3)
        first = self._seen(ps, hat_expectation, seed=5)
        second = self._seen(ps, hat_expectation, seed=6)
        key, strata = kept(ps)
        assert key == (6, 300)
        assert [a is b for a, b in zip(strata, second)] == [True] * ps.n_states
        # the first draw was let go, so asking for it again draws it anew, equal
        again = self._seen(ps, hat_expectation, seed=5)
        for a, b in zip(first, again):
            assert a is not b
            assert np.array_equal(a, b)
        key, strata = kept(ps)
        assert key == (5, 300)
        assert [a is b for a, b in zip(strata, again)] == [True] * ps.n_states

    def test_space_holds_one_path_set(self):
        # the table and a draw replace each other; each comes back equal when asked for again
        _, _, ps = make_path_space(n=3, horizon=3)
        table = all_paths(ps)
        assert kept(ps) == (None, (table,))
        strata = ps._draw(5, 300)
        key, held = kept(ps)
        assert key == (5, 300)
        assert held is strata
        again = all_paths(ps)
        assert again is not table
        assert np.array_equal(again, table)
        assert kept(ps)[0] is None
        assert not again.flags.writeable
        for a, b in zip(ps._draw(5, 300), strata):
            assert a is not b
            assert np.array_equal(a, b)

    def test_order_of_calls_gives_the_same_bytes(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        functional = martingale_transform(ps, np.array([1.0, -1.0, 0.5j, 1.0]), random_field(space, 9))

        def hat(space_):
            return hat_expectation(space_, functional, mode="mc", seed=3, samples=2000)

        def norm(space_):
            return path_lp_norm(space_, functional, 2.0, mode="mc", seed=3, samples=2000)

        a, b = PathSpace(ps.kernel, ps.horizon), PathSpace(ps.kernel, ps.horizon)
        hat_a, norm_a = hat(a), norm(a)
        norm_b, hat_b = norm(b), hat(b)
        assert mc_bytes(hat_a) == mc_bytes(hat_b)
        assert mc_bytes(norm_a) == mc_bytes(norm_b)

    def test_crosscheck_samples_each_stratum_once(self, monkeypatch):
        drawn = []
        sample_stratum = dilation._sample_stratum

        def counting(ps, rng, count, start):
            drawn.append(start)
            return sample_stratum(ps, rng, count, start)

        monkeypatch.setattr(dilation, "_sample_stratum", counting)
        n = 4
        assert suite_mc_crosscheck(17, samples=2000, mc_seed=23, n=n, horizon=3).passed
        assert drawn == list(range(n))


class TestMonteCarloStandardError:
    # two samples u, v have sample variance (u - v)^2 / 2, so a two-sample
    # stratum's standard error of the mean is |u - v| / 2
    @staticmethod
    def _recorded(ps, functional):
        drawn = []

        def evaluator(paths):
            values = functional.evaluator(paths)
            drawn.append(values)
            return values

        return PathFunctional(evaluator), drawn

    def test_two_sample_strata(self):
        space, _, ps = make_path_space(n=4, horizon=3)
        assert list(_stratum_counts(ps, 1)) == [2, 2, 2, 2]
        functional = martingale_transform(ps, np.array([1.0, -0.5j, 2.0]), random_field(space, 2))

        recording, drawn = self._recorded(ps, functional)
        _, stderr = hat_expectation(ps, recording, mode="mc", seed=4, samples=1)
        for x, (u, v) in enumerate(drawn):
            assert u != v
            assert stderr[x] == pytest.approx(abs(u - v) / 2.0, rel=1e-12)

        recording, drawn = self._recorded(ps, functional)
        _, stderr = path_lp_norm(ps, recording, 2.0, mode="mc", seed=4, samples=1)
        nu = ps.initial_law
        moduli = [(abs(u) ** 2, abs(v) ** 2) for u, v in drawn]
        moment = sum(nu[x] * (u + v) / 2.0 for x, (u, v) in enumerate(moduli))
        variance = sum(nu[x] ** 2 * (u - v) ** 2 / 4.0 for x, (u, v) in enumerate(moduli))
        assert stderr == pytest.approx(0.5 * moment ** -0.5 * math.sqrt(variance), rel=1e-12)


class TestDilationIdentity:
    def test_level_zero_is_identity(self):
        space, gen, ps = make_path_space()
        f = random_field(space, 6)
        exact = ExactPaths(ps)
        out = exact.conditioned(exact.level(reverse_martingale(ps, f), 0))
        assert np.abs(out - f.values).max() < 1e-13
        assert max(dilation_identity_check(ps, f, generator=gen)) <= 1e-10

    def test_two_state_hand_enumeration(self):
        # k = 1, horizon 1: E[g_1(x_1) | x_0] enumerates 4 paths by hand
        q = 0.25
        space, ps = two_state_flip_space(q, horizon=1)
        f = Field(space, [2.0, -1.0])
        g1 = ps.kernel.entries @ f.values
        by_hand = np.array(
            [
                (1 - q) * g1[0] + q * g1[1],
                q * g1[0] + (1 - q) * g1[1],
            ]
        )
        exact = ExactPaths(ps)
        out = exact.conditioned(exact.level(reverse_martingale(ps, f), 1))
        assert np.abs(out - by_hand).max() < 1e-14
        dev_power, dev_heat = dilation_identity_check(ps, f)
        assert dev_power <= 1e-10 and dev_heat is None

    def test_seed7_full_depth(self):
        space, gen, ps = make_path_space(seed=7, n=4, horizon=3)
        f = random_field(space, 7)
        assert max(dilation_identity_check(ps, f, generator=gen)) <= 1e-12

    def test_level_out_of_range(self):
        # a negative level must not index the level array from the end
        space, _, ps = make_path_space()
        levels = reverse_martingale(ps, random_field(space, 0))
        exact = ExactPaths(ps)
        for k in (-1, ps.horizon + 1):
            with pytest.raises(ValueError):
                exact.level(levels, k)


def seed_dilation_identity_check(ps, f, k, generator=None):
    """The per-level check as first written; returns (kernel-power, heat) deviations."""
    if not 0 <= k <= ps.horizon:
        raise ValueError("level outside the horizon")
    g = reverse_martingale(ps, f)[k]
    conditioned = hat_expectation(ps, PathFunctional(lambda paths: g[paths[:, k]]))
    q2k = np.linalg.matrix_power(ps.kernel.entries, 2 * k) @ f.values
    dev_power = float(np.abs(conditioned.values - q2k).max())
    dev_heat = None
    if generator is not None:
        heated = heat_operator(generator, 2.0 * k * ps.kernel.step).entries @ f.values
        dev_heat = float(np.abs(conditioned.values - heated).max())
    return dev_power, dev_heat


class TestIdentityOracle:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("horizon", [0, 1, 4])
    @pytest.mark.parametrize("with_generator", [False, True])
    def test_all_levels_equal_max_of_per_level_checks(self, n, horizon, with_generator):
        for seed in range(3):
            space, gen, ps = make_path_space(seed=seed, n=n, horizon=horizon)
            f = random_field(space, seed + 30)
            generator = gen if with_generator else None
            per_level = [seed_dilation_identity_check(ps, f, k, generator) for k in range(horizon + 1)]
            want = (max(power for power, _ in per_level),
                    max(heat for _, heat in per_level) if with_generator else None)
            assert dilation_identity_check(ps, f, generator=generator) == want


class TestMartingaleTransform:
    def test_zero_multipliers(self):
        space, _, ps = make_path_space()
        functional = martingale_transform(ps, np.zeros(ps.horizon), random_field(space, 8))
        assert np.abs(functional.evaluator(all_paths(ps))).max() == 0.0

    def test_unit_multipliers_telescope(self):
        space, _, ps = make_path_space(n=3, horizon=4)
        f = random_field(space, 9)
        functional = martingale_transform(ps, np.ones(ps.horizon), f)
        levels = reverse_martingale(ps, f)
        paths = all_paths(ps)
        first = levels[0][paths[:, 0]]
        last = levels[-1][paths[:, -1]]
        assert np.abs(functional.evaluator(paths) - (last - first)).max() < 1e-12

    def test_two_state_hand_values(self):
        q = 0.4
        space, ps = two_state_flip_space(q, horizon=1)
        f = Field(space, [1.0, -1.0])
        m0 = 2.0 - 1.0j
        functional = martingale_transform(ps, [m0], f)
        g1 = (1 - 2 * q) * np.array([1.0, -1.0])
        paths = all_paths(ps)
        expected = m0 * (g1[paths[:, 1]] - f.values[paths[:, 0]])
        assert np.abs(functional.evaluator(paths) - expected).max() < 1e-14

    def test_length_mismatch_rejected(self):
        space, _, ps = make_path_space()
        f = random_field(space, 0)
        with pytest.raises(ValueError):
            martingale_transform(ps, np.ones(ps.horizon + 1), f)
        with pytest.raises(ValueError):
            ExactPaths(ps).transform(reverse_martingale(ps, f), np.ones(ps.horizon + 1))


class TestTransformIdentity:
    def test_zero_multipliers(self):
        space, gen, ps = make_path_space()
        devs = transform_expectation_identity(ps, np.zeros(ps.horizon), random_field(space, 1),
                                              generator=gen)
        assert max(devs) <= 1e-10

    def test_single_piece_gives_q2_minus_identity(self):
        space, _, ps = make_path_space(n=3, horizon=1)
        f = random_field(space, 2)
        functional = martingale_transform(ps, [1.0], f)
        out = hat_expectation(ps, functional)
        q = ps.kernel.entries
        expected = (q @ q - np.eye(3)) @ f.values
        assert np.abs(out.values - expected).max() < 1e-12

    def test_seed7_complex_multipliers(self):
        space, gen, ps = make_path_space(seed=7, n=4, horizon=5)
        rng = np.random.default_rng(10)
        m_values = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        dev_power, dev_tel = transform_expectation_identity(ps, m_values, random_field(space, 11),
                                                            generator=gen)
        assert dev_tel is not None
        assert max(dev_power, dev_tel) <= 1e-10


class TestPathNorms:
    def test_constant_functional(self):
        space, _, ps = make_path_space()
        functional = PathFunctional(lambda paths: np.full(len(paths), 2.0 - 1.0j))
        assert path_lp_norm(ps, functional, 3.0) == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)

    def test_initial_state_functional_matches_field_norm(self):
        space, _, ps = make_path_space(n=4, horizon=3)
        f = random_field(space, 12)
        functional = PathFunctional(lambda paths: f.values[paths[:, 0]])
        nu = ps.initial_law
        for p in (1.0, 2.0, 4.0):
            expected = float((nu @ np.abs(f.values) ** p) ** (1 / p))
            assert path_lp_norm(ps, functional, p) == pytest.approx(expected, rel=1e-12)

    def test_mc_agrees_with_exact(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        f = random_field(space, 13)
        functional = martingale_transform(ps, np.array([1.0, -1.0, 1.0, -1.0]), f)
        exact = path_lp_norm(ps, functional, 2.0)
        estimate, stderr = path_lp_norm(ps, functional, 2.0, mode="mc", seed=3, samples=20000)
        assert abs(estimate - exact) <= 4.0 * stderr

    def test_contraction_of_conditioning(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        nu = ps.initial_law
        for seed in range(10):
            f = random_field(space, seed)
            rng = np.random.default_rng(seed)
            functional = martingale_transform(ps, rng.choice([-1.0, 1.0], 4), f)
            conditioned = hat_expectation(ps, functional)
            for p in (1.0, 2.0, 4.0):
                lhs = float((nu @ np.abs(conditioned.values) ** p) ** (1 / p))
                assert lhs <= path_lp_norm(ps, functional, p) * (1 + 1e-10)


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("reduce", [hat_expectation, functools.partial(path_lp_norm, p=2.0)],
                         ids=["hat_expectation", "path_lp_norm"])
def test_non_finite_path_values_rejected(reduce, bad, mode):
    # every path from state 1 is bad; Monte Carlo samples every start state
    _, _, ps = make_path_space(n=3, horizon=2)
    functional = PathFunctional(lambda paths: np.where(paths[:, 0] == 1, bad, 1.0))
    sampling = {"seed": 1, "samples": 50} if mode == "mc" else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="path functional returned non-finite values"):
            reduce(ps, functional, mode=mode, **sampling)


class TestClosedFormL2:
    """A second route for exact path L^2 norms that enumerates nothing.

    Under the stationary law the reverse-martingale differences
    d_k = g_{k+1}(x_{k+1}) - g_k(x_k) are orthogonal, with
    E|d_k|^2 = ||g_k||^2 - ||g_{k+1}||^2 in L^2(nu), so
    ||sum_k M_k d_k||_2^2 = sum_k |M_k|^2 (||g_k||^2 - ||g_{k+1}||^2); with
    every M_k = 1 that is the square function's norm.  It checks the exact
    norm of a transform (``mc_crosscheck``'s ``exact_norm``), the p = 2 row of
    ``transform_pnorm_check`` and the square function's norm."""

    @staticmethod
    def closed_form(ps, levels, m_values):
        energy = np.abs(levels) ** 2 @ ps.initial_law
        return math.sqrt(float(np.abs(m_values) ** 2 @ (energy[:-1] - energy[1:])))

    @pytest.mark.parametrize("n,horizon", [(4, 6), (5, 5), (3, 9), (2, 1), (1, 3), (6, 4)])
    def test_transform_and_square_function_norms(self, n, horizon):
        space, _, ps = make_path_space(seed=5 * n + horizon, n=n, horizon=horizon)
        f = random_field(space, n + 2 * horizon)
        rng = np.random.default_rng([n, horizon, 2])
        m_values = rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        levels = reverse_martingale(ps, f)
        exact = ExactPaths(ps)
        (row, _), = transform_pnorm_check(ps, m_values, f, [2.0])
        unit = m_values / np.abs(m_values).max()
        routes = [
            (path_lp_norm(ps, martingale_transform(ps, m_values, f), 2.0), self.closed_form(ps, levels, m_values)),
            (row.lhs, self.closed_form(ps, levels, unit)),
            (exact.lp_norm(exact.square(levels), 2.0), self.closed_form(ps, levels, np.ones(horizon))),
        ]
        for enumerated, closed in routes:
            if closed == 0.0:  # one state: every difference is an exact zero
                assert enumerated == 0.0
            else:
                assert abs(enumerated - closed) <= 1e-13 * closed


class TestSquareAndMaximal:
    def test_constant_field(self):
        space, _, ps = make_path_space()
        levels = reverse_martingale(ps, constant_field(space, 3.0))
        exact = ExactPaths(ps)
        assert np.abs(exact.square(levels)).max() < 1e-12
        assert np.abs(exact.maximal(levels) - 3.0).max() < 1e-12

    def test_two_state_hand_evaluation(self):
        q = 0.2
        space, ps = two_state_flip_space(q, horizon=1)
        f = Field(space, [1.0, -1.0])
        levels = reverse_martingale(ps, f)
        exact = ExactPaths(ps)
        paths = all_paths(ps)
        g1 = (1 - 2 * q) * np.array([1.0, -1.0])
        sq_expected = np.abs(g1[paths[:, 1]] - f.values[paths[:, 0]])
        mx_expected = np.maximum(np.abs(f.values[paths[:, 0]]), np.abs(g1[paths[:, 1]]))
        assert np.abs(exact.square(levels) - sq_expected).max() < 1e-14
        assert np.abs(exact.maximal(levels) - mx_expected).max() < 1e-14

    def test_cauchy_schwarz_pathwise(self):
        # with all M_i = 1: |S| <= sqrt(N) * square function on every path
        space, _, ps = make_path_space(n=3, horizon=4)
        f = random_field(space, 14)
        exact = ExactPaths(ps)
        transform = martingale_transform(ps, np.ones(ps.horizon), f)
        lhs = np.abs(transform.evaluator(all_paths(ps)))
        rhs = math.sqrt(ps.horizon) * exact.square(reverse_martingale(ps, f))
        assert np.all(lhs <= rhs + 1e-12)


class TestExactPaths:
    def test_reductions_build_only_what_they_read(self, monkeypatch):
        # every exact reduction reads the conditional weights, which the
        # constructor folds; only an exact path_lp_norm builds and keeps the
        # path measure from them
        built = []

        class Recording(ExactPaths):
            def __init__(self, ps):
                super().__init__(ps)
                built.append(self)

        monkeypatch.setattr(dilation, "ExactPaths", Recording)
        space, _, ps = make_path_space(n=3, horizon=3)
        functional = martingale_transform(ps, np.ones(ps.horizon), random_field(space, 15))
        hat_expectation(ps, functional)
        path_lp_norm(ps, functional, 2.0)
        hat, norm = built
        assert_same_bits(hat.weights, transition_products(ps))
        assert kept(hat) is None
        key, measure = kept(norm)
        assert key is None
        assert norm.measure is measure
        assert_same_bits(measure, np.repeat(ps.initial_law, ps.n_states**ps.horizon) * norm.weights)


def mc_sampled_paths(ps, seed=5, samples=300):
    """The stratified Monte Carlo paths that hat_expectation feeds a functional, in order."""
    seen = []

    def record(paths):
        seen.append(paths.copy())
        return np.zeros(len(paths))

    hat_expectation(ps, PathFunctional(record), mode="mc", seed=seed, samples=samples)
    return seen


def reference_gather(paths, start, tables, ufunc):
    """start[x_0], then ufunc with tables[k][x_k, x_{k+1}] at each step, indexed by state pair."""
    acc = start[paths[:, 0]]
    for k, table in enumerate(tables):
        acc = ufunc(acc, table[paths[:, k], paths[:, k + 1]])
    return acc


def per_step_products(ps, paths):
    return reference_gather(paths, np.ones(ps.n_states), [ps.kernel.entries] * ps.horizon, np.multiply)


class TestPathTableCache:
    def test_one_read_only_table_per_path_space(self):
        _, _, ps = make_path_space(n=3, horizon=4)
        paths = all_paths(ps)
        assert all_paths(ps) is paths
        assert paths.dtype == np.int32
        assert not paths.flags.writeable
        steps = ps.horizon + 1
        expected = np.indices((ps.n_states,) * steps).reshape(steps, -1).T
        assert np.array_equal(paths, expected)
        with pytest.raises(ValueError):
            paths[0, 0] = 1

    def test_budget_checked_after_table_is_built(self, monkeypatch):
        _, _, ps = make_path_space(n=3, horizon=3)
        all_paths(ps)
        monkeypatch.setattr(dilation, "DEFAULT_PATH_BUDGET", ps.path_count - 1)
        with pytest.raises(EnumerationBudgetError):
            all_paths(ps)
        monkeypatch.setattr(dilation, "DEFAULT_PATH_BUDGET", ps.path_count)
        assert all_paths(ps).shape == (ps.path_count, ps.horizon + 1)

    def test_exact_weights_are_kept_step_products(self):
        _, _, ps = make_path_space(n=4, horizon=3)
        exact = ExactPaths(ps)
        weights = exact.weights
        assert exact.weights is weights
        assert np.array_equal(weights, per_step_products(ps, all_paths(ps)))

    @pytest.mark.parametrize("n,horizon", [(1, 0), (1, 5), (2, 1), (3, 4), (5, 3), (7, 2)])
    def test_table_is_the_int32_enumeration(self, n, horizon):
        _, _, ps = make_path_space(seed=n + horizon, n=n, horizon=horizon)
        paths = all_paths(ps)
        steps = horizon + 1
        expected = np.indices((n,) * steps).reshape(steps, -1).T
        assert paths.dtype == np.int32
        assert paths.shape == (n**steps, steps)
        assert np.array_equal(paths, expected)
        assert all(paths[:, k].flags.c_contiguous for k in range(steps))
        assert np.array_equal(transition_products(ps), per_step_products(ps, paths))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("horizon", [0, 1, 4])
    def test_block_sums_equal_bincount(self, n, horizon):
        _, _, ps = make_path_space(seed=n * horizon + 3, n=n, horizon=horizon)
        exact = ExactPaths(ps)
        paths = all_paths(ps)
        count = len(paths)
        rng = np.random.default_rng([n, horizon])
        table_weights = exact.weights
        signed_weights = rng.standard_normal(count) * (rng.random(count) < 0.7)
        signed_weights[rng.random(count) < 0.3] = -0.0
        random_values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        values = [
            random_values,
            np.where(rng.random(count) < 0.5, random_values, complex(-0.0, -0.0)),
            np.full(count, complex(-0.0, -0.0)),
            np.zeros(count, dtype=complex),
            rng.standard_normal(count),
        ]
        for weights in (table_weights, signed_weights, -np.abs(signed_weights)):
            exact.weights = weights
            for svals in values:
                got = exact.conditioned(svals)
                want = seed_exact_hat(paths, weights, svals, n)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_products_before_any_table_build_nothing(self):
        _, _, ps = make_path_space(n=3, horizon=2)
        table = all_paths(PathSpace(ps.kernel, ps.horizon))
        assert np.array_equal(transition_products(ps), per_step_products(ps, table))
        assert kept(ps) is None


def seed_exact_hat(paths, weights, values, n):
    # the per-state accumulation as first written, by bincount over the start column
    svals = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(svals)):
        raise ValueError("path functional returned non-finite values")
    contrib = weights * svals
    out = np.bincount(paths[:, 0], weights=contrib.real, minlength=n).astype(complex)
    out += 1j * np.bincount(paths[:, 0], weights=contrib.imag, minlength=n)
    return out


def seed_sample_stratum(ps, rng, count, start):
    # the sampler as first written, rebuilding the cumulative kernel per stratum
    q = ps.kernel.entries
    cum = np.cumsum(q, axis=1)
    cum[:, -1] = 1.0
    paths = np.empty((count, ps.horizon + 1), dtype=np.int32)
    paths[:, 0] = start
    for k in range(ps.horizon):
        u = rng.random(count)
        paths[:, k + 1] = (u[:, None] > cum[paths[:, k]]).sum(axis=1)
    return paths


def three_state_space_with_zeros(horizon):
    # rows with exact zeros, so cumulative entries tie with their neighbours
    space = WeightedSpace([1.0, 1.0, 1.0])
    kernel = MarkovKernel(space, [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], step=1.0)
    return space, PathSpace(kernel, horizon)


def assert_same_paths_as_seed_sampler(ps, seed=9, samples=400):
    rng = np.random.default_rng(seed)
    counts = _stratum_counts(ps, samples)
    expected = [seed_sample_stratum(ps, rng, counts[x], x) for x in range(ps.n_states)]
    seen = mc_sampled_paths(ps, seed=seed, samples=samples)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


class TestSamplerStream:
    @pytest.mark.parametrize(
        "n,horizon", [(1, 2), (1, 3), (3, 0), (4, 4), *itertools.product((1, 2, 5, 7), (0, 1, 6))]
    )
    def test_same_paths_as_seed_sampler(self, n, horizon):
        _, _, ps = make_path_space(seed=n + horizon, n=n, horizon=horizon)
        assert_same_paths_as_seed_sampler(ps)

    @pytest.mark.parametrize("horizon", [1, 6])
    @pytest.mark.parametrize(
        "make_space",
        [
            lambda h: two_state_flip_space(0.0, h),
            lambda h: two_state_flip_space(1.0, h),
            three_state_space_with_zeros,
        ],
        ids=["stay", "flip", "three-state-zeros"],
    )
    def test_kernels_with_zero_entries(self, make_space, horizon):
        _, ps = make_space(horizon)
        assert_same_paths_as_seed_sampler(ps)
        for paths in mc_sampled_paths(ps):
            assert np.all(per_step_products(ps, paths) > 0.0)

    def test_sampled_coordinates_are_contiguous(self):
        _, _, ps = make_path_space(n=4, horizon=3)
        rng = np.random.default_rng(0)
        paths = _sample_stratum(ps, rng, 50, 2)
        assert paths.shape == (50, 4)
        assert all(paths[:, k].flags.c_contiguous for k in range(4))

    def test_more_states_than_a_byte_counts(self):
        # 300 states need a 16-bit count: a heat kernel that mixes well sends
        # draws to states 256 and up, which an 8-bit count would wrap
        _, _, ps = make_path_space(seed=3, n=300, horizon=2)
        assert max(int(paths.max()) for paths in mc_sampled_paths(ps, seed=9, samples=400)) >= 256
        assert_same_paths_as_seed_sampler(ps)

    @pytest.mark.parametrize("horizon", [0, 3])
    def test_one_state_has_no_column_to_count(self, horizon):
        _, _, ps = make_path_space(n=1, horizon=horizon)
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        paths = _sample_stratum(ps, rng, 5, 0)
        twin.random((horizon, 5))
        assert paths.dtype == np.int32
        assert np.array_equal(paths, np.zeros((5, horizon + 1), dtype=np.int32))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("samples", [1, 8])
    def test_every_stratum_gets_two_samples(self, samples):
        _, _, ps = make_path_space(n=4, horizon=3)
        counts = _stratum_counts(ps, samples)
        assert counts.min() == 2
        assert [len(paths) for paths in mc_sampled_paths(ps, samples=samples)] == list(counts)


def test_path_mc_bytes_match_the_seed_sampler_and_fresh_folds(monkeypatch):
    # the path-mc workload's shape, cut down: the counting sampler and the
    # kept weights change no report byte
    config = parse_config({"schema": "lapmult-config-1", "suites": [
        {"check": "mc_crosscheck", "seed": 17 + i, "n": 4,
         "dilation": {"horizon": 6, "epsilon": 0.8, "mode": "mc", "samples": 20000, "seed": 23 + i}}
        for i in range(2)
    ]})
    library = report_json(run_config(config))
    monkeypatch.setattr(dilation, "_sample_stratum", seed_sample_stratum)
    monkeypatch.setattr(dilation, "transition_products", lambda ps: dilation._fold(
        np.ones(ps.n_states), [ps.kernel.entries] * ps.horizon, np.multiply))
    assert report_json(run_config(config)) == library


# The path functionals as first written, one gather per level and step (the
# square and maximal functions are in conftest); the table-gather evaluators
# must agree with them bit for bit.

def seed_transform(ps, m_values, f):
    m = np.asarray(m_values, dtype=complex).ravel()
    levels = reverse_martingale(ps, f)

    def evaluator(paths):
        out = np.zeros(len(paths), dtype=complex)
        for i in range(ps.horizon):
            out += m[i] * (levels[i + 1][paths[:, i + 1]] - levels[i][paths[:, i]])
        return out

    return evaluator


class TestEvaluatorOracle:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("horizon", [0, 1, 4])
    @pytest.mark.parametrize("real_field", [False, True])
    def test_gathers_match_seed_evaluators(self, n, horizon, real_field):
        space, _, ps = make_path_space(seed=10 * n + horizon, n=n, horizon=horizon)
        f = random_field(space, n + horizon, real=real_field)
        rng = np.random.default_rng(n * horizon)
        m_values = rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        levels = reverse_martingale(ps, f)
        transform = seed_transform(ps, m_values, f)
        square, maximal = seed_square_and_maximal(ps, levels)
        exact = ExactPaths(ps)
        table = all_paths(ps)
        pairs = [
            (exact.transform(levels, m_values), transform(table)),
            (exact.square(levels), square(table)),
            (exact.maximal(levels), maximal(table)),
            *((exact.level(levels, k), levels[k][table[:, k]]) for k in range(horizon + 1)),
        ]
        # Monte Carlo evaluates the transform alone, on the sampled paths
        sampled = martingale_transform(ps, m_values, f).evaluator
        for paths in [table, *mc_sampled_paths(ps, seed=horizon, samples=200)]:
            pairs.append((sampled(paths), transform(paths)))
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


class TestFoldMatchesGathers:
    """The exact route folds per-step tables without a path array, and the
    transform's one per-step rule folds on the cached table and gathers on any
    other path array; every route must keep the bits of a per-path gather."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("horizon", [0, 1, 2, 6])
    @pytest.mark.parametrize("real_field", [False, True])
    def test_fold_equals_gather_route(self, n, horizon, real_field):
        space, _, ps = make_path_space(seed=3 * n + horizon, n=n, horizon=horizon)
        f = random_field(space, 7 * n + horizon, real=real_field)
        rng = np.random.default_rng([n, horizon])
        m_values = rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        levels = reverse_martingale(ps, f)
        exact = ExactPaths(ps)
        table = all_paths(ps)
        zeros = np.zeros(n, dtype=complex)
        transform_tables = _transform_tables(_increment_tables(levels), m_values)
        squares = [np.abs(increment) ** 2 for increment in _increment_tables(levels)]
        _, maximal = seed_square_and_maximal(ps, levels)

        assert_same_bits(exact.transform(levels, m_values),
                         reference_gather(table, zeros, transform_tables, np.add))
        assert_same_bits(exact.square(levels), np.sqrt(reference_gather(table, np.zeros(n), squares, np.add)))
        assert_same_bits(exact.maximal(levels), maximal(table))
        per_step = per_step_products(ps, table)
        assert_same_bits(exact.weights, per_step)
        assert_same_bits(exact.measure, ps.initial_law[table[:, 0]] * per_step)
        for k in range(horizon + 1):
            assert_same_bits(exact.level(levels, k), levels[k][table[:, k]])

        # the transform folds on the kept table and gathers on a copy or a sample
        evaluator = martingale_transform(ps, m_values, f).evaluator
        assert kept(ps)[0] is None
        for paths in [table, table.copy(), *mc_sampled_paths(ps, seed=n + horizon)]:
            assert_same_bits(evaluator(paths), reference_gather(paths, zeros, transform_tables, np.add))


class TestKeptValues:
    """A transform's evaluator keeps its values on its space's path set, the
    table or the strata of the current draw, so each path set is evaluated
    once; any other array is evaluated afresh."""

    @staticmethod
    def _transform(n=3, horizon=3):
        space, _, ps = make_path_space(seed=4 * n + horizon, n=n, horizon=horizon)
        rng = np.random.default_rng([n, horizon, 1])
        m_values = rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        f = random_field(space, n + horizon)
        return ps, (m_values, f), martingale_transform(ps, m_values, f).evaluator

    @staticmethod
    def _counted(monkeypatch, name="_along_paths"):
        """The arguments of each call of the dilation function ``name`` while the test runs."""
        seen = []
        original = getattr(dilation, name)

        def counting(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(dilation, name, counting)
        return seen

    @pytest.mark.parametrize("n,horizon", [(1, 2), (2, 0), (3, 3), (4, 4)])
    def test_kept_values_have_the_bits_of_a_fresh_transform(self, n, horizon):
        # one path set at a time: the table, then a draw, which replaces it
        ps, args, evaluator = self._transform(n, horizon)
        for path_set in [lambda: (all_paths(ps),), lambda: ps._draw(5, 300)]:
            for paths in path_set():
                values = evaluator(paths)
                assert evaluator(paths) is values
                assert_same_bits(values, martingale_transform(ps, *args).evaluator(paths))
                assert_same_bits(values, martingale_transform(ps, *args).evaluator(paths.copy()))

    def test_the_key_tells_a_stratum_from_the_table(self):
        # with two states and horizon 1, a stratum of four paths has the table's shape
        space, ps = two_state_flip_space(0.3, horizon=1)
        args = (np.array([1.0 - 2.0j]), random_field(space, 8))
        evaluator = martingale_transform(ps, *args).evaluator
        table_values = evaluator(all_paths(ps))
        strata = ps._draw(1, 8)
        assert strata[0].shape == all_paths(PathSpace(ps.kernel, ps.horizon)).shape
        assert not np.array_equal(strata[0], all_paths(PathSpace(ps.kernel, ps.horizon)))
        got = evaluator(strata[0])
        assert_same_bits(got, martingale_transform(ps, *args).evaluator(strata[0].copy()))
        assert not np.array_equal(got, table_values)

    def test_each_path_array_is_evaluated_once_across_both_reductions(self, monkeypatch):
        ps, _, evaluator = self._transform(n=2, horizon=4)
        calls = []

        def counting_evaluator(paths):
            calls.append(paths)
            return evaluator(paths)

        functional = PathFunctional(counting_evaluator)
        builds = self._counted(monkeypatch, "_along_path_set")
        gathers = self._counted(monkeypatch)
        hat_expectation(ps, functional)
        path_lp_norm(ps, functional, 2.0)
        hat_expectation(ps, functional, mode="mc", seed=3, samples=500)
        path_lp_norm(ps, functional, 2.0, mode="mc", seed=3, samples=500)
        assert len(calls) == 6
        # the table folds, with no gather; the draw gathers each stratum once
        assert [key for _, key, _, _ in builds] == [None, (3, 500)]
        strata = ps._draw(3, 500)
        assert len(gathers) == len(strata)
        assert all(args[1] is stratum for args, stratum in zip(gathers, strata))

    def test_other_arrays_are_evaluated_afresh(self, monkeypatch):
        ps, args, evaluator = self._transform()
        table = all_paths(ps)
        kept = [evaluator(table)]
        old = ps._draw(5, 300)  # the draw replaces the table
        kept.append(evaluator(old[0]))
        ps._draw(6, 300)  # another pair replaces the draw
        others = [table.copy(), all_paths(PathSpace(ps.kernel, ps.horizon)), old[0]]
        want = [martingale_transform(ps, *args).evaluator(paths.copy()) for paths in others]
        seen = self._counted(monkeypatch)
        for paths, values in zip(others, want):
            for _ in range(2):
                got = evaluator(paths)
                assert not any(got is k for k in kept)
                assert_same_bits(got, values)
        expected = [paths for paths in others for _ in range(2)]
        assert len(seen) == len(expected)
        assert all(call[1] is b for call, b in zip(seen, expected))

    def test_kept_arrays_are_read_only(self):
        ps, _, evaluator = self._transform()
        for path_set in [lambda: (all_paths(ps),), lambda: ps._draw(5, 300)]:
            for paths in [*path_set(), path_set()[0].copy()]:
                values = evaluator(paths)
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 0.0

    def test_one_path_set_is_held_at_a_time(self):
        ps, _, evaluator = self._transform()
        table_values = weakref.ref(evaluator(all_paths(ps)))
        gc.collect()
        assert table_values() is not None
        strata = ps._draw(5, 300)
        stratum_values = weakref.ref(evaluator(strata[0]))
        gc.collect()
        assert table_values() is None
        assert stratum_values() is not None
        evaluator(all_paths(ps))
        gc.collect()
        assert stratum_values() is None
