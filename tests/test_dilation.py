import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from lapmult import (
    EnumerationBudgetError,
    Field,
    MarkovKernel,
    PathSpace,
    WeightedSpace,
    all_paths,
    constant_field,
    dilation_identity_check,
    hat_expectation,
    heat_operator,
    level_functional,
    lp_norm,
    martingale_transform,
    path_lp_norm,
    path_measure,
    random_reversible_generator,
    reverse_martingale,
    square_and_maximal,
    transform_expectation_identity,
    transition_products,
)
from lapmult.dilation import PathFunctional, _sample_stratum, _stratum_counts

from conftest import random_field


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
    def test_budget_guard(self):
        _, _, ps = make_path_space(n=4, horizon=5)
        with pytest.raises(EnumerationBudgetError):
            all_paths(ps, budget=100)

    def test_path_measure_is_probability(self):
        _, _, ps = make_path_space()
        weights = path_measure(ps, all_paths(ps))
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_initial_law_is_marginal_of_pi0(self):
        _, _, ps = make_path_space(n=3, horizon=4)
        paths = all_paths(ps)
        marginal = np.bincount(paths[:, 0], weights=path_measure(ps, paths), minlength=3)
        assert np.abs(marginal - ps.initial_law).max() < 1e-12

    def test_negative_horizon_rejected(self):
        space = WeightedSpace([1.0])
        kernel = MarkovKernel(space, [[1.0]])
        with pytest.raises(ValueError):
            PathSpace(kernel, -1)


class TestReverseMartingale:
    def test_level_zero_is_f(self):
        space, _, ps = make_path_space()
        f = random_field(space, 0)
        family = reverse_martingale(ps, f)
        assert np.array_equal(family.levels[0].values, f.values)

    def test_two_state_flip_closed_form(self):
        # one kernel step sends (1, -1) to (1-2q)(1, -1)
        q = 0.3
        space, ps = two_state_flip_space(q, horizon=1)
        family = reverse_martingale(ps, Field(space, [1.0, -1.0]))
        assert np.abs(family.levels[1].values - (1 - 2 * q) * np.array([1, -1])).max() < 1e-14

    def test_constant_fixed_by_conservation(self):
        space, _, ps = make_path_space()
        family = reverse_martingale(ps, constant_field(space, 2.0 + 1.0j))
        for level in family.levels:
            assert np.abs(level.values - (2.0 + 1.0j)).max() < 1e-12

    def test_martingale_property_two_routes(self):
        # route 1: algebra (Q g_k = g_{k+1}); route 2: path enumeration of the
        # conditional expectation given the suffix sigma-algebra
        space, _, ps = make_path_space(n=3, horizon=3)
        f = random_field(space, 1)
        family = reverse_martingale(ps, f)
        q = ps.kernel.entries
        for k in range(ps.horizon):
            assert np.abs(q @ family.levels[k].values - family.levels[k + 1].values).max() < 1e-12

        paths = all_paths(ps)
        weights = path_measure(ps, paths)
        k = 1
        values_k = family.levels[k].values[paths[:, k]]
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
            expected = family.levels[k + 1].values[paths[idx, k + 1]]
            assert conditional[code] == pytest.approx(expected, abs=1e-12)


class TestHatExpectation:
    def test_function_of_initial_state_returned_exactly(self):
        space, _, ps = make_path_space(n=3, horizon=3)
        f = random_field(space, 2)
        functional = PathFunctional(lambda paths: f.values[paths[:, 0]])
        out = hat_expectation(ps, functional)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_level_functional_gives_kernel_power(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        f = random_field(space, 3)
        family = reverse_martingale(ps, f)
        q = ps.kernel.entries
        for k in range(ps.horizon + 1):
            out = hat_expectation(ps, level_functional(family, k))
            expected = np.linalg.matrix_power(q, 2 * k) @ f.values
            assert np.abs(out.values - expected).max() < 1e-11

    def test_against_pure_python_enumeration(self):
        space, _, ps = make_path_space(n=3, horizon=2)
        f = random_field(space, 4)
        m_values = np.array([0.5 - 1.0j, -1.2])
        functional = martingale_transform(ps, m_values, f)
        fast = hat_expectation(ps, functional)
        family = reverse_martingale(ps, f)
        levels = [lv.values for lv in family.levels]

        def evaluate_path(path):
            return sum(
                m_values[i] * (levels[i + 1][path[i + 1]] - levels[i][path[i]])
                for i in range(ps.horizon)
            )

        slow = brute_force_conditional(ps, evaluate_path)
        assert np.abs(fast.values - slow).max() < 1e-13

    def test_mc_agrees_with_exact(self):
        space, _, ps = make_path_space(n=4, horizon=4)
        f = random_field(space, 5)
        functional = martingale_transform(ps, np.array([1.0, -1.0, 1.0, 1.0]), f)
        exact = hat_expectation(ps, functional)
        mc = hat_expectation(ps, functional, mode="mc", seed=11, samples=20000)
        assert np.all(np.abs(mc.field.values - exact.values) <= 4.0 * mc.stderr)

    def test_mc_needs_seed_and_samples(self):
        space, _, ps = make_path_space()
        functional = PathFunctional(lambda paths: np.ones(len(paths)))
        with pytest.raises(ValueError):
            hat_expectation(ps, functional, mode="mc")


class TestDilationIdentity:
    def test_level_zero_is_identity(self):
        space, gen, ps = make_path_space()
        f = random_field(space, 6)
        report = dilation_identity_check(ps, f, 0, generator=gen)
        assert report.passed
        assert report.deviation_kernel_power < 1e-13

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
        family = reverse_martingale(ps, f)
        out = hat_expectation(ps, level_functional(family, 1))
        assert np.abs(out.values - by_hand).max() < 1e-14
        report = dilation_identity_check(ps, f, 1)
        assert report.passed

    def test_seed7_full_depth(self):
        space, gen, ps = make_path_space(seed=7, n=4, horizon=3)
        f = random_field(space, 7)
        report = dilation_identity_check(ps, f, 3, generator=gen, tol=1e-12)
        assert report.passed

    def test_level_out_of_range(self):
        space, gen, ps = make_path_space()
        with pytest.raises(ValueError):
            dilation_identity_check(ps, random_field(space, 0), ps.horizon + 1)


class TestMartingaleTransform:
    def test_zero_multipliers(self):
        space, _, ps = make_path_space()
        functional = martingale_transform(ps, np.zeros(ps.horizon), random_field(space, 8))
        assert np.abs(functional.evaluator(all_paths(ps))).max() == 0.0

    def test_unit_multipliers_telescope(self):
        space, _, ps = make_path_space(n=3, horizon=4)
        f = random_field(space, 9)
        functional = martingale_transform(ps, np.ones(ps.horizon), f)
        family = reverse_martingale(ps, f)
        paths = all_paths(ps)
        first = family.levels[0].values[paths[:, 0]]
        last = family.levels[-1].values[paths[:, -1]]
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
        with pytest.raises(ValueError):
            martingale_transform(ps, np.ones(ps.horizon + 1), random_field(space, 0))


class TestTransformIdentity:
    def test_zero_multipliers(self):
        space, gen, ps = make_path_space()
        report = transform_expectation_identity(ps, np.zeros(ps.horizon), random_field(space, 1),
                                                generator=gen)
        assert report.passed

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
        report = transform_expectation_identity(ps, m_values, random_field(space, 11),
                                                generator=gen, tol=1e-10)
        assert report.passed
        assert report.deviation_telescoping is not None


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


class TestSquareAndMaximal:
    def test_constant_field(self):
        space, _, ps = make_path_space()
        family = reverse_martingale(ps, constant_field(space, 3.0))
        square_fn, maximal_fn = square_and_maximal(ps, family)
        paths = all_paths(ps)
        assert np.abs(square_fn.evaluator(paths)).max() < 1e-12
        assert np.abs(maximal_fn.evaluator(paths) - 3.0).max() < 1e-12

    def test_two_state_hand_evaluation(self):
        q = 0.2
        space, ps = two_state_flip_space(q, horizon=1)
        f = Field(space, [1.0, -1.0])
        family = reverse_martingale(ps, f)
        square_fn, maximal_fn = square_and_maximal(ps, family)
        paths = all_paths(ps)
        g1 = (1 - 2 * q) * np.array([1.0, -1.0])
        sq_expected = np.abs(g1[paths[:, 1]] - f.values[paths[:, 0]])
        mx_expected = np.maximum(np.abs(f.values[paths[:, 0]]), np.abs(g1[paths[:, 1]]))
        assert np.abs(square_fn.evaluator(paths) - sq_expected).max() < 1e-14
        assert np.abs(maximal_fn.evaluator(paths) - mx_expected).max() < 1e-14

    def test_cauchy_schwarz_pathwise(self):
        # with all M_i = 1: |S| <= sqrt(N) * square function on every path
        space, _, ps = make_path_space(n=3, horizon=4)
        f = random_field(space, 14)
        family = reverse_martingale(ps, f)
        square_fn, _ = square_and_maximal(ps, family)
        transform = martingale_transform(ps, np.ones(ps.horizon), f)
        paths = all_paths(ps)
        lhs = np.abs(transform.evaluator(paths))
        rhs = math.sqrt(ps.horizon) * square_fn.evaluator(paths)
        assert np.all(lhs <= rhs + 1e-12)


def mc_sampled_paths(ps, seed=5, samples=300):
    """The stratified Monte Carlo paths that hat_expectation feeds a functional, in order."""
    seen = []

    def record(paths):
        seen.append(paths.copy())
        return np.zeros(len(paths))

    hat_expectation(ps, PathFunctional(record), mode="mc", seed=seed, samples=samples)
    return seen


def per_step_products(ps, paths):
    q = ps.kernel.entries
    w = np.ones(len(paths))
    for k in range(ps.horizon):
        w *= q[paths[:, k], paths[:, k + 1]]
    return w


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

    def test_budget_checked_after_table_is_built(self):
        _, _, ps = make_path_space(n=3, horizon=3)
        all_paths(ps)
        with pytest.raises(EnumerationBudgetError):
            all_paths(ps, budget=ps.path_count - 1)
        assert all_paths(ps, budget=ps.path_count).shape == (ps.path_count, ps.horizon + 1)

    def test_cached_weights_are_read_only_step_products(self):
        _, _, ps = make_path_space(n=4, horizon=3)
        paths = all_paths(ps)
        weights = transition_products(ps, paths)
        assert transition_products(ps, paths) is weights
        assert not weights.flags.writeable
        assert np.array_equal(weights, per_step_products(ps, paths))

    def test_other_path_arrays_get_the_step_product(self):
        _, _, ps = make_path_space(n=4, horizon=3)
        paths = all_paths(ps)
        for other in (paths.copy(), paths[::-1].copy()):
            assert np.array_equal(transition_products(ps, other), per_step_products(ps, other))
        for sample in mc_sampled_paths(ps):
            assert np.array_equal(transition_products(ps, sample), per_step_products(ps, sample))

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
        assert np.array_equal(transition_products(ps, paths), per_step_products(ps, paths))

    def test_products_before_any_table_build_nothing(self):
        _, _, ps = make_path_space(n=3, horizon=2)
        sample = mc_sampled_paths(ps)[0]
        assert np.array_equal(transition_products(ps, sample), per_step_products(ps, sample))
        assert "_table" not in vars(ps)


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
        "n,horizon", [(1, 2), (3, 0), (4, 4), *itertools.product((1, 2, 5, 7), (0, 1, 6))]
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

    @pytest.mark.parametrize("samples", [1, 8])
    def test_every_stratum_gets_two_samples(self, samples):
        _, _, ps = make_path_space(n=4, horizon=3)
        counts = _stratum_counts(ps, samples)
        assert counts.min() == 2
        assert [len(paths) for paths in mc_sampled_paths(ps, samples=samples)] == list(counts)


# The path functionals as first written, one gather per level and step; the
# table-gather evaluators must agree with them bit for bit.

def seed_transform(ps, m_values, f):
    m = np.asarray(m_values, dtype=complex).ravel()
    levels = reverse_martingale(ps, f).level_matrix()

    def evaluator(paths):
        out = np.zeros(len(paths), dtype=complex)
        for i in range(ps.horizon):
            out += m[i] * (levels[i + 1][paths[:, i + 1]] - levels[i][paths[:, i]])
        return out

    return evaluator


def seed_square_and_maximal(ps, family):
    levels = family.level_matrix()
    n_steps = ps.horizon

    def square_eval(paths):
        acc = np.zeros(len(paths))
        for i in range(n_steps):
            inc = levels[i + 1][paths[:, i + 1]] - levels[i][paths[:, i]]
            acc += np.abs(inc) ** 2
        return np.sqrt(acc)

    def maximal_eval(paths):
        best = np.abs(levels[0][paths[:, 0]])
        for k in range(1, n_steps + 1):
            best = np.maximum(best, np.abs(levels[k][paths[:, k]]))
        return best

    return square_eval, maximal_eval


class TestEvaluatorOracle:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("horizon", [0, 1, 4])
    @pytest.mark.parametrize("real_field", [False, True])
    def test_gathers_match_seed_evaluators(self, n, horizon, real_field):
        space, _, ps = make_path_space(seed=10 * n + horizon, n=n, horizon=horizon)
        f = random_field(space, n + horizon, real=real_field)
        rng = np.random.default_rng(n * horizon)
        m_values = rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        family = reverse_martingale(ps, f)
        pairs = [
            (martingale_transform(ps, m_values, f).evaluator, seed_transform(ps, m_values, f)),
            *zip((fn.evaluator for fn in square_and_maximal(ps, family)),
                 seed_square_and_maximal(ps, family)),
        ]
        tables = [all_paths(ps), *mc_sampled_paths(ps, seed=horizon, samples=200)]
        for paths in tables:
            for new, old in pairs:
                got, want = new(paths), old(paths)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
