"""An exact rational oracle for the path-space dilation.

Every number of this instance is a dyadic rational: the weights, the kernel,
the field and the multipliers.  The float route then rounds nothing on the way
to the martingale levels, the conditional expectations and the transform, so it
must agree bit for bit with the same quantities computed in ``Fraction``
arithmetic by a plain enumeration of the 3^5 paths that shares no code with
the library.  Only the moduli, which take square roots, are compared to within
a few ulp.

The stratified sampler is checked the same way: the cumulative rows of the
dyadic kernel are exact in floating point, so each sampled next state must be
the number of exact cumulative entries below its uniform draw.
"""

import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from lapmult import (
    ExactPaths,
    Field,
    MarkovKernel,
    PathFunctional,
    PathSpace,
    WeightedSpace,
    all_paths,
    dilation_identity_check,
    hat_expectation,
    llogl_chain_check,
    martingale_transform,
    path_lp_norm,
    reverse_martingale,
    transform_expectation_identity,
    transform_pnorm_check,
)

WEIGHTS = (1, 2, 1)
Q = ((F(1, 2), F(1, 2), F(0)), (F(1, 4), F(1, 2), F(1, 4)), (F(0), F(1, 2), F(1, 2)))
HORIZON = 4
# the field's real and imaginary parts; every operator here is real, so they evolve apart
FIELD_RE = (F(3, 4), F(-1, 2), F(5, 8))
FIELD_IM = (F(1, 8), F(0), F(-3, 4))
M = (F(1), F(-1, 2), F(1, 4), F(-1))

N = len(WEIGHTS)
NU = tuple(F(w, sum(WEIGHTS)) for w in WEIGHTS)
# x_0 varies slowest, the order of the library's path table
PATHS = tuple(product(range(N), repeat=HORIZON + 1))


def q_power(g, j):
    """Q^j g."""
    for _ in range(j):
        g = [sum(Q[x][y] * g[y] for y in range(N)) for x in range(N)]
    return list(g)


def levels_of(g):
    return [q_power(g, k) for k in range(HORIZON + 1)]


LEVELS_RE, LEVELS_IM = levels_of(FIELD_RE), levels_of(FIELD_IM)


def weight(path):
    out = F(1)
    for x, y in zip(path, path[1:]):
        out *= Q[x][y]
    return out


def conditioned(values):
    """E[S | x_0] from the values of S on every path."""
    out = [F(0)] * N
    for path, value in zip(PATHS, values):
        out[path[0]] += weight(path) * value
    return out


def transform(levels, path):
    return sum(m * (levels[i + 1][path[i + 1]] - levels[i][path[i]]) for i, m in enumerate(M))


def square_sum(path):
    """sum_i |d_i|^2 along the path, d_i = g_{i+1}(x_{i+1}) - g_i(x_i)."""
    return sum(modulus_squared(LEVELS_RE[i + 1][path[i + 1]] - LEVELS_RE[i][path[i]],
                               LEVELS_IM[i + 1][path[i + 1]] - LEVELS_IM[i][path[i]])
               for i in range(HORIZON))


def level_norm_squared(k):
    """||g_k||^2 in L^2(nu)."""
    return sum(nu * modulus_squared(re, im) for nu, re, im in zip(NU, LEVELS_RE[k], LEVELS_IM[k]))


def as_complex(re, im):
    return np.array([complex(float(a), float(b)) for a, b in zip(re, im)])


def modulus_squared(re, im):
    return re * re + im * im


@pytest.fixture(scope="module")
def instance():
    space = WeightedSpace(np.array(WEIGHTS, dtype=float))
    kernel = MarkovKernel(space, np.array([[float(q) for q in row] for row in Q]))
    ps = PathSpace(kernel, HORIZON)
    f = Field(space, as_complex(FIELD_RE, FIELD_IM))
    return ps, f, [float(m) for m in M]


def test_instance_is_reversible_and_stochastic():
    for x in range(N):
        assert sum(Q[x]) == 1
        for y in range(N):
            assert WEIGHTS[x] * Q[x][y] == WEIGHTS[y] * Q[y][x]


def test_reverse_martingale_levels(instance):
    ps, f, _ = instance
    levels = reverse_martingale(ps, f)
    for k in range(HORIZON + 1):
        assert levels[k].tolist() == as_complex(LEVELS_RE[k], LEVELS_IM[k]).tolist()


def test_conditioned_levels_are_even_kernel_powers(instance):
    ps, f, _ = instance
    exact = ExactPaths(ps)
    levels = reverse_martingale(ps, f)
    for k in range(HORIZON + 1):
        re = conditioned([LEVELS_RE[k][path[k]] for path in PATHS])
        im = conditioned([LEVELS_IM[k][path[k]] for path in PATHS])
        # the dilation identity itself, in exact arithmetic: E[f_k | x_0] = Q^{2k} f
        assert (re, im) == (q_power(FIELD_RE, 2 * k), q_power(FIELD_IM, 2 * k))
        assert exact.conditioned(exact.level(levels, k)).tolist() == as_complex(re, im).tolist()


def test_conditioned_transform(instance):
    ps, f, m = instance
    exact = ExactPaths(ps)
    re = conditioned([transform(LEVELS_RE, path) for path in PATHS])
    im = conditioned([transform(LEVELS_IM, path) for path in PATHS])
    # in exact arithmetic, E[S | x_0] = sum_i M_i (Q^{2(i+1)} - Q^{2i}) f
    for part, g in ((re, FIELD_RE), (im, FIELD_IM)):
        powers = [q_power(g, 2 * i) for i in range(HORIZON + 1)]
        assert part == [sum(m * (powers[i + 1][x] - powers[i][x]) for i, m in enumerate(M))
                        for x in range(N)]
    expected = as_complex(re, im).tolist()
    assert exact.conditioned(exact.transform(reverse_martingale(ps, f), m)).tolist() == expected
    assert hat_expectation(ps, martingale_transform(ps, m, f)).values.tolist() == expected


def test_conditioned_transform_gathered_on_a_copy(instance):
    ps, f, m = instance
    exact = ExactPaths(ps)
    expected = as_complex(conditioned([transform(LEVELS_RE, path) for path in PATHS]),
                          conditioned([transform(LEVELS_IM, path) for path in PATHS])).tolist()
    # a copy of the table is not the cached table, so the evaluator gathers instead of folding
    gathered = martingale_transform(ps, m, f).evaluator(all_paths(ps).copy())
    assert exact.conditioned(gathered).tolist() == expected


def test_transform_l2_norm(instance):
    ps, f, m = instance
    moment = sum(NU[path[0]] * weight(path)
                 * modulus_squared(transform(LEVELS_RE, path), transform(LEVELS_IM, path))
                 for path in PATHS)
    expected = math.sqrt(float(moment))
    assert path_lp_norm(ps, martingale_transform(ps, m, f), 2.0) == expected
    # the multipliers already have sup 1, so the batched check sees the same transform
    (row, excess), = transform_pnorm_check(ps, m, f, [2.0])
    assert (row.lhs, excess) == (expected, 0.0)


def test_closed_form_l2_routes():
    # under the stationary law the differences d_k are orthogonal, with
    # E|d_k|^2 = ||g_k||^2 - ||g_{k+1}||^2: the L^2 norms of the transform and
    # of the square function need no path, and agree exactly with enumeration
    drops = [level_norm_squared(k) - level_norm_squared(k + 1) for k in range(HORIZON)]
    transform_moment = sum(NU[path[0]] * weight(path)
                           * modulus_squared(transform(LEVELS_RE, path), transform(LEVELS_IM, path))
                           for path in PATHS)
    assert transform_moment == sum(abs(m) ** 2 * drop for m, drop in zip(M, drops))
    square_moment = sum(NU[path[0]] * weight(path) * square_sum(path) for path in PATHS)
    assert square_moment == sum(drops) == level_norm_squared(0) - level_norm_squared(HORIZON)


def test_square_and_maximal_functions(instance):
    ps, f, _ = instance
    exact = ExactPaths(ps)
    levels = reverse_martingale(ps, f)
    square = [square_sum(path) for path in PATHS]
    maximal = [max(modulus_squared(LEVELS_RE[k][path[k]], LEVELS_IM[k][path[k]])
                   for k in range(HORIZON + 1)) for path in PATHS]
    # np.abs rounds each modulus once, so these agree to a few ulp rather than exactly
    expected_square = np.sqrt([float(s) for s in square])
    expected_maximal = np.sqrt([float(s) for s in maximal])
    for got, expected in ((exact.square(levels), expected_square),
                          (exact.maximal(levels), expected_maximal)):
        assert np.abs(got - expected).max() <= 4 * np.spacing(expected.max())


def rounded_root(square):
    """The square root of an exact square, rounded once, as the float route rounds a modulus."""
    return F(math.sqrt(float(square)))


def path_expectation(squares):
    """E[sqrt(s)] under the stationary law from the exact squares s on every path; only the roots round."""
    return float(sum(NU[path[0]] * weight(path) * rounded_root(s) for path, s in zip(PATHS, squares)))


def test_llogl_chain_rows_on_the_unit_mass_instance():
    # weights (1/4, 1/2, 1/4) leave nu and Q as they are, and M has sup 1, so
    # the check's normalizations round nothing; the L log L norm itself is
    # checked against its own oracle (tests/test_inequalities.py::TestLuxemburgOracle)
    space = WeightedSpace(np.array([float(nu) for nu in NU]))
    kernel = MarkovKernel(space, np.array([[float(q) for q in row] for row in Q]))
    f = Field(space, as_complex(FIELD_RE, FIELD_IM))
    (rows,), = llogl_chain_check([(PathSpace(kernel, HORIZON), [([float(m) for m in M], f)])])
    davis, square_vs_maximal, _, end_to_end = rows
    transform_abs = path_expectation([modulus_squared(transform(LEVELS_RE, path), transform(LEVELS_IM, path))
                                      for path in PATHS])
    square = path_expectation([square_sum(path) for path in PATHS])
    maximal = path_expectation([max(modulus_squared(LEVELS_RE[k][path[k]], LEVELS_IM[k][path[k]])
                                    for k in range(HORIZON + 1)) for path in PATHS])
    conditioned_re = conditioned([transform(LEVELS_RE, path) for path in PATHS])
    conditioned_im = conditioned([transform(LEVELS_IM, path) for path in PATHS])
    end_lhs = float(sum(nu * rounded_root(modulus_squared(re, im))
                        for nu, re, im in zip(NU, conditioned_re, conditioned_im)))
    sides = {"davis-step": (transform_abs, square), "square-vs-maximal": (square, maximal)}
    for row in (davis, square_vs_maximal):
        for got, expected in zip((row.lhs, row.rhs), sides[row.name]):
            assert abs(got - expected) <= 4 * np.spacing(expected), (row.name, got, expected)
    assert end_to_end.name == "end-to-end-llogl"
    assert abs(end_to_end.lhs - end_lhs) <= 4 * np.spacing(end_lhs), (end_to_end.lhs, end_lhs)


def test_identity_checks_are_exact(instance):
    ps, f, m = instance
    assert dilation_identity_check(ps, f) == (0.0, None)
    assert transform_expectation_identity(ps, m, f) == (0.0, None)


def test_sampler_inverts_exact_cumulative_rows(instance):
    ps, _, _ = instance
    seed, samples = 2024, 400
    strata = []

    def record(paths):
        strata.append(paths)
        return np.zeros(len(paths))

    hat_expectation(ps, PathFunctional(record), mode="mc", seed=seed, samples=samples)
    cumulative = [[sum(row[: j + 1]) for j in range(N)] for row in Q]
    assert [len(paths) for paths in strata] == [round(samples * nu) for nu in NU]
    # the sampler's order: one stream, strata in state order, one uniform per path and step
    rng = np.random.default_rng(seed)
    for start, paths in enumerate(strata):
        rows = paths.tolist()
        assert all(path[0] == start for path in rows)
        for k in range(HORIZON):
            for path, u in zip(rows, rng.random(len(rows))):
                assert path[k + 1] == sum(c < F(u) for c in cumulative[path[k]])
