"""Path-space dilation of a kernel: reverse martingales, conditional expectations, transforms.

The product space is Omega = X^{N+1} with measure
P(x_0, ..., x_N) = nu(x_0) Q(x_0, x_1) ... Q(x_{N-1}, x_N), where nu is the
normalized weight vector.  The coordinate filtration decreasing in k makes
f_k(omega) = (Q^k f)(x_k) a reverse martingale, and conditioning on the first
coordinate realizes even kernel powers: E[f_k | x_0] = Q^{2k} f.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .multiplier import StepMultiplier, telescoping_Tm
from .semigroup import MarkovKernel, ReversibleGenerator, heat_operator
from .space import Field, same_space

__all__ = [
    "PathSpace",
    "PathFunctional",
    "ReverseMartingaleFamily",
    "MonteCarloField",
    "EnumerationBudgetError",
    "DEFAULT_PATH_BUDGET",
    "all_paths",
    "path_measure",
    "transition_products",
    "reverse_martingale",
    "level_functional",
    "hat_expectation",
    "path_lp_norm",
    "dilation_identity_check",
    "martingale_transform",
    "transform_expectation_identity",
    "square_and_maximal",
]

DEFAULT_PATH_BUDGET = 1_000_000


class EnumerationBudgetError(RuntimeError):
    """Exact path enumeration would exceed the configured budget."""


@dataclass(frozen=True, eq=False)
class PathSpace:
    """Kernel Q, horizon N, and the stationary initial law nu = weights / total mass."""

    kernel: MarkovKernel
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    @property
    def n_states(self) -> int:
        return self.kernel.space.n

    @property
    def initial_law(self) -> np.ndarray:
        w = self.kernel.space.weights
        return w / w.sum()

    @property
    def path_count(self) -> int:
        return self.n_states ** (self.horizon + 1)

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every path and its weight conditional on its start, built once, read-only.

        The kernel entries are frozen, so the table can never go stale; callers
        check the enumeration budget before touching it.
        """
        steps = self.horizon + 1
        paths = np.indices((self.n_states,) * steps, dtype=np.int32).reshape(steps, -1).T
        weights = _step_products(self, paths)
        paths.flags.writeable = False
        weights.flags.writeable = False
        return paths, weights

    @functools.cached_property
    def _cumulative_columns(self) -> np.ndarray:
        """Columns j < n - 1 of the row-cumulative kernel, one contiguous row each.

        Inverse-CDF sampling counts the columns a uniform draw u < 1 exceeds.
        The last column is taken as exactly 1, whatever the roundoff in the
        row sums, so no draw exceeds it and it is left out.
        """
        cols = np.cumsum(self.kernel.entries, axis=1)[:, :-1].T.copy()
        cols.flags.writeable = False
        return cols


@dataclass(frozen=True, eq=False)
class PathFunctional:
    """A function of the whole path, evaluated vectorized.

    ``evaluator`` maps an integer array of shape (num_paths, N+1) to the array
    of values; it must be finite on every path.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ReverseMartingaleFamily:
    """Level fields g_k = Q^k f; the path value at level k is g_k(x_k)."""

    path_space: PathSpace
    levels: tuple[Field, ...]

    def level_matrix(self) -> np.ndarray:
        return np.vstack([lv.values for lv in self.levels])


def all_paths(ps: PathSpace, budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """All state paths as a read-only int32 array of shape (n^{N+1}, N+1).

    The array is column-major, so each coordinate ``paths[:, k]`` is contiguous.

    The budget is checked on every call; the table itself is built on the
    first call that passes it and the same array is returned thereafter.
    """
    count = ps.path_count
    if count > budget:
        raise EnumerationBudgetError(
            f"{count} paths exceed the enumeration budget of {budget}"
        )
    return ps._table[0]


def _edge_index(paths: np.ndarray, i: int, n: int) -> np.ndarray:
    """Flat index x_i * n + x_{i+1} of each path's step-i edge."""
    return paths[:, i] * n + paths[:, i + 1]


def _step_products(ps: PathSpace, paths: np.ndarray) -> np.ndarray:
    q = ps.kernel.entries.ravel()
    w = np.ones(len(paths))
    for k in range(ps.horizon):
        w *= q.take(_edge_index(paths, k, ps.n_states))
    return w


def transition_products(ps: PathSpace, paths: np.ndarray) -> np.ndarray:
    """prod_k Q(x_k, x_{k+1}): the path weight conditional on its start.

    For the table returned by :func:`all_paths` this is the read-only array
    cached with it; any other path array gets a freshly computed product.
    """
    table = vars(ps).get("_table")  # only a table already built, never build one here
    if table is not None and paths is table[0]:
        return table[1]
    return _step_products(ps, paths)


def path_measure(ps: PathSpace, paths: np.ndarray) -> np.ndarray:
    """P(omega) = nu(x_0) * prod_k Q(x_k, x_{k+1})."""
    return ps.initial_law[paths[:, 0]] * transition_products(ps, paths)


def reverse_martingale(ps: PathSpace, f: Field) -> ReverseMartingaleFamily:
    """Level fields g_k = Q^k f for k = 0..N, so g_0 = f and g_{k+1} = Q g_k."""
    if not same_space(ps.kernel.space, f.space):
        raise ValueError("field lives on a different space than the kernel")
    q = ps.kernel.entries
    levels = [f]
    g = f.values
    for _ in range(ps.horizon):
        g = q @ g
        levels.append(Field(f.space, g))
    return ReverseMartingaleFamily(ps, tuple(levels))


def level_functional(family: ReverseMartingaleFamily, k: int) -> PathFunctional:
    """The level-k martingale value f_k(omega) = g_k(x_k) as a path functional."""
    if not 0 <= k <= family.path_space.horizon:
        raise ValueError("level outside the horizon")
    g = family.levels[k].values

    def evaluator(paths: np.ndarray) -> np.ndarray:
        return g[paths[:, k]]

    return PathFunctional(evaluator)


@dataclass(frozen=True, eq=False)
class MonteCarloField:
    """A sampled estimate of a field with per-state standard errors."""

    field: Field
    stderr: np.ndarray


def _stratum_counts(ps: PathSpace, samples: int) -> np.ndarray:
    """Samples per start state, proportional to nu.

    At least two each, so every stratum has a sample variance.
    """
    return np.maximum(2, np.rint(samples * ps.initial_law).astype(int))


def _sample_stratum(ps: PathSpace, rng: np.random.Generator, count: int, start: int) -> np.ndarray:
    """``count`` paths from ``start``, one uniform draw per path and step.

    The next state is the number of cumulative-kernel columns the draw
    exceeds.  Rows are filled one step at a time and the transposed view is
    returned, so each coordinate ``paths[:, k]`` is contiguous.
    """
    columns = ps._cumulative_columns
    rows = np.zeros((ps.horizon + 1, count), dtype=np.int32)
    rows[0] = start
    for k in range(ps.horizon):
        u = rng.random(count)
        here, nxt = rows[k], rows[k + 1]
        for column in columns:
            nxt += u > column.take(here)
    return rows.T


def _sampled_strata(
    ps: PathSpace, functional: PathFunctional, seed: int | None, samples: int | None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (start state, sample count, functional values) for each stratum in turn.

    The strata share one stream seeded by ``seed``, drawn in state order.
    Values must be finite on every sampled path, as exact mode requires.
    """
    if seed is None or samples is None or samples < 1:
        raise ValueError("Monte Carlo mode needs a seed and a positive sample count")
    rng = np.random.default_rng(seed)
    counts = _stratum_counts(ps, samples)
    for x in range(ps.n_states):
        values = np.asarray(functional.evaluator(_sample_stratum(ps, rng, counts[x], x)))
        if not np.all(np.isfinite(values)):
            raise ValueError("path functional returned non-finite values")
        yield x, counts[x], values


def hat_expectation(
    ps: PathSpace,
    functional: PathFunctional,
    mode: str = "exact",
    *,
    seed: int | None = None,
    samples: int | None = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> Field | MonteCarloField:
    """The conditional expectation x -> E[S | pi_0 = x].

    Exact mode enumerates every path; Monte Carlo stratifies on the initial
    state (allocation proportional to nu, at least two samples each) and
    reports a per-state standard error alongside the estimate.
    """
    space = ps.kernel.space
    if mode == "exact":
        paths = all_paths(ps, budget)
        weights = transition_products(ps, paths)
        svals = np.asarray(functional.evaluator(paths), dtype=complex)
        if not np.all(np.isfinite(svals)):
            raise ValueError("path functional returned non-finite values")
        contrib = weights * svals
        out = np.bincount(paths[:, 0], weights=contrib.real, minlength=space.n).astype(complex)
        out += 1j * np.bincount(paths[:, 0], weights=contrib.imag, minlength=space.n)
        return Field(space, out)
    if mode == "mc":
        means = np.empty(space.n, dtype=complex)
        stderr = np.empty(space.n)
        for x, count, values in _sampled_strata(ps, functional, seed, samples):
            svals = np.asarray(values, dtype=complex)
            means[x] = svals.mean()
            stderr[x] = math.sqrt(float(np.var(svals)) / count)
        return MonteCarloField(Field(space, means), stderr)
    raise ValueError(f"unknown mode {mode!r}")


def path_lp_norm(
    ps: PathSpace,
    functional: PathFunctional,
    p: float,
    mode: str = "exact",
    *,
    seed: int | None = None,
    samples: int | None = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> float | tuple[float, float]:
    """||S||_{L^p(P)} over the path measure, exactly or by stratified Monte Carlo.

    Monte Carlo mode returns (estimate, standard error) with the error of the
    p-th-moment estimate propagated through the 1/p power; it requires finite p.
    """
    if p < 1.0:
        raise ValueError("p must satisfy p >= 1")
    if mode == "exact":
        paths = all_paths(ps, budget)
        weights = path_measure(ps, paths)
        avals = np.abs(np.asarray(functional.evaluator(paths)))
        if not np.all(np.isfinite(avals)):
            raise ValueError("path functional returned non-finite values")
        if math.isinf(p):
            return float(avals[weights > 0.0].max(initial=0.0))
        return float((weights @ avals**p) ** (1.0 / p))
    if mode == "mc":
        if math.isinf(p):
            raise ValueError("Monte Carlo mode supports finite p only")
        nu = ps.initial_law
        moment = 0.0
        variance = 0.0
        for x, count, values in _sampled_strata(ps, functional, seed, samples):
            avals = np.abs(values) ** p
            moment += nu[x] * float(avals.mean())
            variance += nu[x] ** 2 * float(np.var(avals)) / count
        estimate = moment ** (1.0 / p)
        if moment > 0.0:
            stderr = (1.0 / p) * moment ** (1.0 / p - 1.0) * math.sqrt(variance)
        else:
            stderr = 0.0
        return estimate, stderr
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True, eq=False)
class DilationIdentityReport:
    """Deviations of the enumerated E[f_k | x_0] from Q^{2k} f and from the heat operator."""

    deviation_kernel_power: float
    deviation_heat: float | None
    tol: float

    @property
    def passed(self) -> bool:
        devs = [self.deviation_kernel_power]
        if self.deviation_heat is not None:
            devs.append(self.deviation_heat)
        return max(devs) <= self.tol


def dilation_identity_check(
    ps: PathSpace,
    f: Field,
    k: int,
    generator: ReversibleGenerator | None = None,
    tol: float = 1e-10,
    budget: int = DEFAULT_PATH_BUDGET,
) -> DilationIdentityReport:
    """Check E[f_k | x_0] = Q^{2k} f by exact enumeration.

    When the kernel was built as Q = T^{eps/2} from ``generator`` (so the
    kernel's ``step`` is eps/2), the same quantity must equal T^{k eps} f; the
    heat operator at time 2k*step is compared independently.
    """
    if not 0 <= k <= ps.horizon:
        raise ValueError("level outside the horizon")
    family = reverse_martingale(ps, f)
    conditioned = hat_expectation(ps, level_functional(family, k), budget=budget)
    q2k = np.linalg.matrix_power(ps.kernel.entries, 2 * k) @ f.values
    dev_power = float(np.abs(conditioned.values - q2k).max())
    dev_heat = None
    if generator is not None:
        heated = heat_operator(generator, 2.0 * k * ps.kernel.step).entries @ f.values
        dev_heat = float(np.abs(conditioned.values - heated).max())
    return DilationIdentityReport(dev_power, dev_heat, tol)


def _increment_tables(levels: np.ndarray) -> list[np.ndarray]:
    """Per step i, the flattened n x n table of g_{i+1}[y] - g_i[x] at index x*n + y."""
    return [(levels[i + 1][None, :] - levels[i][:, None]).ravel() for i in range(len(levels) - 1)]


def martingale_transform(ps: PathSpace, m_values: Sequence[complex], f: Field) -> PathFunctional:
    """S(omega) = sum_i M_i (g_{i+1}(x_{i+1}) - g_i(x_i)): a reverse-martingale transform."""
    m = np.asarray(m_values, dtype=complex).ravel()
    if m.size != ps.horizon:
        raise ValueError(f"need exactly {ps.horizon} multiplier values, got {m.size}")
    n = ps.n_states
    increments = _increment_tables(reverse_martingale(ps, f).level_matrix())
    edges = [mi * increment for mi, increment in zip(m, increments)]

    def evaluator(paths: np.ndarray) -> np.ndarray:
        out = np.zeros(len(paths), dtype=complex)
        for i, edge in enumerate(edges):
            out += edge.take(_edge_index(paths, i, n))
        return out

    return PathFunctional(evaluator)


@dataclass(frozen=True, eq=False)
class TransformIdentityReport:
    """Deviations of E[transform | x_0] from its two closed forms."""

    deviation_kernel_powers: float
    deviation_telescoping: float | None
    tol: float

    @property
    def passed(self) -> bool:
        devs = [self.deviation_kernel_powers]
        if self.deviation_telescoping is not None:
            devs.append(self.deviation_telescoping)
        return max(devs) <= self.tol


def transform_expectation_identity(
    ps: PathSpace,
    m_values: Sequence[complex],
    f: Field,
    generator: ReversibleGenerator | None = None,
    tol: float = 1e-10,
    budget: int = DEFAULT_PATH_BUDGET,
) -> TransformIdentityReport:
    """Check E[sum_i M_i (f_{i+1} - f_i) | x_0] = sum_i M_i (Q^{2(i+1)} - Q^{2i}) f.

    With Q = T^{eps/2} and breakpoints t_i = i*eps this also equals the
    telescoping multiplier operator, which closes the loop with the step-symbol
    closed form.
    """
    m = np.asarray(m_values, dtype=complex).ravel()
    functional = martingale_transform(ps, m, f)
    conditioned = hat_expectation(ps, functional, budget=budget)

    q = ps.kernel.entries
    q2 = q @ q
    power = np.eye(ps.n_states)
    rhs = np.zeros(ps.n_states, dtype=complex)
    for i in range(ps.horizon):
        nxt = power @ q2
        rhs += m[i] * ((nxt - power) @ f.values)
        power = nxt
    dev_powers = float(np.abs(conditioned.values - rhs).max())

    dev_tel = None
    if generator is not None:
        eps = 2.0 * ps.kernel.step
        breakpoints = eps * np.arange(ps.horizon + 1)
        telescoped = telescoping_Tm(generator, StepMultiplier(breakpoints, m), f)
        dev_tel = float(np.abs(conditioned.values - telescoped.values).max())
    return TransformIdentityReport(dev_powers, dev_tel, tol)


def square_and_maximal(
    ps: PathSpace, family: ReverseMartingaleFamily
) -> tuple[PathFunctional, PathFunctional]:
    """The square function of the martingale increments and the maximal function of the levels.

    A transform with signs M_i = +-1 has the same square function, so the
    L log L chain needs only the raw increments.
    """
    levels = family.level_matrix()
    n_steps = ps.horizon
    n = ps.n_states
    squares = [np.abs(increment) ** 2 for increment in _increment_tables(levels)]
    moduli = np.abs(levels)

    def square_eval(paths: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(paths))
        for i, square in enumerate(squares):
            acc += square.take(_edge_index(paths, i, n))
        return np.sqrt(acc)

    def maximal_eval(paths: np.ndarray) -> np.ndarray:
        best = moduli[0].take(paths[:, 0])
        for k in range(1, n_steps + 1):
            best = np.maximum(best, moduli[k].take(paths[:, k]))
        return best

    return PathFunctional(square_eval), PathFunctional(maximal_eval)
