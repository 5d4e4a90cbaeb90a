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
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .multiplier import StepMultiplier, telescoping_Tm
from .semigroup import MarkovKernel, ReversibleGenerator, heat_operator
from .space import Field, same_space

__all__ = [
    "PathSpace",
    "PathFunctional",
    "ExactPaths",
    "EnumerationBudgetError",
    "DEFAULT_PATH_BUDGET",
    "all_paths",
    "path_measure",
    "transition_products",
    "reverse_martingale",
    "hat_expectation",
    "path_lp_norm",
    "dilation_identity_check",
    "martingale_transform",
    "transform_expectation_identity",
]

DEFAULT_PATH_BUDGET = 1_000_000


class EnumerationBudgetError(RuntimeError):
    """Exact path enumeration would exceed ``DEFAULT_PATH_BUDGET`` paths."""


@dataclass(frozen=True, eq=False)
class PathSpace:
    """Kernel Q, horizon N, and the stationary initial law nu = weights / total mass.

    A space also keeps the paths it has made: the enumerated table
    (``_table``, built on first use) and its last stratified Monte Carlo draw
    (``_draw``).  Both are read-only and die with the space.
    """

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
        check the enumeration budget before touching it.  It lives as long as
        the space, so code that holds many path spaces holds all their tables.
        The weights are the kernel's products ((1 q_0) q_1) ... folded down the
        path tree, bit for bit the per-path product.
        """
        steps = self.horizon + 1
        paths = np.indices((self.n_states,) * steps, dtype=np.int32).reshape(steps, -1).T
        weights = _fold(np.ones(self.n_states), [self.kernel.entries] * self.horizon, np.multiply)
        paths.setflags(write=False)
        weights.setflags(write=False)
        return paths, weights

    def _draw(self, seed: int, samples: int) -> tuple[np.ndarray, ...]:
        """The stratified sample for ``(seed, samples)``: one read-only path array per start state.

        The strata come from one ``default_rng(seed)`` stream, in state order.
        The space keeps its last draw as one ``(seed, samples, strata)`` tuple,
        read and replaced whole, so a repeat call with the same pair returns
        the same arrays without drawing, and any other pair replaces it.  At
        most one draw is held, and it lives as long as the space.  Threads
        that race on one space can at worst draw the same sample twice.
        """
        last = vars(self).get("_last_draw")
        if last is not None and last[:2] == (seed, samples):
            return last[2]
        rng = np.random.default_rng(seed)
        counts = _stratum_counts(self, samples)
        strata = tuple(_sample_stratum(self, rng, counts[x], x) for x in range(self.n_states))
        for paths in strata:
            paths.setflags(write=False)
        vars(self)["_last_draw"] = (seed, samples, strata)
        return strata


@dataclass(frozen=True, eq=False)
class PathFunctional:
    """A function of the whole path, evaluated vectorized.

    ``evaluator`` maps an integer array of shape (num_paths, N+1) to the array
    of values; it must be finite on every path.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]


def all_paths(ps: PathSpace) -> np.ndarray:
    """All state paths as a read-only int32 array of shape (n^{N+1}, N+1).

    Paths are listed in lexicographic order with x_0 varying slowest, so the
    paths from each start state form one contiguous block of n^N rows.  The
    array is column-major, so each coordinate ``paths[:, k]`` is contiguous.

    ``DEFAULT_PATH_BUDGET`` is read and checked on every call; the table itself
    is built on the first call within it and the same array is returned
    thereafter.
    """
    count = ps.path_count
    if count > DEFAULT_PATH_BUDGET:
        raise EnumerationBudgetError(
            f"{count} paths exceed the enumeration budget of {DEFAULT_PATH_BUDGET}"
        )
    return ps._table[0]


def _is_table(ps: PathSpace, paths: np.ndarray) -> bool:
    """Whether ``paths`` is the table :func:`all_paths` returned; never builds one."""
    table = vars(ps).get("_table")
    return table is not None and paths is table[0]


def _fold(start: np.ndarray, tables: Sequence[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """Fold per-step tables down the path tree, in :func:`all_paths` order.

    ``start`` holds each start state's value at x_0; step k applies ``ufunc``
    to the accumulated value of each prefix x_0..x_k and ``tables[k][x_k,
    x_{k+1}]`` (a 1-d table is read as constant in x_k).  Level k holds only
    the n^{k+1} prefixes, yet each path's value goes through the operations a
    per-path gather would apply, in the same order, so the bits are the same.
    """
    acc = start
    for table in tables:
        acc = ufunc(acc[..., None], table)
    return acc.ravel()


def _along_paths(
    ps: PathSpace, paths: np.ndarray, start: np.ndarray, tables: Sequence[np.ndarray], ufunc: np.ufunc
) -> np.ndarray:
    """acc = start[x_0], then acc = ufunc(acc, tables[k][x_k, x_{k+1}]) at each step k, per path.

    The cached table folds down the path tree (:func:`_fold`); any other path
    array gathers each flat (n, n) table at x_k * n + x_{k+1} in place.  Both
    apply the same operations in the same order, so every path keeps its bits.
    """
    if _is_table(ps, paths):
        return _fold(start, tables, ufunc)
    n = ps.n_states
    acc = start.take(paths[:, 0])
    for k, table in enumerate(tables):
        ufunc(acc, table.take(paths[:, k] * n + paths[:, k + 1]), out=acc)
    return acc


def transition_products(ps: PathSpace, paths: np.ndarray) -> np.ndarray:
    """prod_k Q(x_k, x_{k+1}): the path weight conditional on its start.

    For the table returned by :func:`all_paths` this is the read-only array
    cached with it; any other path array gets a freshly computed product.
    """
    if _is_table(ps, paths):
        return ps._table[1]
    return _along_paths(ps, paths, np.ones(ps.n_states), [ps.kernel.entries] * ps.horizon, np.multiply)


def path_measure(ps: PathSpace, paths: np.ndarray) -> np.ndarray:
    """P(omega) = nu(x_0) * prod_k Q(x_k, x_{k+1})."""
    return ps.initial_law[paths[:, 0]] * transition_products(ps, paths)


def reverse_martingale(ps: PathSpace, f: Field) -> np.ndarray:
    """Level fields g_0 = f, g_{k+1} = Q g_k for k = 0..N as the rows of one read-only array.

    The (N+1) x n complex array makes f_k(omega) = ``levels[k][x_k]`` a reverse
    martingale.
    """
    if not same_space(ps.kernel.space, f.space):
        raise ValueError("field lives on a different space than the kernel")
    q = ps.kernel.entries
    levels = np.empty((ps.horizon + 1, ps.n_states), dtype=complex)
    levels[0] = f.values
    for k in range(ps.horizon):
        levels[k + 1] = q @ levels[k]
    levels.setflags(write=False)
    return levels


def _increment_tables(levels: np.ndarray) -> list[np.ndarray]:
    """Per step i, the n x n table of g_{i+1}[y] - g_i[x] at [x, y] (flat index x*n + y)."""
    return [levels[i + 1][None, :] - levels[i][:, None] for i in range(len(levels) - 1)]


def _transform_tables(levels: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    return [mi * increment for mi, increment in zip(m, _increment_tables(levels))]


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, after checking that a path functional is finite on every path it saw."""
    if not np.all(np.isfinite(values)):
        raise ValueError("path functional returned non-finite values")
    return values


def _multiplier_row(m_values: Sequence[complex], horizon: int) -> np.ndarray:
    m = np.asarray(m_values, dtype=complex).ravel()
    if m.size != horizon:
        raise ValueError(f"need exactly {horizon} multiplier values, got {m.size}")
    return m


class ExactPaths:
    """Every path of one path space and the exact reductions over them.

    This is the one exact route: exact-mode ``hat_expectation`` and
    ``path_lp_norm``, both identity checks and the batched transform and
    L log L checks all go through it.  The constructor fetches the path table,
    so the enumeration budget is checked before anything else is built.  The
    conditional weights and the path measure are each built on first use and
    kept by this object, never by the space.

    Every reduction gives the same bits as a per-path evaluation.  The table
    lists each start state's paths as one contiguous block, so E[S | x_0] is a
    running sum along each block, which adds the paths in the order a
    per-state accumulation would.  The transform, the square function and the
    maximal function fold per-step tables down the path tree (:func:`_fold`):
    M_i (g_{i+1}[y] - g_i[x]), the squared modulus of the raw increment, and
    |g_{k+1}| per state.  That is the table side of :func:`_along_paths`,
    the one per-step rule that also gathers weights and transforms on sampled
    paths; this object holds the table by construction and the maximal
    function's tables are 1-d, so it calls :func:`_fold` directly.  Each path
    still sees the operations of a per-path gather in step order.  An L^p
    norm stays one dot product per functional: a gemv, an ``einsum`` or a
    ``sum`` over a (functionals x paths) block changes last bits.
    """

    def __init__(self, ps: PathSpace) -> None:
        self.ps = ps
        self.paths = all_paths(ps)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Each path's weight conditional on its start."""
        return transition_products(self.ps, self.paths)

    @functools.cached_property
    def measure(self) -> np.ndarray:
        """Each path's probability P(omega)."""
        return path_measure(self.ps, self.paths)

    def level(self, levels: np.ndarray, k: int) -> np.ndarray:
        """The level-k martingale value f_k(omega) = g_k(x_k) on every path."""
        if not 0 <= k <= self.ps.horizon:
            raise ValueError("level outside the horizon")
        return levels[k][self.paths[:, k]]

    def transform(self, levels: np.ndarray, m_values: Sequence[complex]) -> np.ndarray:
        """S = sum_i M_i (g_{i+1}(x_{i+1}) - g_i(x_i)) on every path."""
        m = _multiplier_row(m_values, self.ps.horizon)
        return _fold(np.zeros(self.ps.n_states, dtype=complex), _transform_tables(levels, m), np.add)

    def square(self, levels: np.ndarray) -> np.ndarray:
        """The square function (sum_i |g_{i+1}(x_{i+1}) - g_i(x_i)|^2)^{1/2} on every path.

        A transform with signs M_i = +-1 has the same square function, so the
        L log L chain needs only the raw increments.
        """
        squares = [np.abs(increment) ** 2 for increment in _increment_tables(levels)]
        return np.sqrt(_fold(np.zeros(self.ps.n_states), squares, np.add))

    def maximal(self, levels: np.ndarray) -> np.ndarray:
        """The maximal function max_k |g_k(x_k)| on every path."""
        moduli = np.abs(levels)
        return _fold(moduli[0], moduli[1:], np.maximum)

    def conditioned(self, values: np.ndarray) -> np.ndarray:
        """E[S | x_0] from S on every path.

        ``+ 0.0`` gives a per-state accumulation's +0.0 where every term is -0.0.
        """
        svals = _finite(np.asarray(values, dtype=complex))
        blocks = (self.weights * svals).reshape(self.ps.n_states, -1)
        np.cumsum(blocks, axis=1, out=blocks)
        return blocks[:, -1] + 0.0

    def lp_norm(self, avals: np.ndarray, p: float) -> float:
        """||S||_{L^p(P)} from the moduli |S| on every path."""
        if not p >= 1.0:
            raise ValueError("p must satisfy p >= 1")
        _finite(avals)
        if math.isinf(p):
            return float(avals[self.measure > 0.0].max(initial=0.0))
        return float((self.measure @ avals**p) ** (1.0 / p))


def _stratum_counts(ps: PathSpace, samples: int) -> np.ndarray:
    """Samples per start state, proportional to nu.

    At least two each, so every stratum has a sample variance.
    """
    return np.maximum(2, np.rint(samples * ps.initial_law).astype(int))


def _sample_stratum(ps: PathSpace, rng: np.random.Generator, count: int, start: int) -> np.ndarray:
    """``count`` paths from ``start``, one uniform draw per path and step.

    The next state is the number of cumulative-kernel columns the draw
    exceeds.  Each call builds columns j < n - 1 of the row-cumulative kernel
    as contiguous rows; the last column is taken as exactly 1, whatever the
    roundoff in the row sums, so no draw u < 1 exceeds it and it is left out.
    Rows are filled one step at a time and the transposed view is returned,
    so each coordinate ``paths[:, k]`` is contiguous.  The int32 state row is
    cast to ``np.intp`` once per step, because ``take`` with int32 indices is
    several times slower than with native ones.
    """
    columns = np.cumsum(ps.kernel.entries.T, axis=0)[:-1]
    rows = np.zeros((ps.horizon + 1, count), dtype=np.int32)
    rows[0] = start
    for k in range(ps.horizon):
        u = rng.random(count)
        here, nxt = rows[k].astype(np.intp), rows[k + 1]
        for column in columns:
            nxt += u > column.take(here)
    return rows.T


def _is_integer(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _sampled_strata(
    ps: PathSpace, functional: PathFunctional, seed: int | None, samples: int | None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (start state, sample count, functional values) for each stratum in turn.

    The paths are the space's draw for ``(seed, samples)`` (:meth:`PathSpace._draw`),
    so calls with the same pair see the same read-only arrays; the functional
    is evaluated on every stratum of every call.  ``seed`` and ``samples``
    must be integers (a ``Generator`` or a float would make the draw depend
    on more than the pair), ``samples`` at least 1.  Values must be finite on
    every sampled path, as exact mode requires.
    """
    if not (_is_integer(seed) and _is_integer(samples) and samples >= 1):
        raise ValueError("Monte Carlo mode needs an integer seed and a positive integer sample count")
    for x, paths in enumerate(ps._draw(seed, samples)):
        yield x, len(paths), _finite(np.asarray(functional.evaluator(paths)))


def _exact_paths(ps: PathSpace, seed: int | None, samples: int | None) -> ExactPaths:
    if seed is not None or samples is not None:
        raise ValueError("seed and samples apply to Monte Carlo mode only")
    return ExactPaths(ps)


def hat_expectation(
    ps: PathSpace,
    functional: PathFunctional,
    mode: str = "exact",
    *,
    seed: int | None = None,
    samples: int | None = None,
) -> Field | tuple[Field, np.ndarray]:
    """The conditional expectation x -> E[S | pi_0 = x].

    Exact mode enumerates every path; Monte Carlo stratifies on the initial
    state (allocation proportional to nu, at least two samples each) and
    returns (estimate, per-state standard errors), the errors from the sample
    variances (ddof 1).  ``seed`` and ``samples`` are integers; the space
    keeps its last draw, so a ``path_lp_norm`` with the same pair reuses it.
    Exact mode takes neither.
    """
    space = ps.kernel.space
    if mode == "exact":
        exact = _exact_paths(ps, seed, samples)
        return Field(space, exact.conditioned(functional.evaluator(exact.paths)))
    if mode == "mc":
        means = np.empty(space.n, dtype=complex)
        stderr = np.empty(space.n)
        for x, count, values in _sampled_strata(ps, functional, seed, samples):
            svals = np.asarray(values, dtype=complex)
            means[x] = svals.mean()
            stderr[x] = math.sqrt(float(np.var(svals, ddof=1)) / count)
        return Field(space, means), stderr
    raise ValueError(f"unknown mode {mode!r}")


def path_lp_norm(
    ps: PathSpace,
    functional: PathFunctional,
    p: float,
    mode: str = "exact",
    *,
    seed: int | None = None,
    samples: int | None = None,
) -> float | tuple[float, float]:
    """||S||_{L^p(P)} over the path measure, exactly or by stratified Monte Carlo.

    Monte Carlo mode returns (estimate, standard error) with the error of the
    p-th-moment estimate (sample variances, ddof 1) propagated through the 1/p
    power; it requires finite p and integer ``seed`` and ``samples``, and
    reuses the space's last draw when the pair matches, as ``hat_expectation``
    does.  Exact mode takes neither ``seed`` nor ``samples``.
    """
    if not p >= 1.0:
        raise ValueError("p must satisfy p >= 1")
    if mode == "exact":
        exact = _exact_paths(ps, seed, samples)
        return exact.lp_norm(np.abs(np.asarray(functional.evaluator(exact.paths))), p)
    if mode == "mc":
        if math.isinf(p):
            raise ValueError("Monte Carlo mode supports finite p only")
        nu = ps.initial_law
        moment = 0.0
        variance = 0.0
        for x, count, values in _sampled_strata(ps, functional, seed, samples):
            avals = np.abs(values) ** p
            moment += nu[x] * float(avals.mean())
            variance += nu[x] ** 2 * float(np.var(avals, ddof=1)) / count
        estimate = moment ** (1.0 / p)
        if moment > 0.0:
            stderr = (1.0 / p) * moment ** (1.0 / p - 1.0) * math.sqrt(variance)
        else:
            stderr = 0.0
        return estimate, stderr
    raise ValueError(f"unknown mode {mode!r}")


def dilation_identity_check(
    ps: PathSpace,
    f: Field,
    generator: ReversibleGenerator | None = None,
) -> tuple[float, float | None]:
    """Check E[f_k | x_0] = Q^{2k} f by exact enumeration at every level k = 0..N.

    When the kernel was built as Q = T^{eps/2} from ``generator`` (so the
    kernel's ``step`` is eps/2), the same quantity must equal T^{k eps} f; the
    heat operator at time 2k*step is compared independently.  Returns the
    largest deviation from the kernel powers and from the semigroup (None
    without ``generator``) over all levels.
    """
    exact = ExactPaths(ps)
    levels = reverse_martingale(ps, f)
    dev_power = 0.0
    dev_heat = None if generator is None else 0.0
    for k in range(ps.horizon + 1):
        conditioned = exact.conditioned(exact.level(levels, k))
        q2k = np.linalg.matrix_power(ps.kernel.entries, 2 * k) @ f.values
        dev_power = max(dev_power, float(np.abs(conditioned - q2k).max()))
        if generator is not None:
            heated = heat_operator(generator, 2.0 * k * ps.kernel.step).entries @ f.values
            dev_heat = max(dev_heat, float(np.abs(conditioned - heated).max()))
    return dev_power, dev_heat


def martingale_transform(ps: PathSpace, m_values: Sequence[complex], f: Field) -> PathFunctional:
    """S(omega) = sum_i M_i (g_{i+1}(x_{i+1}) - g_i(x_i)): a reverse-martingale transform."""
    m = _multiplier_row(m_values, ps.horizon)
    n = ps.n_states
    tables = _transform_tables(reverse_martingale(ps, f), m)

    def evaluator(paths: np.ndarray) -> np.ndarray:
        return _along_paths(ps, paths, np.zeros(n, dtype=complex), tables, np.add)

    return PathFunctional(evaluator)


def transform_expectation_identity(
    ps: PathSpace,
    m_values: Sequence[complex],
    f: Field,
    generator: ReversibleGenerator | None = None,
) -> tuple[float, float | None]:
    """Check E[sum_i M_i (f_{i+1} - f_i) | x_0] = sum_i M_i (Q^{2(i+1)} - Q^{2i}) f.

    With Q = T^{eps/2} and breakpoints t_i = i*eps this also equals the
    telescoping multiplier operator, which closes the loop with the step-symbol
    closed form.  Returns the largest deviation from the kernel-power form and
    from the telescoped operator (None without ``generator``).
    """
    exact = ExactPaths(ps)
    m = np.asarray(m_values, dtype=complex).ravel()
    conditioned = exact.conditioned(exact.transform(reverse_martingale(ps, f), m))

    q = ps.kernel.entries
    q2 = q @ q
    power = np.eye(ps.n_states)
    rhs = np.zeros(ps.n_states, dtype=complex)
    for i in range(ps.horizon):
        nxt = power @ q2
        rhs += m[i] * ((nxt - power) @ f.values)
        power = nxt
    dev_powers = float(np.abs(conditioned - rhs).max())

    dev_tel = None
    if generator is not None:
        eps = 2.0 * ps.kernel.step
        breakpoints = eps * np.arange(ps.horizon + 1)
        telescoped = telescoping_Tm(generator, StepMultiplier(breakpoints, m), f)
        dev_tel = float(np.abs(conditioned - telescoped.values).max())
    return dev_powers, dev_tel
