"""Path-space dilation of a kernel: reverse martingales, conditional expectations, transforms.

The product space is Omega = X^{N+1} with measure
P(x_0, ..., x_N) = nu(x_0) Q(x_0, x_1) ... Q(x_{N-1}, x_N), where nu is the
normalized weight vector.  The coordinate filtration decreasing in k makes
f_k(omega) = (Q^k f)(x_k) a reverse martingale, and conditioning on the first
coordinate realizes even kernel powers: E[f_k | x_0] = Q^{2k} f.  With
Q = T^{eps/2} (:func:`dilate`) these are the heat operators T^{k eps}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._keep import keep, kept
from .semigroup import MarkovKernel, ReversibleGenerator, heat_operator
from .space import Field, same_space

__all__ = [
    "PathSpace",
    "dilate",
    "PathFunctional",
    "ExactPaths",
    "EnumerationBudgetError",
    "DEFAULT_PATH_BUDGET",
    "MAX_TABLE_HORIZON",
    "check_enumerable",
    "all_paths",
    "transition_products",
    "reverse_martingale",
    "hat_expectation",
    "path_lp_norm",
    "martingale_transform",
]

DEFAULT_PATH_BUDGET = 1_000_000

# The path table is built through an array of horizon + 2 axes, and the
# exact reductions fold through one of horizon + 1; numpy 2 allows at most 64,
# so no exact path reduction reaches past this horizon.
MAX_TABLE_HORIZON = 62


class EnumerationBudgetError(RuntimeError):
    """Exact path enumeration would exceed ``DEFAULT_PATH_BUDGET`` paths."""


@dataclass(frozen=True, eq=False)
class PathSpace:
    """Kernel Q, horizon N, and the stationary initial law nu = weights / total mass.

    A space keeps one read-only path set (see ``lapmult._keep``): the
    enumerated table, as a one-array set under the key None
    (:func:`all_paths`), or its last stratified Monte Carlo draw, under the
    key ``(seed, samples)`` (``_draw``).  Each replaces the other, so a
    caller that alternates exact and Monte Carlo reductions on one space
    rebuilds the table or the draw at each switch.  Only an arbitrary
    functional's exact reduction reads the table; ``ExactPaths`` folds
    per-step tables and builds none.
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

    def _draw(self, seed: int, samples: int) -> tuple[np.ndarray, ...]:
        """The stratified sample for ``(seed, samples)``: one read-only path array per start state.

        The strata come from one ``default_rng(seed)`` stream, in state order.
        The space keeps the draw as its path set, keyed on ``(seed, samples)``.
        """
        return keep(self, (seed, samples), lambda: _sample_strata(self, seed, samples))


def dilate(generator: ReversibleGenerator, epsilon: float, horizon: int) -> PathSpace:
    """The path space of Q = T^{eps/2} = heat_operator(generator, eps/2) to ``horizon``.

    Its level-k conditional expectations are E[f_k | x_0] = Q^{2k} f = T^{k eps} f,
    which realizes the semigroup at the breakpoints t_k = k eps.
    """
    return PathSpace(heat_operator(generator, epsilon / 2.0), horizon)


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

    The limits are checked on every call (:func:`check_enumerable`).  The
    space keeps the table as its path set, so calls return the same array
    until a Monte Carlo draw replaces it; the next call then builds an equal
    one.
    """
    check_enumerable(ps.n_states, ps.horizon)
    return keep(ps, None, lambda: (_enumerate(ps),))[0]


def _enumerate(ps: PathSpace) -> np.ndarray:
    steps = ps.horizon + 1
    paths = np.indices((ps.n_states,) * steps, dtype=np.int32).reshape(steps, -1).T
    paths.setflags(write=False)
    return paths


def check_enumerable(n: int, horizon: int) -> None:
    """Raise unless every path of ``n`` states to ``horizon`` may be enumerated or folded.

    This is the one statement of the limits: at most ``DEFAULT_PATH_BUDGET``
    paths (read at call time and checked first; ``EnumerationBudgetError``),
    then a horizon of at most ``MAX_TABLE_HORIZON`` (``ValueError``).  Two or
    more states give at least 2**steps paths, so past the budget's bit length
    the count is reported as n**steps and never formed.
    """
    budget, steps = DEFAULT_PATH_BUDGET, horizon + 1
    count = n**steps if n < 2 or steps <= budget.bit_length() else None
    if count is None or count > budget:
        raise EnumerationBudgetError(
            f"n = {n} and horizon = {horizon} give {f'{n}**{steps}' if count is None else count} paths, "
            f"past the enumeration budget of {budget}"
        )
    if horizon > MAX_TABLE_HORIZON:
        raise ValueError(f"horizon = {horizon} is past the path table's limit of {MAX_TABLE_HORIZON}")


def _fold(start: np.ndarray, tables: Sequence[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """Fold per-step tables down the path tree, in :func:`all_paths` order.

    ``start`` holds each start state's value at x_0; step k applies ``ufunc``
    to the accumulated value of each prefix x_0..x_k and ``tables[k][x_k,
    x_{k+1}]`` (a table without the x_k axis is read as constant in x_k).
    Axes of ``start`` after the first are field axes, which every table ends
    with too; the result holds one row per path, then the field axes.  Level
    k holds only the n^{k+1} prefixes, yet each path's value goes through the
    operations a per-path gather would apply, in the same order, so the bits
    are the same.
    """
    acc, fields = start, start.shape[1:]
    step = (..., None) + (slice(None),) * len(fields)  # a new state axis before the field axes
    for table in tables:
        acc = ufunc(acc[step], table)
    return acc.reshape(-1, *fields)


def _along_paths(ps: PathSpace, paths: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """acc = 0, then acc += tables[k][x_k, x_{k+1}] at each step k, per path; read-only.

    Each flat (n, n) complex table is gathered at x_k * n + x_{k+1} in place:
    the operations :func:`_fold` applies to the table from a zero start, in
    the same order, so every path keeps its bits.
    """
    n = ps.n_states
    acc = np.zeros(len(paths), dtype=complex)
    for k, table in enumerate(tables):
        acc += table.take(paths[:, k] * n + paths[:, k + 1])
    acc.setflags(write=False)
    return acc


def _along_path_set(ps: PathSpace, key, arrays: Sequence[np.ndarray], tables: Sequence[np.ndarray]) -> tuple:
    """:func:`_along_paths` on each array of the space's path set under ``key``, in order; read-only.

    The key chooses once for the whole set: the table (key None) folds down
    the path tree (:func:`_fold`), and each stratum of a draw gathers.
    """
    if key is not None:
        return tuple(_along_paths(ps, paths, tables) for paths in arrays)
    values = _fold(np.zeros(ps.n_states, dtype=complex), tables, np.add)
    values.setflags(write=False)
    return (values,)


def transition_products(ps: PathSpace) -> np.ndarray:
    """prod_k Q(x_k, x_{k+1}), each path's weight conditional on its start, in :func:`all_paths` order; read-only.

    The kernel's products ((1 q_0) q_1) ... fold down the path tree, bit for
    bit the per-path product; no path table is built.  The limits are checked
    on every call (:func:`check_enumerable`).  The weights depend on the
    kernel and the horizon alone, so the kernel keeps them for its last
    horizon (see ``lapmult._keep``): every space on one kernel and horizon,
    and every ``ExactPaths`` on it, reads one array.
    """
    check_enumerable(ps.n_states, ps.horizon)
    return keep(ps.kernel, ps.horizon, lambda: _fold_weights(ps.kernel, ps.horizon))


def _fold_weights(kernel: MarkovKernel, horizon: int) -> np.ndarray:
    weights = _fold(np.ones(kernel.space.n), [kernel.entries] * horizon, np.multiply)
    weights.setflags(write=False)
    return weights


def reverse_martingale(ps: PathSpace, f: Field | Sequence[Field]) -> np.ndarray:
    """Level fields g_0 = f, g_{k+1} = Q g_k for k = 0..N as the rows of one read-only array.

    The (N+1) x n complex array makes f_k(omega) = ``levels[k][x_k]`` a reverse
    martingale.  For a sequence of F fields the levels take a trailing field
    axis, (N+1) x n x F.  Each field's level vectors are contiguous and each
    step is one stacked matrix-vector product, ``q @ (F, n, 1)``: a BLAS gemv
    per field, the bits of ``q @ g_k``, where ``q @ (n, F)`` would run a gemm
    and move them.
    """
    fields = [f] if isinstance(f, Field) else list(f)
    if not all(same_space(ps.kernel.space, g.space) for g in fields):
        raise ValueError("field lives on a different space than the kernel")
    q = ps.kernel.entries
    levels = np.empty((len(fields), ps.horizon + 1, ps.n_states), dtype=complex)
    levels[:, 0] = [g.values for g in fields]
    for k in range(ps.horizon):
        levels[:, k + 1, :, None] = q @ levels[:, k, :, None]
    levels = np.ascontiguousarray(levels.transpose(1, 2, 0))
    levels.setflags(write=False)
    return levels[..., 0] if isinstance(f, Field) else levels


def _increment_tables(levels: np.ndarray) -> np.ndarray:
    """Per step i (axis 0), the n x n table of g_{i+1}[y] - g_i[x] at [x, y] (flat index x*n + y), then field axes."""
    return levels[1:, None] - levels[:-1, :, None]


def _transform_tables(increments: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    return [mi * increment for mi, increment in zip(m, increments)]


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, after checking that a path functional is finite on every path it saw."""
    if not np.all(np.isfinite(values)):
        raise ValueError("path functional returned non-finite values")
    return values


def _multiplier_row(m_values: Sequence[complex], horizon: int, fields: tuple[int, ...] = ()) -> np.ndarray:
    """The multiplier values as an array of shape (horizon, *fields)."""
    m, count = np.asarray(m_values, dtype=complex), horizon * math.prod(fields)
    if m.size != count:
        raise ValueError(f"need exactly {count} multiplier values, got {m.size}")
    return m.reshape(horizon, *fields)


class ExactPaths:
    """The exact reductions over every path of one path space, in :func:`all_paths` order.

    This is the one exact route: exact-mode ``hat_expectation`` and
    ``path_lp_norm``, both identity checks and the batched transform and
    L log L checks all go through it.  It holds no path array: the
    constructor reads the conditional weights, which every reduction reads,
    from :func:`transition_products`, which checks the enumeration limits;
    the kernel keeps them, so the exact reductions on one kernel and horizon
    fold them once.  The path measure is built on first use and kept by this
    object (see ``lapmult._keep``), never by the space.  Only an arbitrary functional,
    which ``hat_expectation`` and ``path_lp_norm`` evaluate on
    :func:`all_paths`, reads the path table.

    The reductions take a trailing field axis: levels of shape (N+1) x n x F
    (:func:`reverse_martingale` of F fields) and multipliers N x F give path
    values of shape paths x F, E[S | x_0] of shape n x F and F norms, one
    pass for all F fields.  A single field is the case without that axis.

    Every reduction gives the same bits as a per-path evaluation of one
    field.  Each start state's paths form one contiguous block, so E[S | x_0]
    is a running sum along each block, which adds the paths in the order a
    per-state accumulation would (a ``sum`` over the block would add them
    pairwise), and the measure is nu(x_0) repeated over its block times the
    weights.  Level k repeats g_k(y) over the n^{N-k} paths that continue a
    prefix ending at y, and tiles that over the n^k prefixes.  The weights,
    the transform, the square function and the maximal function fold
    per-step tables down the path tree (:func:`_fold`): Q, M_i (g_{i+1}[y] -
    g_i[x]), the squared modulus of the raw increment, and |g_{k+1}| per
    state.  A transform folds the same way on the table and gathers the same
    per-step rule on sampled paths (:func:`_along_paths`).  Each path still
    sees the operations of a per-path gather in step order.  An L^p norm is
    one BLAS dot per field, ``measure @ |S|**p`` (``measure @ |S|`` at
    p = 1), taken by ``np.vecdot`` over each field's contiguous row: a row
    read through a transposed view, a gemv, an ``einsum`` or a ``sum`` over
    a (fields x paths) block changes last bits.
    """

    def __init__(self, ps: PathSpace) -> None:
        self.ps = ps
        self.weights = transition_products(ps)  # each path's weight conditional on its start

    @property
    def measure(self) -> np.ndarray:
        """Each path's probability P(omega) = nu(x_0) * prod_k Q(x_k, x_{k+1})."""
        ps = self.ps
        return keep(self, None, lambda: np.repeat(ps.initial_law, ps.n_states**ps.horizon) * self.weights)

    def level(self, levels: np.ndarray, k: int) -> np.ndarray:
        """The level-k martingale value f_k(omega) = g_k(x_k) on every path."""
        if not 0 <= k <= self.ps.horizon:
            raise ValueError("level outside the horizon")
        n = self.ps.n_states
        return np.tile(np.repeat(levels[k], n ** (self.ps.horizon - k)), n**k)

    def transform(self, levels: np.ndarray, m_values: Sequence[complex]) -> np.ndarray:
        """S = sum_i M_i (g_{i+1}(x_{i+1}) - g_i(x_i)) on every path."""
        fields = levels.shape[2:]
        m = _multiplier_row(m_values, self.ps.horizon, fields)
        tables = _transform_tables(_increment_tables(levels), m)
        return _fold(np.zeros((self.ps.n_states, *fields), dtype=complex), tables, np.add)

    def square(self, levels: np.ndarray) -> np.ndarray:
        """The square function (sum_i |g_{i+1}(x_{i+1}) - g_i(x_i)|^2)^{1/2} on every path.

        A transform with signs M_i = +-1 has the same square function, so the
        L log L chain needs only the raw increments.
        """
        start = np.zeros((self.ps.n_states, *levels.shape[2:]))
        return np.sqrt(_fold(start, np.abs(_increment_tables(levels)) ** 2, np.add))

    def maximal(self, levels: np.ndarray) -> np.ndarray:
        """The maximal function max_k |g_k(x_k)| on every path."""
        moduli = np.abs(levels)
        return _fold(moduli[0], moduli[1:], np.maximum)

    def conditioned(self, values: np.ndarray) -> np.ndarray:
        """E[S | x_0] from S on every path.

        ``+ 0.0`` gives a per-state accumulation's +0.0 where every term is -0.0.
        """
        svals = _finite(np.asarray(values, dtype=complex))
        fields = svals.shape[1:]
        blocks = (self.weights.reshape(-1, *(1,) * len(fields)) * svals).reshape(self.ps.n_states, -1, *fields)
        np.cumsum(blocks, axis=1, out=blocks)
        return blocks[:, -1] + 0.0

    def lp_norm(self, avals: np.ndarray, p: float) -> float | np.ndarray:
        """||S||_{L^p(P)} from the moduli |S| on every path: a float, or one norm per field."""
        if not p >= 1.0:
            raise ValueError("p must satisfy p >= 1")
        _finite(avals)
        if math.isinf(p):
            norms = avals[self.measure > 0.0].max(axis=0, initial=0.0)
        else:
            rows = np.ascontiguousarray(np.moveaxis(avals, 0, -1))
            norms = np.vecdot(rows, self.measure) if p == 1.0 else np.vecdot(rows**p, self.measure) ** (1.0 / p)
        return float(norms) if norms.ndim == 0 else norms


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
    so each coordinate ``paths[:, k]`` is contiguous.

    Each step counts in the smallest unsigned type that holds n - 1 (uint8 up
    to 256 states) and adds each comparison as a ``uint8`` view: adding a
    bool array into an int32 row casts it first, 14.1 us per 50 000 draws
    against 2.6 us into uint8 and 7.8 us into uint16 (``timeit``, numpy 2.4).
    At step 0 every path is at ``start``, so its draws meet that row's
    scalars with no gather.  Later steps gather each column at the state row cast to
    ``np.intp``, because ``take`` with int32 indices is about 5x slower than
    with native ones.
    """
    columns = np.cumsum(ps.kernel.entries.T, axis=0)[:-1]
    rows = np.empty((ps.horizon + 1, count), dtype=np.int32)
    rows[0] = start
    counter = np.empty(count, dtype=np.min_scalar_type(ps.n_states - 1))
    for k in range(ps.horizon):
        u = rng.random(count)
        counter.fill(0)
        if k == 0:
            for threshold in columns[:, start]:
                counter += (u > threshold).view(np.uint8)
        else:
            here = rows[k].astype(np.intp)
            for column in columns:
                counter += (u > column.take(here)).view(np.uint8)
        rows[k + 1] = counter
    return rows.T


def _sample_strata(ps: PathSpace, seed: int, samples: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(seed)
    counts = _stratum_counts(ps, samples)
    strata = tuple(_sample_stratum(ps, rng, counts[x], x) for x in range(ps.n_states))
    for paths in strata:
        paths.setflags(write=False)
    return strata


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


def _exact_values(
    ps: PathSpace, functional: PathFunctional, seed: int | None, samples: int | None
) -> tuple[np.ndarray, ExactPaths]:
    """The functional's values on the path table, which only this reads, and the exact route."""
    if seed is not None or samples is not None:
        raise ValueError("seed and samples apply to Monte Carlo mode only")
    return np.asarray(functional.evaluator(all_paths(ps))), ExactPaths(ps)


def hat_expectation(
    ps: PathSpace,
    functional: PathFunctional,
    mode: str = "exact",
    *,
    seed: int | None = None,
    samples: int | None = None,
) -> Field | tuple[Field, np.ndarray]:
    """The conditional expectation x -> E[S | pi_0 = x].

    Exact mode evaluates the functional on the path table (:func:`all_paths`)
    and conditions through :class:`ExactPaths`; Monte Carlo stratifies on the
    initial state (allocation proportional to nu, at least two samples each)
    and returns (estimate, per-state standard errors), the errors from the
    sample variances (ddof 1).  ``seed`` and ``samples`` are integers; the
    space keeps the draw as its path set, so a ``path_lp_norm`` with the same
    pair reuses it.  Exact mode takes neither.  A :func:`martingale_transform`
    keeps its values on the space's path set, so a ``path_lp_norm`` on the
    same path set reuses them rather than evaluating the transform again.
    """
    space = ps.kernel.space
    if mode == "exact":
        values, exact = _exact_values(ps, functional, seed, samples)
        return Field(space, exact.conditioned(values))
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
    reuses the space's draw when the pair matches, as ``hat_expectation``
    does.  Exact mode evaluates the functional on the path table
    (:func:`all_paths`) and takes neither ``seed`` nor ``samples``.  On the
    space's path set, once a :func:`martingale_transform` has seen it, the
    transform's kept values are reused, with the same bits.
    """
    if not p >= 1.0:
        raise ValueError("p must satisfy p >= 1")
    if mode == "exact":
        values, exact = _exact_values(ps, functional, seed, samples)
        return exact.lp_norm(np.abs(values), p)
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


def _path_set(ps: PathSpace, paths: np.ndarray) -> tuple[object, tuple[np.ndarray, ...], int] | None:
    """The key and arrays of the space's path set when it holds ``paths``, and the place of ``paths`` in them.

    ``paths`` must be one of the kept arrays itself: the table (key None,
    place 0) or a stratum of the current draw (place = start state).  The key
    tells them apart, never the shape: a stratum can have the table's rows.
    Any other array has none: a copy of the table, another space's paths, or
    a path set the space has since replaced.  Never builds or draws anything.
    """
    key, arrays = kept(ps) or (None, ())
    for place, array in enumerate(arrays):
        if paths is array:
            return key, arrays, place
    return None


def martingale_transform(ps: PathSpace, m_values: Sequence[complex], f: Field) -> PathFunctional:
    """S(omega) = sum_i M_i (g_{i+1}(x_{i+1}) - g_i(x_i)): a reverse-martingale transform.

    The evaluator's values are read-only.  On the space's path set it
    evaluates every array of the set at once (:func:`_along_path_set`: a
    fold on the table, a gather on the strata of a draw) and keeps the values
    under the set's key (see ``lapmult._keep``).  The key fixes the set's
    bits, so values kept for it also serve the set rebuilt.  So the
    reductions of ``hat_expectation`` and ``path_lp_norm`` evaluate each path
    set once, with the same bits.  Any other array gets a fresh gather.
    """
    m = _multiplier_row(m_values, ps.horizon)
    tables = _transform_tables(_increment_tables(reverse_martingale(ps, f)), m)
    held: dict = {}

    def evaluator(paths: np.ndarray) -> np.ndarray:
        found = _path_set(ps, paths)
        if found is None:
            return _along_paths(ps, paths, tables)
        key, arrays, place = found
        return keep(held, key, lambda: _along_path_set(ps, key, arrays, tables))[place]

    return PathFunctional(evaluator)
