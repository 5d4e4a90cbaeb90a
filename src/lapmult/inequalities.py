"""Exact and probe-based weighted operator p-norms, and the checks built on them.

The checks are a kernel's Markov conditions (its endpoint contractions are
exact norms at p in {1, inf}), the dilation and transform identities on path
space, the multiplier, transform and L log L inequalities, and the step
approximants T_{M_n} f of T_M f.

Upper-bound statements are verified in the sound direction: norms at p in
{1, 2, inf} are exact (p = 2 by a weighted SVD), and every other p is
reported as a lower bound by probe ascent, so "no observed violation" is
meaningful.  Between the endpoints, ``opnorm_upper_bound`` bounds the norm
from above by Riesz-Thorin interpolation; the multiplier check uses it only
to skip ascents that cannot change its worst rows.  That check takes a
family, and a single chain is a family of one.  The reference constant for
transform bounds is p* - 1 with p* = max(p, p/(p-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .dilation import ExactPaths, PathSpace, check_enumerable, reverse_martingale
from .multiplier import (
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    approximate_by_steps,
    symbol_of_sampled,
    symbol_of_step,
    telescoping_Tm,
)
from .semigroup import MarkovKernel, ReversibleGenerator, heat_operator
from .space import Field, WeightedSpace, lp_norm, luxemburg_rows
from .spectral import decompose, operator_matrix

__all__ = [
    "InequalityReport",
    "reference_constant",
    "opnorm_exact",
    "verify_markov_conditions",
    "opnorm_lower_estimate",
    "opnorm_upper_bound",
    "multiplier_operator",
    "multiplier_pnorm_family_check",
    "dilation_identity_check",
    "transform_expectation_identity",
    "transform_pnorm_check",
    "llogl_chain_check",
    "step_convergence_check",
    "approximation_limit_check",
]

PASS_SLACK = 1e-9

# Relative slack by which ||E[S | x_0]||_p may exceed ||S||_p: roundoff only.
CONTRACTION_TOL = 1e-10

# Relative enlargement of a Riesz-Thorin bound.  It covers the roundoff of the
# three endpoint norms and of a probe ascent's realized ratio, each a few ulps
# per entry, so no computed lower estimate exceeds the bound.
UPPER_BOUND_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """One checked inequality lhs <= threshold * rhs, with its threshold provenance.

    Provenance is "paper" only for bounds stated as such, "reference-constant"
    for literature constants adopted as thresholds, and "report-only" for rows
    that record ratios without asserting a constant (threshold inf).
    """

    name: str
    lhs: float
    rhs: float
    ratio: float
    threshold: float
    provenance: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "threshold": self.threshold,
            "provenance": self.provenance,
            "pass": self.passed,
        }


def make_report(name: str, lhs: float, rhs: float, threshold: float, provenance: str) -> InequalityReport:
    """The row lhs <= threshold * rhs; a report-only row (threshold inf) passes iff its ratio is finite."""
    if lhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    if math.isinf(threshold):
        passed = math.isfinite(ratio)
    else:
        passed = lhs <= threshold * rhs * (1.0 + PASS_SLACK)
    return InequalityReport(name, lhs, rhs, ratio, threshold, provenance, passed)


def _interior(p: float) -> float:
    """``p``, after checking that it lies strictly between 1 and inf."""
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie strictly between 1 and inf")
    return p


def reference_constant(p: float) -> float:
    """The sharp martingale-transform constant p* - 1, p* = max(p, p/(p-1))."""
    _interior(p)
    return max(p, p / (p - 1.0)) - 1.0


def opnorm_exact(op: np.ndarray, space: WeightedSpace, p: float) -> float:
    """Exact weighted operator norm at p in {1, 2, inf}.

    p = inf is the maximal absolute row sum, p = 1 its weighted dual
    max_j (1/dx_j) sum_i dx_i |T_ij|, and p = 2 the largest singular value of
    the D^{1/2}-conjugated matrix.
    """
    t = np.asarray(op)
    n = space.n
    if t.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}")
    w = space.weights
    if math.isinf(p) and p > 0:
        return float(np.abs(t).sum(axis=1).max())
    if p == 1.0:
        return float(((w @ np.abs(t)) / w).max())
    if p == 2.0:
        s = np.sqrt(w)
        conjugated = t * s[:, None] / s[None, :]
        return float(np.linalg.svd(conjugated, compute_uv=False)[0])
    raise ValueError("exact norms are available only at p in {1, 2, inf}")


def worst_row(rows: Iterable[InequalityReport]) -> InequalityReport:
    """The row of largest ratio; the first of equal ratios is kept."""
    return max(rows, key=attrgetter("ratio"))


def verify_markov_conditions(kernel: MarkovKernel) -> dict[str, float]:
    """The maximal violations of Q's positivity, conservation, symmetry, and endpoint contraction.

    Contraction is measured at p = 1 and p = inf only, by exact norms; every
    intermediate p follows from these by interpolation.
    """
    q = kernel.entries
    w = kernel.space.weights
    return {
        "positivity_violation": max(0.0, -float(q.min())),
        "conservation_violation": float(np.abs(q.sum(axis=1) - 1.0).max()),
        "symmetry_violation": float(np.abs(w[:, None] * q - w[None, :] * q.T).max()),
        "contraction_violation_p1": max(0.0, opnorm_exact(q, kernel.space, 1.0) - 1.0),
        "contraction_violation_pinf": max(0.0, opnorm_exact(q, kernel.space, math.inf) - 1.0),
    }


def _abs2(values: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, without the hypot of ``np.abs``."""
    out = np.square(values.real)
    out += np.square(values.imag)
    return out


def _dual_power(a2: np.ndarray, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """The dual map's power ``s = a2**exponent`` and the moduli ``s * a2``.

    ``s`` is 0 where ``a2`` is (the dual map's zero support).  Exponent 1
    gives ``a2`` itself, which is already 0 off the support.  Only a support
    with exact zeros takes the masked power.  The product is formed in
    ``a2``'s buffer unless ``s`` is ``a2``.
    """
    if exponent == 1.0:
        return a2, a2 * a2
    if a2.all():
        s = np.power(a2, exponent)
    else:
        s = np.power(a2, exponent, out=np.zeros_like(a2), where=a2 > 0.0)
    a2 *= s
    return s, a2


def opnorm_lower_estimate(
    op: np.ndarray,
    space: WeightedSpace,
    p: float,
    probes: int = 64,
    ascent_steps: int = 20,
    seed: int = 0,
) -> float:
    """Certified lower bound on the weighted p-norm for 1 < p < inf.

    Seeded complex Gaussian probes (plus their modulus variants) are all
    refined by the p-norm power method (Boyd 1974, Higham 1992): f is mapped
    to the dual of Tf, pulled back by the weighted adjoint, and mapped to the
    dual again.  The estimate is the running maximum of the realized ratios
    ||Tf||_p / ||f||_p over every probe and every ascent step, so it is
    nondecreasing in both ``probes`` (prefix property of the seeded stream)
    and ``ascent_steps``.

    Each dual map takes one power of |z|^2 = re^2 + im^2: s = |Tf|^(p-2)
    gives the dual s Tf and |Tf|^p = s |Tf|^2, and b = |g|^(q-2) gives the
    update b g and its p-norm, since |b g|^p = |g|^q = b |g|^2.  Each update
    is scaled by a power of two, which is exact, so the new field's p-norm is
    the mantissa of the computed norm.  The loop skips every pass that cannot
    change a bit:

    - the power is |z|^2 itself at exponent 1 (s at p = 4, b at p = 4/3);
      only a |z|^2 with an exact zero takes the masked power;
    - the moduli s |z|^2, the power-of-two scale and the dual map s Tf are
      formed in place, over values that no later pass reads;
    - ``np.where`` runs only on a step where some column's norm is 0;
    - a mantissa lies in [0.5, 1), so once every column has a nonzero norm
      the ratios need no mask;
    - the weighted adjoint is stored C-contiguous.

    ``tests/test_inequalities.py`` keeps the loop without these shortcuts and
    requires the same value with ``==``.
    """
    _interior(p)
    if probes < 1 or ascent_steps < 0:
        raise ValueError("need probes >= 1 and ascent_steps >= 0")
    t = np.asarray(op, dtype=complex)
    n = space.n
    if t.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}")
    w = space.weights
    rng = np.random.default_rng(seed)
    # one contiguous block of 2n draws per probe keeps the stream prefix-stable,
    # so enlarging `probes` only appends probes (monotonicity of the estimate)
    z = rng.standard_normal((probes, 2, n))
    complex_probes = z[:, 0, :] + 1j * z[:, 1, :]
    fields = np.concatenate([complex_probes, np.abs(complex_probes)], axis=0).T
    q = p / (p - 1.0)
    inv_p = 1.0 / p
    image_exponent = 0.5 * (p - 2.0)
    pullback_exponent = 0.5 * (q - 2.0)
    # the adjoint of T in L^2(w) is D^-1 T^H D with D = diag(w)
    adjoint = np.ascontiguousarray(t.conj().T * w[None, :] / w[:, None])
    den = (w @ _abs2(fields) ** (0.5 * p)) ** inv_p
    live = den > 0.0
    if live.all():
        live = None

    best = 0.0
    for step in range(ascent_steps + 1):
        images = t @ fields
        s, moduli = _dual_power(_abs2(images), image_exponent)
        num = (w @ moduli) ** inv_p
        if live is None:
            best = max(best, float((num / den).max()))
        elif live.any():
            best = max(best, float((num[live] / den[live]).max()))
        if step == ascent_steps:
            break
        images *= s
        pullback = adjoint @ images
        b, moduli = _dual_power(_abs2(pullback), pullback_exponent)
        norms = (w @ moduli) ** inv_p
        mantissa, exponent = np.frexp(norms)
        pullback *= np.ldexp(b, -exponent, out=b)
        moved = norms > 0.0
        if moved.all():
            fields, den, live = pullback, mantissa, None
        else:
            fields = np.where(moved, pullback, fields)
            den = np.where(moved, mantissa, den)
            live = den > 0.0
    return best


def _endpoint_norms(op: np.ndarray, space: WeightedSpace) -> tuple[float, float, float]:
    """The exact norms at p = 1, 2 and inf."""
    return opnorm_exact(op, space, 1.0), opnorm_exact(op, space, 2.0), opnorm_exact(op, space, math.inf)


def _interpolate(norms: tuple[float, float, float], p: float) -> float:
    """The Riesz-Thorin bound at p from the endpoint norms, enlarged by ``UPPER_BOUND_MARGIN``."""
    n1, n2, n_inf = norms
    if p < 2.0:
        bound = n1 ** (2.0 / p - 1.0) * n2 ** (2.0 - 2.0 / p)
    else:
        bound = n2 ** (2.0 / p) * n_inf ** (1.0 - 2.0 / p)
    return bound * (1.0 + UPPER_BOUND_MARGIN)


def opnorm_upper_bound(op: np.ndarray, space: WeightedSpace, p: float) -> float:
    """Certified upper bound on the weighted p-norm for 1 < p < inf.

    Riesz-Thorin interpolation between the exact norms of ``opnorm_exact``:
    ||T||_p <= ||T||_1^{2/p-1} ||T||_2^{2-2/p} for p < 2 and
    ||T||_p <= ||T||_2^{2/p} ||T||_inf^{1-2/p} for p > 2.  Complex
    interpolation is the tool the paper avoids, so this is a route to the
    multiplier bound that shares nothing with its proof.  The value is
    enlarged by ``UPPER_BOUND_MARGIN``, so it is never below
    ``opnorm_lower_estimate`` at any probe budget.
    """
    _interior(p)
    return _interpolate(_endpoint_norms(op, space), p)


def multiplier_operator(
    generator: ReversibleGenerator, multiplier: StepMultiplier | SampledMultiplier
) -> tuple[np.ndarray, float]:
    """The dense matrix of T_m together with sup|M|."""
    if isinstance(multiplier, StepMultiplier):
        symbol, sup = symbol_of_step(multiplier), multiplier.sup_norm
    elif isinstance(multiplier, SampledMultiplier):
        symbol, sup = symbol_of_sampled(multiplier), multiplier.declared_sup
    else:
        raise TypeError("multiplier must be a StepMultiplier or SampledMultiplier")
    return operator_matrix(decompose(generator), symbol.evaluator), sup


def pnorm_growth_fit(
    per_p_ratios: Iterable[tuple[float, float]],
) -> tuple[float | None, float | None]:
    """Least-squares line of ratio against 1/(p - 1) over the points with p <= 2.

    Returns (None, None) unless there are two such points, all finite.
    """
    points = [(1.0 / (p - 1.0), r) for p, r in per_p_ratios if p <= 2.0]
    if len(points) < 2 or not all(math.isfinite(r) for _, r in points):
        return None, None
    xs, ys = zip(*points)
    slope, intercept = (float(v) for v in np.polyfit(xs, ys, 1))
    return slope, intercept


def _pnorm_row(p: float, value: float, sup: float) -> InequalityReport:
    """The row ||T_m||_p <= c_p sup|M|: c_2 = 1 from the paper, else the reference constant."""
    if p == 2.0:
        threshold, provenance = 1.0, "paper"
    else:
        threshold, provenance = reference_constant(p), "reference-constant"
    return make_report(f"multiplier-pnorm p={p:g}", value, sup, threshold, provenance)


def multiplier_pnorm_family_check(
    members: Iterable[tuple[ReversibleGenerator, StepMultiplier | SampledMultiplier]],
    p_grid: Sequence[float],
    probes: int = 200,
    ascent_steps: int = 20,
    seed: int = 0,
) -> tuple[InequalityReport, ...]:
    """The worst row ||T_m||_p <= c_p sup|M| over a family, per p of a grid in (1, inf), in grid order.

    A single chain is the family ``[(generator, multiplier)]``.  Member i's
    value is its exact norm at p = 2, against the paper's threshold 1 (the
    spectral bound), and elsewhere its probe-ascent lower bound with seed
    ``seed + i``, against p* - 1.  The worst row is the first of the largest
    ratios in member order (``worst_row``); a repeated p repeats its row.  At
    each p the members are visited in descending order of their certified
    ratio ``opnorm_upper_bound / sup`` (the enlarged exact norm at p = 2), and
    the visit stops at the first member whose bound lies below the largest
    ratio found so far: its ratio, and every later one's, is strictly below
    the worst, so it can neither set nor tie it.  A member whose bound ratio
    is not finite, a zero sup included, is always visited.
    """
    grid = [_interior(float(p)) for p in p_grid]
    operators = [(gen.space, *multiplier_operator(gen, m)) for gen, m in members]
    norms = [_endpoint_norms(op, space) for space, op, _ in operators]
    worst: dict[float, InequalityReport] = {}
    for p in grid:
        if p in worst:
            continue
        reach = []
        for (_, _, sup), endpoint in zip(operators, norms):
            ratio = _interpolate(endpoint, p) / sup if sup > 0.0 else math.inf
            reach.append(ratio if math.isfinite(ratio) else math.inf)
        rows: dict[int, InequalityReport] = {}
        best = -math.inf
        for i in sorted(range(len(reach)), key=reach.__getitem__, reverse=True):
            if reach[i] < best:
                break
            space, op, sup = operators[i]
            if p == 2.0:
                value = norms[i][1]
            else:
                value = opnorm_lower_estimate(op, space, p, probes, ascent_steps, seed + i)
            rows[i] = _pnorm_row(p, value, sup)
            best = max(best, rows[i].ratio)
        worst[p] = worst_row(rows[i] for i in sorted(rows))
    return tuple(worst[p] for p in grid)


def dilation_identity_check(
    ps: PathSpace,
    f: Field,
    generator: ReversibleGenerator | None = None,
) -> tuple[float, float | None]:
    """Check E[f_k | x_0] = Q^{2k} f over every path at every level k = 0..N.

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


def _unit_sup(m_values: Sequence[complex]) -> np.ndarray:
    """The multiplier values scaled to sup 1 along axis 0, per field (left as they are when all zero)."""
    m = np.asarray(m_values, dtype=complex)
    sup = np.abs(m).max(axis=0, initial=0.0)
    return np.divide(m, sup, out=m.copy(), where=sup > 0.0)


def transform_pnorm_check(
    ps: PathSpace,
    m_values: Sequence[complex],
    f: Field,
    p_grid: Sequence[float],
) -> tuple[tuple[InequalityReport, float], ...]:
    """Exact path-space check of ||sum M_i (f_{i+1} - f_i)||_p <= (p* - 1) ||f||_p at each p.

    Returns (row, contraction excess) per p, in grid order.  Multiplier values
    are normalized to sup 1 first (the bound is homogeneous).  The excess is
    the relative amount by which ||E[S | x_0]||_p exceeds ||S||_p; conditioning
    is a contraction, so it may be roundoff only (``CONTRACTION_TOL``).  The
    transform's path values and its conditional expectation do not depend on
    p, so they are computed once for the whole grid.
    """
    exact = ExactPaths(ps)
    values = exact.transform(reverse_martingale(ps, f), _unit_sup(m_values))
    moduli = np.abs(values)
    law = ps.kernel.space.normalized()
    field = Field(law, f.values)
    conditioned = Field(law, exact.conditioned(values))
    results = []
    for p in p_grid:
        lhs = exact.lp_norm(moduli, p)
        report = make_report(
            f"transform-pnorm p={p:g}", lhs, lp_norm(field, p), reference_constant(p), "reference-constant"
        )
        c_lhs = lp_norm(conditioned, p)
        if lhs > 0.0:
            excess = max(0.0, (c_lhs - lhs) / lhs)
        else:
            excess = 0.0 if c_lhs == 0.0 else math.inf
        results.append((report, excess))
    return tuple(results)


# The most path values one block of a chain's fields holds: 8 fields at 4^6 paths.
_LLOGL_BLOCK_VALUES = 2**15


def _llogl_field_blocks(ps: PathSpace, batch: Sequence) -> list[tuple[np.ndarray, np.ndarray]]:
    """(multipliers normalized to sup 1, levels) of each block of the batch, with a trailing field axis."""
    batch, size = list(batch), max(1, _LLOGL_BLOCK_VALUES // ps.path_count)
    parts = [batch[i : i + size] for i in range(0, len(batch), size)]
    return [(_unit_sup(np.transpose([m for m, _ in part])), reverse_martingale(ps, [f for _, f in part]))
            for part in parts]


def llogl_chain_check(
    chains: Sequence[tuple[PathSpace, Sequence[tuple[Sequence[complex], Field]]]],
) -> tuple[tuple[tuple[InequalityReport, ...], ...], ...]:
    """The four rows of the L^1 comparison chain for each (multipliers, field) pair of each chain.

    ``chains`` holds (path space, batch) pairs, all spaces of unit mass and
    of one state count (chains of several counts raise ``ValueError``); the
    result holds, per chain, one tuple of rows per pair, in order.
    Steps, in row order: E|S| vs E[(sum |df_i|^2)^{1/2}] (Davis' theorem), that square
    function vs E[sup_i |f_i|], the maximal function vs ||f||_{L log L} (the
    corollary of Doob's inequality), and end-to-end ||E[S | x_0]||_1 vs
    sup|M| ||f||_{L log L}.  Multiplier values are normalized to sup 1; the
    empirical ratios stand in for the unspecified universal constant, so every
    threshold is report-only.

    The state counts, every space's mass and its enumeration limits are
    checked before any batch is read.  A chain's pairs go in blocks of at
    most ``_LLOGL_BLOCK_VALUES`` path values, and each block's levels,
    multipliers and reductions take one pass with a trailing field axis
    (:class:`ExactPaths`), with the bits of each pair checked on its own.
    The L log L norms of all fields share one bisection
    (:func:`~lapmult.space.luxemburg_rows`: each row summed against its own
    space's weights by one BLAS dot through ``np.vecdot``, so with the bits
    of a bisection of its own), and each chain folds its weights and path
    measure once in one :class:`ExactPaths`, shared by its blocks.
    """
    chains = list(chains)
    counts = sorted({ps.n_states for ps, _ in chains})
    if len(counts) > 1:
        raise ValueError(f"the L log L chains must share one state count, got {counts}")
    for ps, _ in chains:
        if abs(ps.kernel.space.total_mass - 1.0) > 1e-9:
            raise ValueError("the L log L chain needs a unit-mass space")
        check_enumerable(ps.n_states, ps.horizon)
    if not chains:
        return ()
    blocks = [_llogl_field_blocks(ps, batch) for ps, batch in chains]
    moduli = np.abs([row for chain_blocks in blocks for _, levels in chain_blocks for row in levels[0].T])
    sizes = [sum(levels.shape[2] for _, levels in chain_blocks) for chain_blocks in blocks]
    weights = np.repeat([ps.kernel.space.weights for ps, _ in chains], sizes, axis=0)
    llogls = iter(luxemburg_rows(moduli.reshape(-1, counts[0]), weights).tolist())

    inf = math.inf
    results = []
    for (ps, _), chain_blocks in zip(chains, blocks):
        space = ps.kernel.space
        exact = ExactPaths(ps)
        rows = []
        for m, levels in chain_blocks:
            transform = exact.transform(levels, m)
            e_transform = exact.lp_norm(np.abs(transform), 1.0).tolist()
            e_square = exact.lp_norm(exact.square(levels), 1.0).tolist()
            e_maximal = exact.lp_norm(exact.maximal(levels), 1.0).tolist()
            end_lhs = [lp_norm(Field(space, values), 1.0) for values in exact.conditioned(transform).T]
            for e_t, e_s, e_m, end, llogl in zip(e_transform, e_square, e_maximal, end_lhs, llogls):
                rows.append((
                    make_report("davis-step", e_t, e_s, inf, "report-only"),
                    make_report("square-vs-maximal", e_s, e_m, inf, "report-only"),
                    make_report("maximal-vs-llogl", e_m, llogl, inf, "report-only"),
                    make_report("end-to-end-llogl", end, llogl, inf, "report-only"),
                ))
        results.append(tuple(rows))
    return tuple(results)


def _approximants(
    generator: ReversibleGenerator,
    sampled: SampledMultiplier,
    f: Field,
    piece_counts: Sequence[int],
) -> tuple[Field, list[tuple[StepMultiplier, Field]]]:
    """T_M f and, per piece count n, the midpoint step approximation M_n with T_{M_n} f."""
    dec = decompose(generator)
    target = apply_Tm(dec, symbol_of_sampled(sampled), f)
    approximants = []
    for n in piece_counts:
        step = approximate_by_steps(sampled, int(n))
        approximants.append((step, apply_Tm(dec, symbol_of_step(step), f)))
    return target, approximants


def step_convergence_check(
    generator: ReversibleGenerator,
    sampled: SampledMultiplier,
    f: Field,
    piece_counts: Sequence[int],
) -> tuple[float, ...]:
    """The errors ||T_{M_n} f - T_M f||_2 of the midpoint step approximations, one per piece count."""
    target, approximants = _approximants(generator, sampled, f, piece_counts)
    return tuple(lp_norm(approx - target, 2.0) for _, approx in approximants)


def approximation_limit_check(
    generator: ReversibleGenerator,
    sampled: SampledMultiplier,
    f: Field,
    piece_counts: Sequence[int],
    p: float,
    tol: float = 1e-2,
) -> tuple[InequalityReport, ...]:
    """Bound ||T_m f||_p through its step approximants: one row per piece count, then the limit row.

    Each approximant satisfies ||T_n f||_p <= (p* - 1) sup|M_n| ||f||_p, and the
    limit operator's norm must not exceed the largest tail approximant norm by
    more than ``tol``.  The norms converge at the step-approximation rate, so
    ``tol`` must dominate the residual gap at the largest piece count.
    """
    c_p = reference_constant(p)
    f_norm = lp_norm(f, p)
    target, approximants = _approximants(generator, sampled, f, piece_counts)
    reports = []
    approx_norms = []
    for n, (step, approx) in zip(piece_counts, approximants):
        value = lp_norm(approx, p)
        approx_norms.append(value)
        reports.append(
            make_report(
                f"approx-bound n={int(n)}",
                value,
                step.sup_norm * f_norm,
                c_p,
                "reference-constant",
            )
        )
    tail = approx_norms[len(approx_norms) // 2 :]
    reports.append(make_report("limit-bound", lp_norm(target, p), max(tail) + tol, 1.0, "paper"))
    return tuple(reports)
