"""Exact and probe-based weighted operator p-norms, and the checks built on them.

The checks are a kernel's Markov conditions (its endpoint contractions are
exact norms at p in {1, inf}) and the multiplier, transform and L log L
inequalities.

Upper-bound statements are verified in the sound direction: general-p norms are
certified only as lower bounds, so "no observed violation" is meaningful.  The
reference constant for transform bounds is p* - 1 with p* = max(p, p/(p-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dilation import (
    DEFAULT_PATH_BUDGET,
    PathSpace,
    hat_expectation,
    martingale_transform,
    path_lp_norm,
    reverse_martingale,
    square_and_maximal,
)
from .multiplier import (
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    approximate_by_steps,
    symbol_of_sampled,
    symbol_of_step,
)
from .semigroup import MarkovKernel, ReversibleGenerator
from .space import Field, WeightedSpace, llogl_norm, lp_norm
from .spectral import decompose, operator_matrix

__all__ = [
    "NormEstimate",
    "InequalityReport",
    "reference_constant",
    "opnorm_exact",
    "ConditionReport",
    "verify_markov_conditions",
    "opnorm_lower_estimate",
    "multiplier_operator",
    "multiplier_pnorm_check",
    "MultiplierPnormResult",
    "transform_pnorm_check",
    "TransformPnormResult",
    "llogl_chain_check",
    "LloglChainResult",
    "approximation_limit_check",
    "ApproximationLimitResult",
]

_PASS_SLACK = 1e-9

_INTERPOLATION_NOTE = (
    "contraction for intermediate 1 < p < inf follows from the "
    "p in {1, inf} endpoints by interpolation; it is not re-verified per p"
)


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """An operator norm value with its kind (exact or lower_bound) and method tag."""

    value: float
    kind: str
    method: str
    probes_used: int


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
    if lhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    if math.isinf(threshold):
        passed = math.isfinite(lhs)
    else:
        passed = lhs <= threshold * rhs * (1.0 + _PASS_SLACK)
    return InequalityReport(name, lhs, rhs, ratio, threshold, provenance, passed)


def reference_constant(p: float) -> float:
    """The sharp martingale-transform constant p* - 1, p* = max(p, p/(p-1))."""
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie strictly between 1 and inf")
    return max(p, p / (p - 1.0)) - 1.0


def opnorm_exact(op: np.ndarray, space: WeightedSpace, p: float) -> NormEstimate:
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
        value = float(np.abs(t).sum(axis=1).max())
        method = "max-row-sum"
    elif p == 1.0:
        value = float(((w @ np.abs(t)) / w).max())
        method = "weighted-column-sum"
    elif p == 2.0:
        s = np.sqrt(w)
        conjugated = t * s[:, None] / s[None, :]
        value = float(np.linalg.svd(conjugated, compute_uv=False)[0])
        method = "weighted-svd"
    else:
        raise ValueError("exact norms are available only at p in {1, 2, inf}")
    return NormEstimate(value, "exact", method, 0)


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Per-condition maximal violations for a kernel, measured against ``tol``."""

    positivity_violation: float
    conservation_violation: float
    symmetry_violation: float
    contraction_violation_p1: float
    contraction_violation_pinf: float
    tol: float
    note: str = _INTERPOLATION_NOTE

    @property
    def max_violation(self) -> float:
        return max(
            self.positivity_violation,
            self.conservation_violation,
            self.symmetry_violation,
            self.contraction_violation_p1,
            self.contraction_violation_pinf,
        )

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def to_dict(self) -> dict:
        return {
            "positivity_violation": self.positivity_violation,
            "conservation_violation": self.conservation_violation,
            "symmetry_violation": self.symmetry_violation,
            "contraction_violation_p1": self.contraction_violation_p1,
            "contraction_violation_pinf": self.contraction_violation_pinf,
            "tol": self.tol,
            "passed": self.passed,
            "note": self.note,
        }


def verify_markov_conditions(kernel: MarkovKernel, tol: float = 1e-10) -> ConditionReport:
    """Measure positivity, conservation, symmetry, and endpoint contraction of Q."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = kernel.entries
    w = kernel.space.weights
    positivity = max(0.0, -float(q.min()))
    conservation = float(np.abs(q.sum(axis=1) - 1.0).max())
    symmetry = float(np.abs(w[:, None] * q - w[None, :] * q.T).max())
    contr_1 = max(0.0, opnorm_exact(q, kernel.space, 1.0).value - 1.0)
    contr_inf = max(0.0, opnorm_exact(q, kernel.space, math.inf).value - 1.0)
    return ConditionReport(
        positivity_violation=positivity,
        conservation_violation=conservation,
        symmetry_violation=symmetry,
        contraction_violation_p1=contr_1,
        contraction_violation_pinf=contr_inf,
        tol=tol,
    )


def _abs2(values: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, without the hypot of ``np.abs``."""
    return values.real**2 + values.imag**2


def _power_on_support(a2: np.ndarray, exponent: float) -> np.ndarray:
    """``a2**exponent`` where ``a2 > 0`` and 0 elsewhere (the dual map's zero support)."""
    return np.power(a2, exponent, out=np.zeros_like(a2), where=a2 > 0.0)


def opnorm_lower_estimate(
    op: np.ndarray,
    space: WeightedSpace,
    p: float,
    probes: int = 64,
    ascent_steps: int = 20,
    seed: int = 0,
) -> NormEstimate:
    """Certified lower bound on the weighted p-norm for 1 < p < inf.

    Seeded complex Gaussian probes (plus their modulus variants) are all
    refined by the p-norm power method (Boyd 1974, Higham 1992): f is mapped
    to the dual of Tf, pulled back by the weighted adjoint, and mapped to the
    dual again.  The estimate is the running maximum of the realized ratios
    ||Tf||_p / ||f||_p over every probe and every ascent step, so it is
    nondecreasing in both ``probes`` (prefix property of the seeded stream)
    and ``ascent_steps``.
    """
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
    # one contiguous block of 2n draws per probe keeps the stream prefix-stable,
    # so enlarging `probes` only appends probes (monotonicity of the estimate)
    z = rng.standard_normal((probes, 2, n))
    complex_probes = z[:, 0, :] + 1j * z[:, 1, :]
    fields = np.concatenate([complex_probes, np.abs(complex_probes)], axis=0).T
    q = p / (p - 1.0)
    # the adjoint of T in L^2(w) is D^-1 T^H D with D = diag(w)
    adjoint = t.conj().T * w[None, :] / w[:, None]
    den = (w @ _abs2(fields) ** (0.5 * p)) ** (1.0 / p)

    # one power per dual map: s = |Tf|^(p-2) gives the dual s Tf and |Tf|^p = s |Tf|^2;
    # b = |g|^(q-2) gives the update b g and its p-norm, since |b g|^p = |g|^q = b |g|^2
    best = 0.0
    for step in range(ascent_steps + 1):
        images = t @ fields
        a2 = _abs2(images)
        s = _power_on_support(a2, 0.5 * (p - 2.0))
        num = (w @ (s * a2)) ** (1.0 / p)
        live = den > 0.0
        if np.any(live):
            best = max(best, float((num[live] / den[live]).max()))
        if step == ascent_steps:
            break
        pullback = adjoint @ (s * images)
        g2 = _abs2(pullback)
        b = _power_on_support(g2, 0.5 * (q - 2.0))
        norms = (w @ (b * g2)) ** (1.0 / p)
        # dividing by a power of two is exact, so the new field's norm is the mantissa
        mantissa, exponent = np.frexp(norms)
        moved = norms > 0.0
        fields = np.where(moved, np.ldexp(b, -exponent) * pullback, fields)
        den = np.where(moved, mantissa, den)
    return NormEstimate(best, "lower_bound", "probe-ascent", fields.shape[1])


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


@dataclass(frozen=True, eq=False)
class MultiplierPnormResult:
    """Per-p reports for ||T_m||_p <= c_p sup|M| plus the growth fit of ratios in 1/(p-1)."""

    reports: tuple[InequalityReport, ...]
    fit_slope: float | None
    fit_intercept: float | None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _pnorm_growth_fit(
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


def multiplier_pnorm_check(
    generator: ReversibleGenerator,
    multiplier: StepMultiplier | SampledMultiplier,
    p_grid: Sequence[float],
    probes: int = 200,
    ascent_steps: int = 20,
    seed: int = 0,
) -> MultiplierPnormResult:
    """Probe the p-norms of T_m against c_p sup|M| over a grid of p in (1, inf).

    At p = 2 the threshold is exactly 1 (the spectral bound); elsewhere it is
    the reference constant p* - 1.  Ratios at p <= 2 are also fitted against
    1/(p - 1), report-only, to document the blow-up rate as p drops to 1.
    """
    op, sup = multiplier_operator(generator, multiplier)
    space = generator.space
    reports = []
    for p in p_grid:
        p = float(p)
        estimate = opnorm_lower_estimate(op, space, p, probes, ascent_steps, seed)
        if p == 2.0:
            threshold, provenance = 1.0, "paper"
        else:
            threshold, provenance = reference_constant(p), "reference-constant"
        report = make_report(f"multiplier-pnorm p={p:g}", estimate.value, sup, threshold, provenance)
        reports.append(report)
    slope, intercept = _pnorm_growth_fit((float(p), r.ratio) for p, r in zip(p_grid, reports))
    return MultiplierPnormResult(tuple(reports), slope, intercept)


@dataclass(frozen=True, eq=False)
class TransformPnormResult:
    """The transform bound report plus the conditional-expectation contraction check."""

    report: InequalityReport
    contraction_excess: float
    contraction_ok: bool

    @property
    def passed(self) -> bool:
        return self.report.passed and self.contraction_ok


def transform_pnorm_check(
    ps: PathSpace,
    m_values: Sequence[complex],
    f: Field,
    p: float,
    contraction_tol: float = 1e-10,
    budget: int = DEFAULT_PATH_BUDGET,
) -> TransformPnormResult:
    """Exact path-space check of ||sum M_i (f_{i+1} - f_i)||_p <= (p* - 1) ||f||_p.

    Multiplier values are normalized to sup 1 first (the bound is homogeneous).
    The conditioning step is verified alongside: ||E[S | x_0]||_p never exceeds
    ||S||_p beyond ``contraction_tol`` relative slack.
    """
    m = np.asarray(m_values, dtype=complex).ravel()
    sup = float(np.abs(m).max()) if m.size else 0.0
    if sup > 0.0:
        m = m / sup
    functional = martingale_transform(ps, m, f)
    lhs = path_lp_norm(ps, functional, p, budget=budget)
    law = ps.kernel.space.normalized()
    rhs = lp_norm(Field(law, f.values), p)
    report = make_report(
        f"transform-pnorm p={p:g}", lhs, rhs, reference_constant(p), "reference-constant"
    )
    conditioned = hat_expectation(ps, functional, budget=budget)
    c_lhs = lp_norm(Field(law, conditioned.values), p)
    if lhs > 0.0:
        excess = max(0.0, (c_lhs - lhs) / lhs)
    else:
        excess = 0.0 if c_lhs == 0.0 else math.inf
    return TransformPnormResult(report, excess, excess <= contraction_tol)


@dataclass(frozen=True, eq=False)
class LloglChainResult:
    """The L^1 chain: transform vs square function vs maximal function vs L log L norm."""

    davis_step: InequalityReport
    square_vs_maximal: InequalityReport
    maximal_vs_llogl: InequalityReport
    end_to_end: InequalityReport

    @property
    def reports(self) -> tuple[InequalityReport, ...]:
        return (self.davis_step, self.square_vs_maximal, self.maximal_vs_llogl, self.end_to_end)

    @property
    def all_finite(self) -> bool:
        return all(math.isfinite(r.ratio) for r in self.reports)


def llogl_chain_check(
    ps: PathSpace,
    m_values: Sequence[complex],
    f: Field,
) -> LloglChainResult:
    """Record the L^1 comparison chain on a unit-mass space, report-only thresholds.

    Steps: E|S| vs E[(sum |df_i|^2)^{1/2}] (Davis' theorem), that square
    function vs E[sup_i |f_i|], the maximal function vs ||f||_{L log L} (the
    corollary of Doob's inequality), and end-to-end ||E[S | x_0]||_1 vs
    sup|M| ||f||_{L log L}.  Multiplier values are normalized to sup 1; the
    empirical ratios stand in for the unspecified universal constant.
    """
    space = ps.kernel.space
    if abs(space.total_mass - 1.0) > 1e-9:
        raise ValueError("the L log L chain needs a unit-mass space")
    m = np.asarray(m_values, dtype=complex).ravel()
    sup = float(np.abs(m).max()) if m.size else 0.0
    if sup > 0.0:
        m = m / sup
    family = reverse_martingale(ps, f)
    square_fn, maximal_fn = square_and_maximal(ps, family)
    transform = martingale_transform(ps, m, f)

    e_transform = path_lp_norm(ps, transform, 1.0)
    e_square = path_lp_norm(ps, square_fn, 1.0)
    e_maximal = path_lp_norm(ps, maximal_fn, 1.0)
    llogl = llogl_norm(f)
    conditioned = hat_expectation(ps, transform)
    end_lhs = lp_norm(conditioned, 1.0)

    inf = math.inf
    return LloglChainResult(
        make_report("davis-step", e_transform, e_square, inf, "report-only"),
        make_report("square-vs-maximal", e_square, e_maximal, inf, "report-only"),
        make_report("maximal-vs-llogl", e_maximal, llogl, inf, "report-only"),
        make_report("end-to-end-llogl", end_lhs, llogl, inf, "report-only"),
    )


@dataclass(frozen=True, eq=False)
class ApproximationLimitResult:
    """Per-approximant norm bounds and the limiting bound on the quadrature operator."""

    step_reports: tuple[InequalityReport, ...]
    limit_report: InequalityReport

    @property
    def passed(self) -> bool:
        return self.limit_report.passed and all(r.passed for r in self.step_reports)


def approximation_limit_check(
    generator: ReversibleGenerator,
    sampled: SampledMultiplier,
    f: Field,
    piece_counts: Sequence[int],
    p: float,
    tol: float = 1e-2,
) -> ApproximationLimitResult:
    """Bound ||T_m f||_p through its step approximants.

    Each approximant satisfies ||T_n f||_p <= (p* - 1) sup|M_n| ||f||_p, and the
    limit operator's norm must not exceed the largest tail approximant norm by
    more than ``tol``.  The norms converge at the step-approximation rate, so
    ``tol`` must dominate the residual gap at the largest piece count.
    """
    dec = decompose(generator)
    c_p = reference_constant(p)
    f_norm = lp_norm(f, p)
    target = lp_norm(apply_Tm(dec, symbol_of_sampled(sampled), f), p)
    step_reports = []
    approx_norms = []
    for n in piece_counts:
        step = approximate_by_steps(sampled, int(n))
        value = lp_norm(apply_Tm(dec, symbol_of_step(step), f), p)
        approx_norms.append(value)
        step_reports.append(
            make_report(
                f"approx-bound n={int(n)}",
                value,
                step.sup_norm * f_norm,
                c_p,
                "reference-constant",
            )
        )
    tail = approx_norms[len(approx_norms) // 2 :]
    limit_report = make_report("limit-bound", target, max(tail) + tol, 1.0, "paper")
    return ApproximationLimitResult(tuple(step_reports), limit_report)
