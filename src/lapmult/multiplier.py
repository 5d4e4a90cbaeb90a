"""Symbols of Laplace-transform type and their operators.

A bounded M on (0, inf) induces m(lam) = -lam * integral_0^inf M(t) e^{-t lam} dt
(with m(0) = 0), and T_m = m(A) by spectral calculus.  Step functions admit an
exact closed form; sampled functions go through certified quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._keep import keep
from .semigroup import ReversibleGenerator, heat_operator
from .space import Field
from .spectral import SpectralDecomposition, spectral_apply

__all__ = [
    "StepMultiplier",
    "SampledMultiplier",
    "MultiplierSymbol",
    "symbol_of_step",
    "symbol_of_sampled",
    "apply_Tm",
    "telescoping_Tm",
    "imaginary_power_preset",
    "approximate_by_steps",
]


@dataclass(frozen=True, eq=False)
class StepMultiplier:
    """M = sum_i values[i] * 1_{[t_i, t_{i+1})} with 0 = t_0 <= ... <= t_N; zero beyond t_N."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=complex)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ValueError("need N+1 breakpoints for N piece values")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(bp) < 0.0):
            raise ValueError("breakpoints must be nondecreasing")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0


@dataclass(frozen=True, eq=False)
class SampledMultiplier:
    """A bounded sampler M(t) with a truncation window [0, T] and quadrature grid.

    ``sampler`` must be vectorized: it maps an ndarray of times to the array of
    values of the same shape, and any other shape is a ValueError.  ``grid_size``
    must be a point count 4m+1 >= 5, which keeps both the full and the half grid
    valid for composite Simpson quadrature.
    """

    sampler: Callable[[np.ndarray], np.ndarray]
    truncation: float
    grid_size: int
    declared_sup: float

    def __post_init__(self) -> None:
        if not (self.truncation > 0.0 and math.isfinite(self.truncation)):
            raise ValueError("truncation must be a finite positive real")
        if not (self.grid_size >= 5 and (self.grid_size - 1) % 4 == 0):
            raise ValueError("grid_size must be a point count 4m+1 >= 5")
        if not (self.declared_sup >= 0.0 and math.isfinite(self.declared_sup)):
            raise ValueError("declared_sup must be a finite nonnegative real")
        grid = np.linspace(0.0, self.truncation, self.grid_size)
        vals = _eval_sampler(self.sampler, grid)
        bound = self.declared_sup + 1e-12 * (1.0 + self.declared_sup)
        if np.abs(vals).max() > bound:
            raise ValueError("sampler exceeds declared_sup on the grid")
        grid.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_grid_values", vals)


@dataclass(frozen=True, eq=False)
class MultiplierSymbol:
    """m(lam) with a per-lam bound on the evaluation error.

    Always m(0) = 0, and |m(lam)| <= sup|M| + error_bound(lam).
    """

    evaluator: Callable[[float], complex]
    error_bound: Callable[[float], float]


def _eval_sampler(sampler: Callable, t: np.ndarray) -> np.ndarray:
    out = np.asarray(sampler(t))
    if out.shape != t.shape:
        raise ValueError(f"sampler returned shape {out.shape} for times of shape {t.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("sampler returned non-finite values")
    return out.astype(complex)


def symbol_of_step(step: StepMultiplier) -> MultiplierSymbol:
    """Exact closed form m(lam) = sum_i M_i (e^{-lam t_{i+1}} - e^{-lam t_i})."""
    bp = step.breakpoints
    vals = step.values

    def evaluator(lam: float) -> complex:
        if lam == 0.0:
            return 0j
        e = np.exp(-lam * bp)
        return complex(vals @ (e[1:] - e[:-1]))

    return MultiplierSymbol(evaluator, lambda lam: 0.0)


# Prefixes are whole blocks of points, so a dot kernel that unrolls by any
# power of two up to the block groups their terms as over the full grid.
_EXP_UNDERFLOW = 746.0
_PREFIX_BLOCK = 512


def _nonzero_prefix(t: np.ndarray, lam: float) -> int:
    """Points of the sorted grid t summed for lam (see symbol_of_sampled)."""
    if not lam > 0.0:
        return t.size
    cut = int(np.searchsorted(t, _EXP_UNDERFLOW / lam))
    return min(t.size, -(-cut // _PREFIX_BLOCK) * _PREFIX_BLOCK)


def _simpson_weights(npoints: int, h: float) -> np.ndarray:
    w = np.full(npoints, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def symbol_of_sampled(sampled: SampledMultiplier) -> MultiplierSymbol:
    """Quadrature symbol with a certified per-lam error report.

    m(lam) is composite Simpson on the uniform grid over [0, T].  The reported
    error adds three parts: the Richardson difference between the full and the
    half grid (smooth part of the integrand), an analytic cap on the first cell
    (samplers may oscillate or be undefined as t -> 0), and the truncation tail
    bound sup|M| * e^{-lam T}.

    For lam > 0 both sums run only over the grid prefix t < 746 / lam, rounded
    up to a multiple of 512 points and capped at the grid size.  Past it
    fl(lam * t) > 745.2, and np.exp rounds every argument below -745.14 to
    exactly 0.0, so every dropped term is an exact zero.

    The symbol keeps the pair of Simpson sums of the last lam it saw (see
    ``lapmult._keep``), so a value and then an error bound at one lam share
    it.  The weights are held complex, with zero imaginary parts, so no sum
    casts them again; the products are unchanged.
    """
    t = sampled._grid
    mv = sampled._grid_values
    h = float(t[1] - t[0])
    sup = sampled.declared_sup
    tmax = sampled.truncation
    w_full = _simpson_weights(t.size, h).astype(complex)
    w_half = _simpson_weights((t.size + 1) // 2, 2.0 * h).astype(complex)
    held: dict = {}

    def _quadratures(lam: float) -> tuple[complex, complex]:
        stop = _nonzero_prefix(t, lam)
        g = mv[:stop] * np.exp(-lam * t[:stop])
        return complex(w_full[:stop] @ g), complex(w_half[:(stop + 1) // 2] @ g[::2])

    def evaluator(lam: float) -> complex:
        if lam == 0.0:
            return 0j
        s_full, _ = keep(held, lam, lambda: _quadratures(lam))
        return -lam * s_full

    def error_bound(lam: float) -> float:
        if lam == 0.0:
            return 0.0
        s_full, s_half = keep(held, lam, lambda: _quadratures(lam))
        richardson = abs(lam) * abs(s_full - s_half)
        first_cell = sup * (1.0 - math.exp(-2.0 * lam * h)) + sup * lam * (h / 3.0) * (
            1.0 + 4.0 * math.exp(-lam * h) + math.exp(-2.0 * lam * h)
        )
        tail = sup * math.exp(-lam * tmax)
        return richardson + first_cell + tail

    return MultiplierSymbol(evaluator, error_bound)


def symbol_bound(multiplier: StepMultiplier | SampledMultiplier, lam_max: float) -> float:
    """A bound on |m(lam)|, on error_bound(lam) and on every sum they form, for 0 <= lam <= lam_max.

    A step symbol is at most sup|M|, and is refused when an exponent lam t_i
    may overflow.  For a sampled one, both Simpson sums are at most sup * T
    in modulus, since their weights sum to T, and the first cell h is at most
    T / 4; so |m(lam)| <= lam T sup and the error is at most
    sup (2 + 2.5 lam T).  The sums come before the factor lam, and sup * lam
    before the factor h, hence max(1, lam) and max(1, T).  A symbol or error
    bound that may overflow is a ValueError.
    """
    if isinstance(multiplier, StepMultiplier):
        last = float(multiplier.breakpoints[-1])
        if not math.isfinite(lam_max * last):
            raise ValueError(f"a breakpoint at {last:g} on a chain with eigenvalues up to {lam_max:.3g} "
                             f"overflows the step symbol's exponent")
        return multiplier.sup_norm
    bound = multiplier.declared_sup * (2.0 + 3.0 * max(1.0, lam_max) * max(1.0, multiplier.truncation))
    if not math.isfinite(bound):
        raise ValueError(f"t_max = {multiplier.truncation:g} on a chain with eigenvalues up to {lam_max:.3g} "
                         f"overflows the quadrature symbol or its error bound")
    return bound


def apply_Tm(dec: SpectralDecomposition, symbol: MultiplierSymbol, f: Field) -> Field:
    """T_m f through the spectral calculus: sum_k m(lam_k) <f, u_k> u_k."""
    return spectral_apply(dec, symbol.evaluator, f)


def telescoping_Tm(generator: ReversibleGenerator, step: StepMultiplier, f: Field) -> Field:
    """sum_i M_i (T^{t_{i+1}} f - T^{t_i} f), built from heat kernels only.

    Must agree with apply_Tm(symbol_of_step(step)) to working precision.  The
    two routes share one thing: the decomposition that ``generator`` keeps
    (see ``decompose``), which every heat kernel here reuses.  Kernels built
    by a matrix exponential instead, which avoids the eigensolver, meet the
    same tolerance on the paper-suite step family.
    """
    out = np.zeros(generator.space.n, dtype=complex)
    for mi, t0, t1 in zip(step.values, step.breakpoints[:-1], step.breakpoints[1:]):
        later = heat_operator(generator, float(t1)).entries @ f.values
        earlier = heat_operator(generator, float(t0)).entries @ f.values
        out += mi * (later - earlier)
    return Field(f.space, out)


# B_{2k} / (2k (2k - 1)) for k = 1..8: the coefficients of Stirling's series.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _complex_gamma(z: complex) -> complex:
    """Gamma(z) for Re z > 0.

    The recurrence log Gamma(z) = log Gamma(z + 1) - log z shifts z to
    Re z >= 10, where Stirling's series truncated after eight terms errs by
    under 2e-18.
    """
    shift = 0j
    while z.real < 10.0:
        shift += cmath.log(z)
        z += 1.0
    series = sum(c / z ** (2 * k - 1) for k, c in enumerate(_STIRLING, start=1))
    return cmath.exp((z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series - shift)


def imaginary_power_preset(
    gamma: float, t_max: float = 48.0, grid_size: int = 24001
) -> SampledMultiplier:
    """M(t) = -t^{-i gamma} / Gamma(1 - i gamma), whose symbol is lam^{i gamma} for lam > 0.

    |M| is the constant 1/|Gamma(1 - i gamma)|.  The sign and normalization are
    fixed so that the quadrature symbol reproduces lam^{i gamma} within its
    reported error.
    """
    if not (math.isfinite(gamma) and abs(gamma) <= 10.0):
        raise ValueError("gamma must be finite with |gamma| <= 10")
    g = _complex_gamma(1.0 - 1j * gamma)

    def sampler(t: np.ndarray) -> np.ndarray:
        out = np.zeros(t.shape, dtype=complex)
        pos = t > 0.0
        out[pos] = -np.exp(-1j * gamma * np.log(t[pos])) / g
        if gamma == 0.0:
            out[~pos] = -1.0 / g
        return out

    return SampledMultiplier(sampler, t_max, grid_size, 1.0 / abs(g))


def approximate_by_steps(sampled: SampledMultiplier, n: int) -> StepMultiplier:
    """Midpoint step approximation of M on n equal pieces of [0, T].

    Converges pointwise a.e. to M for piecewise-continuous samplers, and its
    sup norm never exceeds declared_sup.
    """
    if n < 1:
        raise ValueError("need at least one piece")
    bp = np.linspace(0.0, sampled.truncation, n + 1)
    mids = 0.5 * (bp[:-1] + bp[1:])
    return StepMultiplier(bp, _eval_sampler(sampled.sampler, mids))
