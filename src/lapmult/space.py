"""Finite weighted measure spaces, fields on them, and the norms everything else uses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedSpace",
    "Field",
    "constant_field",
    "zero_field",
    "lp_norm",
    "weighted_inner",
    "llogl_norm",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """Finite state set {0, ..., n-1} carrying strictly positive point masses dx_i."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must form a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive and finite")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def normalized(self) -> "WeightedSpace":
        """The same points with masses rescaled to total mass one."""
        return WeightedSpace(self.weights / self.total_mass)


def same_space(a: WeightedSpace, b: WeightedSpace) -> bool:
    return a is b or np.array_equal(a.weights, b.weights)


@dataclass(frozen=True, eq=False)
class Field:
    """A complex-valued function on a WeightedSpace (an element of every L^p).

    Fields are immutable; arithmetic returns new instances.  Real input is
    embedded into the complex scalars used throughout.
    """

    space: WeightedSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.space.n,):
            raise ValueError(f"expected {self.space.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    def __add__(self, other: "Field") -> "Field":
        if not same_space(self.space, other.space):
            raise ValueError("fields live on different spaces")
        return Field(self.space, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        if not same_space(self.space, other.space):
            raise ValueError("fields live on different spaces")
        return Field(self.space, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.space, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.space, -self.values)


def constant_field(space: WeightedSpace, value: complex = 1.0) -> Field:
    return Field(space, np.full(space.n, value, dtype=complex))


def zero_field(space: WeightedSpace) -> Field:
    return Field(space, np.zeros(space.n, dtype=complex))


def lp_norm(f: Field, p: float) -> float:
    """Weighted L^p norm (sum_i |f_i|^p dx_i)^(1/p); max_i |f_i| for p = inf."""
    a = np.abs(f.values)
    if math.isinf(p) and p > 0:
        return float(a.max())
    if p < 1.0:
        raise ValueError("p must satisfy p >= 1")
    if p == 1.0:
        return float(a @ f.space.weights)
    return float((a**p @ f.space.weights) ** (1.0 / p))


def weighted_inner(f: Field, g: Field) -> complex:
    """<f, g> = sum_i f_i conj(g_i) dx_i; conjugate-symmetric and positive definite."""
    if not same_space(f.space, g.space):
        raise ValueError("fields live on different spaces")
    return complex(np.sum(f.values * np.conj(g.values) * f.space.weights))


def _orlicz_integral(a: np.ndarray, w: np.ndarray, k: float) -> float:
    s = a / k
    return float((s * np.log(np.e + s)) @ w)


# Relative width at which the Luxemburg bisection stops.
_LUXEMBURG_REL_TOL = 1e-10


def llogl_norm(f: Field) -> float:
    """Luxemburg norm for Phi(s) = s log(e + s), by bisection.

    Returns inf{k > 0 : sum_i Phi(|f_i|/k) dx_i <= 1}; zero for the zero field.
    Since Phi(s) >= s the L^1 norm is a valid lower bracket, and the target
    integral is strictly decreasing in k, so bisection converges.
    """
    a = np.abs(f.values)
    w = f.space.weights
    l1 = float(a @ w)
    if l1 == 0.0:
        return 0.0
    lo = l1
    hi = l1
    while _orlicz_integral(a, w, hi) > 1.0:
        hi *= 2.0
    while (hi - lo) > _LUXEMBURG_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _orlicz_integral(a, w, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
