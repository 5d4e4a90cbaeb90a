"""Finite weighted measure spaces, fields on them, and the norms everything else uses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedSpace",
    "Field",
    "constant_field",
    "lp_norm",
    "weighted_inner",
    "llogl_norm",
]


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
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

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
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

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


def lp_norm(f: Field, p: float) -> float:
    """Weighted L^p norm (sum_i |f_i|^p dx_i)^(1/p); max_i |f_i| for p = inf."""
    a = np.abs(f.values)
    if math.isinf(p) and p > 0:
        return float(a.max())
    if not p >= 1.0:
        raise ValueError("p must satisfy p >= 1")
    if p == 1.0:
        return float(a @ f.space.weights)
    return float((a**p @ f.space.weights) ** (1.0 / p))


def weighted_inner(f: Field, g: Field) -> complex:
    """<f, g> = sum_i f_i conj(g_i) dx_i; conjugate-symmetric and positive definite."""
    if not same_space(f.space, g.space):
        raise ValueError("fields live on different spaces")
    return complex(np.sum(f.values * np.conj(g.values) * f.space.weights))


# Relative width at which the Luxemburg bisection stops.
_LUXEMBURG_REL_TOL = 1e-10


def _orlicz_integrals(a: np.ndarray, w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_i Phi(a_ri / k_r) w_ri for each row r: the elementwise work in one pass, one dot per row."""
    s = a / k[:, None]
    phi = s * np.log(np.e + s)
    return np.vecdot(phi, w)


def luxemburg_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Luxemburg norm of each row of moduli ``a``, each row bisected as on its own.

    ``w`` is one weight row shared by every row of ``a``, or one weight row
    per row, so rows from spaces of equal size, with different weights, share
    one bisection.  Every row takes the same sequence of brackets it would
    take alone; rows whose bracket has closed drop out of the elementwise
    passes.  Each pass sums each row by one BLAS dot through ``np.vecdot``,
    which gives the bits of ``row @ w``; a matrix product, ``einsum`` or
    ``sum`` over the rows would not.
    """
    w = np.broadcast_to(w, a.shape)
    lo = np.vecdot(a, w)
    hi = lo.copy()
    rows = np.flatnonzero(lo != 0.0)
    while rows.size:
        rows = rows[_orlicz_integrals(a[rows], w[rows], hi[rows]) > 1.0]
        hi[rows] *= 2.0
    rows = np.flatnonzero((hi - lo) > _LUXEMBURG_REL_TOL * hi)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        above = _orlicz_integrals(a[rows], w[rows], mid) > 1.0
        lo[rows[above]] = mid[above]
        hi[rows[~above]] = mid[~above]
        rows = rows[(hi[rows] - lo[rows]) > _LUXEMBURG_REL_TOL * hi[rows]]
    return 0.5 * (lo + hi)


def llogl_norm(f: Field) -> float:
    """Luxemburg norm for Phi(s) = s log(e + s), by bisection.

    Returns inf{k > 0 : sum_i Phi(|f_i|/k) dx_i <= 1}; zero for the zero field.
    Since Phi(s) >= s the L^1 norm is a valid lower bracket, and the target
    integral is strictly decreasing in k, so bisection converges.
    """
    return float(luxemburg_rows(np.abs(f.values)[None, :], f.space.weights)[0])
