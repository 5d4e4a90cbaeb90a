"""Reversible Markov generators and kernels, and the heat semigroup they generate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import WeightedSpace
from .spectral import decompose, generator_roundoff, operator_matrix

__all__ = [
    "ReversibleGenerator",
    "MarkovKernel",
    "random_reversible_generator",
    "heat_operator",
]

_HEAT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ReversibleGenerator:
    """Generator A of a reversible chain: T^t = e^{-tA} is the associated semigroup.

    Invariants enforced at construction, to ``generator_roundoff`` (the
    roundoff that ``decompose`` also allows): nonpositive off-diagonal,
    nonnegative diagonal, zero row sums, and detailed balance
    dx_i A_ij = dx_j A_ji.  A generator keeps its decomposition (see
    :func:`decompose`).
    """

    space: WeightedSpace
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        n = self.space.n
        if a.shape != (n, n):
            raise ValueError(f"generator must be {n}x{n}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("generator entries must be finite")
        tol = generator_roundoff(a)
        off = a - np.diag(np.diag(a))
        if off.max(initial=0.0) > tol:
            raise ValueError("off-diagonal generator entries must be <= 0")
        if np.diag(a).min() < -tol:
            raise ValueError("diagonal generator entries must be >= 0")
        if np.abs(a.sum(axis=1)).max() > tol:
            raise ValueError("generator rows must sum to 0 (conservation)")
        w = self.space.weights
        defect = np.abs(w[:, None] * a - (w[:, None] * a).T).max()
        if defect > tol * max(1.0, float(w.max())):
            raise ValueError("generator violates detailed balance")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def to_dict(self) -> dict:
        """Dense row-major serialization with the weight vector."""
        return {
            "weights": self.space.weights.tolist(),
            "entries": self.entries.tolist(),
        }


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """One-step kernel Q on a weighted space, with the time step it represents.

    Construction only checks shape and finiteness; conformance to the Markov
    conditions (positivity, conservation, symmetry, contraction) is measured
    by :func:`lapmult.inequalities.verify_markov_conditions`, which must be
    able to receive broken kernels and report their defects.
    """

    space: WeightedSpace
    entries: np.ndarray
    step: float = 1.0

    def __post_init__(self) -> None:
        q = np.array(self.entries, dtype=float)
        n = self.space.n
        if q.shape != (n, n):
            raise ValueError(f"kernel must be {n}x{n}, got {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("kernel entries must be finite")
        if not (self.step >= 0.0 and math.isfinite(self.step)):
            raise ValueError("kernel step must be a finite nonnegative real")
        q.setflags(write=False)
        object.__setattr__(self, "entries", q)

    def to_dict(self) -> dict:
        """Dense row-major serialization with the weight vector."""
        return {
            "weights": self.space.weights.tolist(),
            "entries": self.entries.tolist(),
            "step": self.step,
        }


def random_reversible_generator(
    seed,
    n: int,
    conductance_scale: float = 1.0,
    unit_mass: bool = False,
) -> tuple[WeightedSpace, ReversibleGenerator]:
    """Sample a weighted space and a reversible generator from symmetric conductances.

    Point masses are uniform on [0.5, 1.5] (rescaled to total mass one when
    ``unit_mass``), conductances c_ij = c_ji are uniform on [0, scale], and
    A_ij = -c_ij/dx_i off the diagonal with A_ii = sum_j c_ij/dx_i.  All
    generator invariants then hold by construction, and the output is
    deterministic in ``seed``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=n)
    if unit_mass:
        w = w / w.sum()
    c = np.triu(rng.uniform(0.0, conductance_scale, size=(n, n)), 1)
    c = c + c.T
    a = -c / w[:, None]
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    space = WeightedSpace(w)
    return space, ReversibleGenerator(space, a)


def heat_operator(generator: ReversibleGenerator, t: float) -> MarkovKernel:
    """T^t = e^{-tA} computed through the spectral decomposition of A.

    Entries are clipped to [0, 1] only for negativity and row-sum defects
    within max(1e-10, 8 n u max(1, ||tA||_1)), the backward-error bound of
    the spectral route (u the unit roundoff); anything larger signals a
    broken generator and raises.  Every call on one generator shares the
    decomposition that the generator keeps (see :func:`decompose`).
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("time must be a finite nonnegative real")
    dec = decompose(generator)
    m = operator_matrix(dec, lambda lam: math.exp(-t * lam)).real
    # t times the norm, not the norm of t A: a product past the double range is inf, with no warning
    ta_norm = t * float(np.linalg.norm(generator.entries, 1))
    tol = max(_HEAT_TOL, 8 * generator.space.n * np.finfo(float).eps * max(1.0, ta_norm))
    worst = float(m.min())
    if worst < -tol:
        raise ValueError(
            f"heat kernel entry {worst:.3e} below -{tol:.3e}; generator is broken"
        )
    m = np.clip(m, 0.0, 1.0)
    row_defect = float(np.abs(m.sum(axis=1) - 1.0).max())
    if row_defect > tol:
        raise ValueError(f"heat kernel row sums off by {row_defect:.3e}")
    return MarkovKernel(generator.space, m, step=t)
