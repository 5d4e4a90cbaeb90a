"""Weighted symmetric eigendecomposition of a generator and the finite spectral calculus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._keep import keep
from .space import Field, WeightedSpace, same_space

__all__ = [
    "SpectralDecomposition",
    "decompose",
    "spectral_apply",
    "spectral_measure",
    "operator_matrix",
]

GENERATOR_TOL = 1e-10


def generator_roundoff(entries: np.ndarray) -> float:
    """GENERATOR_TOL * max(1, max|A_ij|): the roundoff allowance of a generator's entries.

    The generator's invariants are checked to it, and an eigenvalue within it
    of zero is roundoff of a zero eigenvalue.
    """
    return GENERATOR_TOL * max(1.0, float(np.abs(entries).max()))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues 0 <= lam_0 <= ... <= lam_{n-1} of A with weighted-orthonormal eigenfields.

    Column k of ``eigenfields`` is the field u_k; the projections sum to the
    identity, so any phi(A) acts as sum_k phi(lam_k) <f, u_k> u_k.  Bases inside
    degenerate eigenspaces are arbitrary; only basis-independent quantities
    (operators, spectral measures) should be compared downstream.
    """

    space: WeightedSpace
    eigenvalues: np.ndarray
    eigenfields: np.ndarray

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=float)
        u = np.array(self.eigenfields, dtype=float)
        n = self.space.n
        if lam.shape != (n,) or u.shape != (n, n):
            raise ValueError("decomposition arrays have wrong shape")
        lam.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenfields", u)

    def eigenfield(self, k: int) -> Field:
        return Field(self.space, self.eigenfields[:, k])

    def to_dict(self) -> dict:
        return {
            "weights": self.space.weights.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenfields": self.eigenfields.tolist(),
        }


def decompose(generator) -> SpectralDecomposition:
    """Diagonalize A by conjugating with D^{1/2} and applying a symmetric eigensolver.

    ``generator`` is a :class:`lapmult.semigroup.ReversibleGenerator`, read
    only through ``generator.space.weights`` and ``generator.entries`` (the
    decomposition lives on ``generator.space``), so this module, which sits
    below the semigroup module, never imports it.

    Eigenvalues in [-generator_roundoff(A), 0) are clamped to zero; anything
    below that range means the generator is not nonnegative and raises.
    The result is certified against the symmetric matrix that was decomposed
    (``_certify``): a residual or an orthonormality defect past
    ``_CERTIFICATE_ULPS`` n u raises a ``RuntimeError`` that names the
    eigendecomposition certificate.

    The generator keeps its decomposition under a constant key (see
    ``lapmult._keep``), so an equal but distinct generator gets its own.
    """
    return keep(generator, None, lambda: _eigensolve(generator))


def _eigensolve(generator) -> SpectralDecomposition:
    w = generator.space.weights
    s = np.sqrt(w)
    sym = generator.entries * s[:, None] / s[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        lam, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("symmetric eigensolver failed to converge") from exc
    floor = generator_roundoff(generator.entries)
    if lam[0] < -floor:
        raise ValueError(f"generator has an eigenvalue {lam[0]:.3e} below -{floor:.3e}")
    clamped = lam < 0.0
    lam = np.where(clamped, 0.0, lam)
    _certify(sym, lam, v, np.where(clamped, floor, 0.0))
    return SpectralDecomposition(generator.space, lam, v / s[:, None])


# A backward-stable symmetric eigensolver leaves a residual and a loss of
# orthonormality of a few n u: over conductance scales from 1e-300 to 1e250
# and n from 1 to 160, the worst measured were 0.76 n u |S| and 2.0 n u.
_CERTIFICATE_ULPS = 16.0


def _certify(sym: np.ndarray, lam: np.ndarray, v: np.ndarray, slack: np.ndarray) -> None:
    """Raise unless S V = V diag(lam) and V^T V = I, each within ``_CERTIFICATE_ULPS`` n u.

    S is the symmetrized D^{1/2} A D^{-1/2} that the eigensolver was given and
    V its orthonormal eigenvectors, so the eigenfields U = D^{-1/2} V have
    U^T D U = V^T V and the weighted sup norm of A U - U diag(lam) is the sup
    norm of S V - V diag(lam), up to A's detailed-balance defect, which the
    generator already bounds by ``generator_roundoff``.  Each residual is
    relative to ||S||_inf, and a clamped zero mode may miss by its ``slack``
    (``generator_roundoff``) more.  A NaN fails the certificate.  Each check
    holds one n x n array; the residual briefly holds a second.
    """
    n = lam.size
    bound = _CERTIFICATE_ULPS * n * float(np.finfo(float).eps)
    norm = float(np.linalg.norm(sym, np.inf))
    work = sym @ v
    work -= v * lam
    np.abs(work, out=work)
    residual = float((work.max(axis=0, initial=0.0) - slack).max(initial=0.0))
    if not residual <= bound * norm:
        raise RuntimeError(f"eigendecomposition certificate failed: the residual |S v - lam v| = {residual:.3g} "
                           f"is past {bound:.3g} |S| = {bound * norm:.3g}")
    np.matmul(v.T, v, out=work)
    work.flat[::n + 1] -= 1.0
    np.abs(work, out=work)
    defect = float(work.max(initial=0.0))
    if not defect <= bound:
        raise RuntimeError(f"eigendecomposition certificate failed: the weighted orthonormality defect "
                           f"|U^T D U - I| = {defect:.3g} is past {bound:.3g}")


def _phi_on_spectrum(dec: SpectralDecomposition, phi: Callable[[float], complex] | Sequence[complex]) -> np.ndarray:
    vals = np.asarray([phi(lam) for lam in dec.eigenvalues.tolist()] if callable(phi) else phi)
    if vals.shape != dec.eigenvalues.shape:
        raise ValueError(f"need one value of phi per eigenvalue, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi returned a non-finite value at an eigenvalue")
    return vals


def coefficients(dec: SpectralDecomposition, f: Field) -> np.ndarray:
    """Weighted expansion coefficients <f, u_k>."""
    if not same_space(dec.space, f.space):
        raise ValueError("field lives on a different space")
    return dec.eigenfields.T @ (dec.space.weights * f.values)


def spectral_apply(dec: SpectralDecomposition, phi: Callable[[float], complex], f: Field) -> Field:
    """phi(A) f = sum_k phi(lam_k) <f, u_k> u_k."""
    vals = _phi_on_spectrum(dec, phi)
    return Field(dec.space, dec.eigenfields @ (vals * coefficients(dec, f)))


def operator_matrix(dec: SpectralDecomposition, phi: Callable[[float], complex] | Sequence[complex]) -> np.ndarray:
    """The dense matrix of phi(A) acting on value vectors.

    ``phi`` is a function of lam, or its values at the eigenvalues in order.
    """
    vals = _phi_on_spectrum(dec, phi)
    u = dec.eigenfields
    return (u * vals[None, :]) @ (u.T * dec.space.weights[None, :])


def spectral_measure(dec: SpectralDecomposition, f: Field, g: Field) -> list[tuple[float, complex]]:
    """Point masses of lam -> <E(lam) f, g>: pairs (lam_k, <f,u_k> conj(<g,u_k>)).

    The total variation sum_k |mass_k| never exceeds ||f||_2 ||g||_2.
    """
    if not same_space(f.space, g.space):
        raise ValueError("fields live on different spaces")
    cf = coefficients(dec, f)
    cg = coefficients(dec, g)
    masses = cf * np.conj(cg)
    return [(float(lam), complex(m)) for lam, m in zip(dec.eigenvalues, masses)]
