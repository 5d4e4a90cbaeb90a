"""Closed-form spectra and heat kernels as oracles that do not go through ``eigh``.

Each chain has uniform weights and generator A = I - P, with P the simple
random walk on a regular graph:

- the complete graph K_n: eigenvalues 0 and n/(n-1), the latter n-1 times,
  and T^t = J/n + e^{-tn/(n-1)} (I - J/n);
- the cycle C_n: eigenvalues 1 - cos(2 pi k/n), and T^t_ij the inverse
  discrete Fourier transform of e^{-t(1 - cos(2 pi k/n))} at i - j;
- the hypercube {0,1}^d: eigenvalue 2k/d with multiplicity C(d, k), and
  T^t_xy = a^{d-h} (1-a)^h with a = (1 + e^{-2t/d})/2 and h the Hamming
  distance, since each coordinate flips at rate 1/d independently.
"""

import math

import numpy as np
import pytest

from lapmult import ReversibleGenerator, WeightedSpace, decompose, heat_operator


def walk_generator(adjacency: np.ndarray) -> ReversibleGenerator:
    """A = I - P for the simple random walk on a regular graph, with uniform weights."""
    n = adjacency.shape[0]
    return ReversibleGenerator(WeightedSpace(np.ones(n)), np.eye(n) - adjacency / adjacency.sum(axis=1)[:, None])


def complete_graph(n):
    def heat(t):
        j = np.full((n, n), 1.0 / n)
        return j + math.exp(-t * n / (n - 1)) * (np.eye(n) - j)

    eigenvalues = [0.0] + [n / (n - 1)] * (n - 1)
    return walk_generator(np.ones((n, n)) - np.eye(n)), eigenvalues, heat


def cycle(n):
    i = np.arange(n)
    adjacency = np.zeros((n, n))
    adjacency[i, (i + 1) % n] = adjacency[i, (i - 1) % n] = 1.0
    theta = 2.0 * math.pi * np.arange(n) / n

    def heat(t):
        shift = (i[:, None] - i[None, :]) % n
        return (np.exp(-t * (1.0 - np.cos(theta)))[None, None, :] * np.cos(theta * shift[:, :, None])).sum(axis=2) / n

    return walk_generator(adjacency), 1.0 - np.cos(theta), heat


def hypercube(d):
    x = np.arange(2 ** d)
    hamming = np.array([bin(v).count("1") for v in range(2 ** d)])[x[:, None] ^ x[None, :]]

    def heat(t):
        a = 0.5 * (1.0 + math.exp(-2.0 * t / d))
        return a ** (d - hamming) * (1.0 - a) ** hamming

    eigenvalues = [2.0 * k / d for k in range(d + 1) for _ in range(math.comb(d, k))]
    return walk_generator((hamming == 1).astype(float)), eigenvalues, heat


CHAINS = {
    **{f"K{n}": (complete_graph, n) for n in (2, 3, 7, 32)},
    **{f"C{n}": (cycle, n) for n in (3, 4, 9, 64)},
    **{f"Q{d}": (hypercube, d) for d in (1, 2, 5, 10)},
}


@pytest.fixture(scope="module", params=list(CHAINS))
def analytic_chain(request):
    build, size = CHAINS[request.param]
    return build(size)


def test_decompose_matches_closed_form_eigenvalues(analytic_chain):
    gen, eigenvalues, _ = analytic_chain
    assert np.abs(decompose(gen).eigenvalues - np.sort(eigenvalues)).max() < 1e-13


@pytest.mark.parametrize("t", [0.0, 0.05, 1.0, 7.5])
def test_heat_operator_matches_closed_form_kernel(analytic_chain, t):
    gen, _, heat = analytic_chain
    assert np.abs(heat_operator(gen, t).entries - heat(t)).max() < 1e-13
