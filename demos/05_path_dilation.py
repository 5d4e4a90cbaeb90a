"""The product path space: reverse martingales and conditional expectations.

Paths (x_0, ..., x_N) carry the measure nu(x_0) Q(x_0,x_1) ... Q(x_{N-1},x_N).
The level fields g_k = Q^k f make f_k = g_k(x_k) a reverse martingale, and
conditioning on x_0 realizes even kernel powers: E[f_k | x_0] = Q^{2k} f.
Choosing Q = T^{eps/2}, as ``dilate`` does, therefore recovers the heat
semigroup at times k*eps, and conditioned martingale transforms recover the
multiplier operators.
"""

import numpy as np

from lapmult import (
    ExactPaths,
    Field,
    dilate,
    dilation_identity_check,
    hat_expectation,
    martingale_transform,
    path_lp_norm,
    random_reversible_generator,
    reverse_martingale,
    transform_expectation_identity,
)

epsilon = 0.8
space, gen = random_reversible_generator(seed=7, n=4)
ps = dilate(gen, epsilon, horizon=5)  # the path space of Q = T^(eps/2)
print(f"{ps.n_states} states, horizon {ps.horizon}: {ps.path_count} paths")

rng = np.random.default_rng(3)
f = Field(space, rng.standard_normal(4) + 1j * rng.standard_normal(4))

# every level k = 0..N at once; the check returns the largest deviations
dev_power, dev_heat = dilation_identity_check(ps, f, generator=gen)
print("dilation identity deviations, max over k:",
      f"{dev_power:.2e} (E[f_k|x0] vs Q^(2k) f),",
      f"{dev_heat:.2e} (vs T^(k eps) f)")

# a martingale transform and its conditioned closed form
m_values = rng.standard_normal(5) + 1j * rng.standard_normal(5)
dev_power, dev_tel = transform_expectation_identity(ps, m_values, f, generator=gen)
print("transform identity deviations:",
      f"{dev_power:.2e} (kernel powers),",
      f"{dev_tel:.2e} (telescoped operator)")

# path-space L^p norms, exactly and by stratified Monte Carlo
transform = martingale_transform(ps, m_values, f)
exact = path_lp_norm(ps, transform, 2.0)
estimate, stderr = path_lp_norm(ps, transform, 2.0, mode="mc", seed=11, samples=20000)
print(f"||S||_2 exact {exact:.6f}, MC {estimate:.6f} +- {stderr:.6f}")

# the square and maximal functions behind the L^1 theory, on every path,
# folded from per-step tables without enumerating the paths
exact_paths = ExactPaths(ps)
levels = reverse_martingale(ps, f)
print(f"E[square fn] = {exact_paths.lp_norm(exact_paths.square(levels), 1.0):.6f}, "
      f"E[maximal fn] = {exact_paths.lp_norm(exact_paths.maximal(levels), 1.0):.6f}")
conditioned = hat_expectation(ps, transform)
print("conditioned transform values:", np.array_str(conditioned.values, precision=4))
