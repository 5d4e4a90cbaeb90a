"""Reversible generators and the heat semigroup T^t = e^{-tA}.

Generators come from symmetric conductances, so detailed balance, zero row
sums, and a nonnegative spectrum hold by construction.  The heat operators
they generate are Markov kernels: nonnegative entries, unit row sums,
self-adjoint in the weighted inner product, and L^p contractions.
"""

import numpy as np

from lapmult import (
    Field,
    heat_operator,
    lp_norm,
    random_reversible_generator,
    verify_markov_conditions,
)

space, gen = random_reversible_generator(seed=42, n=5)
print("generator row sums:", np.abs(gen.entries.sum(axis=1)).max())

kernel = heat_operator(gen, t=0.7)
print("heat kernel at t=0.7:")
print(np.array_str(kernel.entries, precision=4, suppress_small=True))

violations = verify_markov_conditions(kernel)
print(f"conditions pass: {max(violations.values()) <= 1e-10}")
print(f"  positivity violation    {violations['positivity_violation']:.2e}")
print(f"  conservation violation  {violations['conservation_violation']:.2e}")
print(f"  symmetry violation      {violations['symmetry_violation']:.2e}")
print(f"  contraction (p=1, inf)  {violations['contraction_violation_p1']:.2e}, "
      f"{violations['contraction_violation_pinf']:.2e}")
print("  note: contraction for intermediate 1 < p < inf follows from the p in {1, inf} "
      "endpoints by interpolation; it is not re-verified per p")

# the semigroup law and the contraction property on a random field
rng = np.random.default_rng(0)
f = Field(space, rng.standard_normal(space.n))
two_steps = heat_operator(gen, 0.3).entries @ (heat_operator(gen, 0.4).entries @ f.values)
one_step = heat_operator(gen, 0.7).entries @ f.values
print("semigroup law defect:", np.abs(two_steps - one_step).max())
for p in (1.0, 2.0, np.inf):
    image = Field(space, kernel.entries @ f.values)
    print(f"  ||T^t f||_{p:g} / ||f||_{p:g} = {lp_norm(image, p) / lp_norm(f, p):.6f}")
