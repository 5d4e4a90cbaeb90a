"""Multiplier symbols of Laplace-transform type and their operators.

A bounded M on (0, inf) induces m(lam) = -lam * integral M(t) e^{-t lam} dt and
the operator T_m = m(A).  Step functions have an exact closed form; for a step
M the operator also telescopes through heat kernels, and the two routes agree
to machine precision.  Sampled M go through certified Simpson quadrature, and
the preset M(t) = -t^{-i gamma} / Gamma(1 - i gamma) realizes A^{i gamma}.
"""

import math

import numpy as np

from lapmult import (
    Field,
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    approximate_by_steps,
    decompose,
    imaginary_power_preset,
    lp_norm,
    random_reversible_generator,
    step_convergence_check,
    symbol_of_sampled,
    symbol_of_step,
    telescoping_Tm,
)

space, gen = random_reversible_generator(seed=7, n=6)
dec = decompose(gen)
rng = np.random.default_rng(3)
f = Field(space, rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n))

# the indicator M = 1_[0,t) has symbol e^{-t lam} - 1, so T_m = T^t - Id
step = StepMultiplier([0.0, 1.3], [1.0])
symbol = symbol_of_step(step)
print("m(1.0) =", symbol.evaluator(1.0), "vs e^{-1.3} - 1 =", math.exp(-1.3) - 1.0)

# two independent routes to T_m f: spectral calculus vs telescoping heat sums
pieces = StepMultiplier([0.0, 0.4, 1.1, 2.0], [1.0, -0.5j, 0.25])
route_a = apply_Tm(dec, symbol_of_step(pieces), f)
route_b = telescoping_Tm(gen, pieces, f)
print("closed form vs telescoping:", lp_norm(route_a - route_b, 2.0))

# quadrature symbols report a certified error; M(t) = e^{-t} has m = -lam/(lam+1)
sampled = SampledMultiplier(lambda t: np.exp(-np.asarray(t, float)), 40.0, 4001, 1.0)
quad = symbol_of_sampled(sampled)
for lam in (0.5, 1.0, 2.0):
    got = quad.evaluator(lam)
    print(f"  m({lam}) = {got.real:+.9f}  (exact {-lam / (lam + 1):+.9f}, "
          f"reported error {quad.error_bound(lam):.1e})")

# midpoint step approximations converge to the sampled operator in L^2
tight = SampledMultiplier(lambda t: np.exp(-np.asarray(t, float)), 4.0, 513, 1.0)
errors = step_convergence_check(gen, tight, f, [4, 8, 16, 32, 64])
print("step-approximation errors:", ["%.2e" % e for e in errors])

# imaginary powers: the symbol reproduces lam^{i gamma} within its error bound
gamma = 1.0
preset = imaginary_power_preset(gamma)
ip = symbol_of_sampled(preset)
lam = 2.0
target = np.exp(1j * gamma * math.log(lam))
print(f"|m({lam}) - {lam}^i| = {abs(ip.evaluator(lam) - target):.2e} "
      f"<= {ip.error_bound(lam):.2e}")
