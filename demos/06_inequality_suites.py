"""Operator p-norm estimation and the inequality suites.

Exact norms exist at p in {1, 2, inf}; in between, seeded probes refined by
dual-norm ascent give certified lower bounds, which is the sound direction for
checking upper-bound statements.  The transform bound uses the reference
constant p* - 1; the L^1 chain records its ratios without asserting a
universal constant.
"""

import numpy as np

from lapmult import (
    Field,
    PathSpace,
    StepMultiplier,
    heat_operator,
    llogl_chain_check,
    multiplier_operator,
    multiplier_pnorm_family_check,
    opnorm_exact,
    opnorm_lower_estimate,
    random_reversible_generator,
    reference_constant,
    transform_pnorm_check,
)
from lapmult.inequalities import pnorm_growth_fit

space, gen = random_reversible_generator(seed=7, n=6)
rng = np.random.default_rng(4)
step = StepMultiplier(
    np.concatenate([[0.0], np.sort(rng.uniform(0, 3, 4))]),
    rng.standard_normal(4) + 1j * rng.standard_normal(4),
)
op, sup = multiplier_operator(gen, step)

exact2 = opnorm_exact(op, space, 2.0)
lower2 = opnorm_lower_estimate(op, space, 2.0, probes=200, ascent_steps=30, seed=1)
print(f"||T_m||_2 exact {exact2:.8f}, probe lower bound {lower2:.8f}")

grid = [1.25, 1.5, 2.0, 3.0, 4.0]
# one chain is a family of one: its rows are the family check's worst rows
rows = multiplier_pnorm_family_check([(gen, step)], grid, probes=400, ascent_steps=30, seed=9)
for report in rows:
    print(f"  {report.name}: ratio {report.ratio:.4f} <= {report.threshold:g} "
          f"[{report.provenance}] -> {'ok' if report.passed else 'VIOLATION'}")
slope, intercept = pnorm_growth_fit((p, r.ratio) for p, r in zip(grid, rows))
print(f"growth of ratios in 1/(p-1): slope {slope:.4f}, "
      f"intercept {intercept:.4f} (report-only)")

# path-space transform bound plus the conditioning contraction: one call
# evaluates the transform once and checks it at every p of the grid
nspace, ngen = random_reversible_generator(seed=7, n=4, unit_mass=True)
ps = PathSpace(heat_operator(ngen, 0.4), horizon=5)
f = Field(nspace, rng.standard_normal(4))
signs = rng.choice([-1.0, 1.0], 5)
for p, (row, excess) in zip((1.5, 3.0), transform_pnorm_check(ps, signs, f, (1.5, 3.0))):
    print(f"transform bound at p={p:g}: ratio {row.ratio:.4f} <= "
          f"{reference_constant(p):g}, contraction excess {excess:.1e}")

# the L^1 chain through square and maximal functions down to L log L, for a
# batch of (signs, field) pairs sharing one path space; the check takes a
# list of (path space, batch) chains, and here it is one chain
g = Field(nspace, rng.standard_normal(4) + 1j * rng.standard_normal(4))
batch = [(signs, f), (rng.choice([-1.0, 1.0], 5), g)]
(chain_rows,) = llogl_chain_check([(ps, batch)])
for label, chain in zip(("real f", "complex g"), chain_rows):
    print(f"L log L chain for {label}:")
    for report in chain:
        print(f"  {report.name}: {report.lhs:.5f} vs {report.rhs:.5f} "
              f"(ratio {report.ratio:.4f}, report-only)")
