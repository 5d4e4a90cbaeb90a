"""Seeded end-to-end verification suites binding the library modules together.

Every suite is deterministic in the seeds it receives.  Instance substreams are
derived as default_rng([seed, index, ...]), so enlarging a family keeps its
existing members unchanged (needed for the stability-under-doubling check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._keep import keep
from .dilation import (
    PathSpace,
    dilation_identity_check,
    hat_expectation,
    martingale_transform,
    path_lp_norm,
    transform_expectation_identity,
)
from .inequalities import (
    CONTRACTION_TOL,
    PASS_SLACK,
    InequalityReport,
    approximation_limit_check,
    llogl_chain_check,
    make_report,
    multiplier_pnorm_family_check,
    opnorm_exact,
    pnorm_growth_fit,
    step_convergence_check,
    transform_pnorm_check,
    verify_markov_conditions,
    worst_row,
)
from .multiplier import (
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    imaginary_power_preset,
    symbol_of_sampled,
    symbol_of_step,
    telescoping_Tm,
)
from .semigroup import (
    ReversibleGenerator,
    heat_operator,
    random_reversible_generator,
)
from .space import Field, lp_norm
from .spectral import decompose, generator_roundoff, operator_matrix

__all__ = [
    "SuiteResult",
    "step_instance_family",
    "dilation_instance_family",
    "suite_markov_conditions",
    "suite_step_identity",
    "suite_l2_bound",
    "suite_dilation_identity",
    "suite_transform_identity",
    "suite_multiplier_pnorm",
    "suite_multiplier_pnorm_family",
    "suite_transform_pnorm",
    "suite_step_convergence",
    "suite_llogl_chain",
    "suite_imaginary_powers",
    "suite_approximation_limit",
    "suite_mc_crosscheck",
]


@dataclass(frozen=True, eq=False)
class SuiteResult:
    """Outcome of one suite: a pass flag, scalar summary, and any inequality rows."""

    name: str
    passed: bool
    summary: dict
    inequalities: tuple[InequalityReport, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            # always false; the benchmark's child process still reads the key
            "report_only": False,
            "summary": self.summary,
            "inequalities": [r.to_dict() for r in self.inequalities],
        }


def _random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# The owner of the last family step_instance_family returned.
_FAMILY_OWNER: dict = {}


def step_instance_family(
    seed: int,
    count: int,
    max_n: int = 16,
    max_pieces: int = 8,
) -> tuple[tuple[ReversibleGenerator, StepMultiplier, Field], ...]:
    """Random chains with complex-valued step multipliers and complex probe fields.

    The last family is kept, keyed on the four arguments (see
    ``lapmult._keep``), so consecutive suites on one family share its
    generators and, through them, the decompositions that :func:`decompose`
    keeps with each.
    """
    return keep(_FAMILY_OWNER, (seed, count, max_n, max_pieces),
                lambda: _build_step_family(seed, count, max_n, max_pieces))


def _build_step_family(seed: int, count: int, max_n: int, max_pieces: int) -> tuple:
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, max_n + 1))
        pieces = int(rng.integers(1, max_pieces + 1))
        space, gen = random_reversible_generator([seed, i, 1], n)
        breakpoints = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, pieces))])
        step = StepMultiplier(breakpoints, _random_complex(rng, pieces))
        probe = Field(space, _random_complex(rng, n))
        out.append((gen, step, probe))
    return tuple(out)


def _spectral_route(gen: ReversibleGenerator, step: StepMultiplier, probe: Field) -> Field:
    """A family member's T_m f by the spectral calculus, from its generator's decomposition.

    The member's step keeps it, keyed on the generator and the probe (see
    ``lapmult._keep``), so a hit runs neither the decomposition nor the symbol.
    """
    return keep(step, (gen, probe), lambda: apply_Tm(decompose(gen), symbol_of_step(step), probe))


def dilation_instance_family(
    seed: int,
    count: int,
    max_n: int = 6,
    max_horizon: int = 6,
    epsilon: float = 0.8,
) -> Iterator[tuple[ReversibleGenerator, PathSpace, Field]]:
    """Random chains dilated with kernel Q = T^{eps/2} and a random horizon.

    Instances are yielded one at a time, so a caller that iterates keeps at
    most one path space (and its cached path table) alive.
    """
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, max_n + 1))
        horizon = int(rng.integers(1, max_horizon + 1))
        space, gen = random_reversible_generator([seed, i, 1], n)
        kernel = heat_operator(gen, epsilon / 2.0)
        probe = Field(space, _random_complex(rng, n))
        yield gen, PathSpace(kernel, horizon), probe


_INTERPOLATION_NOTE = (
    "contraction for intermediate 1 < p < inf follows from the "
    "p in {1, inf} endpoints by interpolation; it is not re-verified per p"
)


def suite_markov_conditions(
    chain: ReversibleGenerator, time: float = 1.0, tol: float = 1e-10
) -> SuiteResult:
    """Verify the four kernel conditions on a heat operator of the given chain."""
    kernel = heat_operator(chain, time)
    violations = verify_markov_conditions(kernel)
    passed = max(violations.values()) <= tol
    summary = {**violations, "tol": tol, "note": _INTERPOLATION_NOTE,
               "time": time, "kernel": kernel.to_dict()}
    return SuiteResult("markov_conditions", passed, summary)


def suite_step_identity(
    seed: int,
    instances: int,
    max_n: int = 16,
    max_pieces: int = 8,
    tol: float = 1e-10,
) -> SuiteResult:
    """Exact identity between the telescoped operator and the step-symbol operator.

    The deviation is measured relative to sup|M| ||f||_2, the natural scale of
    both sides.  The spectral route is the one ``l2_bound`` reads on the same
    family, built once per member.
    """
    worst = 0.0
    for gen, step, probe in step_instance_family(seed, instances, max_n, max_pieces):
        telescoped = telescoping_Tm(gen, step, probe)
        spectral_route = _spectral_route(gen, step, probe)
        scale = max(step.sup_norm * lp_norm(probe, 2.0), 1e-300)
        worst = max(worst, lp_norm(telescoped - spectral_route, 2.0) / scale)
    summary = {"instances": instances, "max_relative_deviation": worst, "tol": tol}
    return SuiteResult("step_identity", worst <= tol, summary)


def suite_l2_bound(
    seed: int,
    instances: int,
    max_n: int = 16,
    max_pieces: int = 8,
) -> SuiteResult:
    """||T_m f||_2 <= sup|M| ||f||_2 with zero violations across the family.

    T_m f is the spectral route that ``step_identity`` reads on the same
    family, built once per member.
    """
    violations = 0
    worst_ratio = 0.0
    for gen, step, probe in step_instance_family(seed, instances, max_n, max_pieces):
        value = lp_norm(_spectral_route(gen, step, probe), 2.0)
        bound = step.sup_norm * lp_norm(probe, 2.0)
        report = make_report("l2-bound", value, bound, 1.0, "paper")
        worst_ratio = max(worst_ratio, report.ratio)
        if not report.passed:
            violations += 1
    summary = {
        "instances": instances,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "slack": PASS_SLACK,
    }
    return SuiteResult("l2_bound", violations == 0, summary)


def suite_dilation_identity(
    seed: int,
    instances: int,
    max_n: int = 6,
    max_horizon: int = 6,
    epsilon: float = 0.8,
    tol: float = 1e-10,
) -> SuiteResult:
    """E[f_k | x_0] = Q^{2k} f = T^{k eps} f for every level k, by exact enumeration."""
    worst_power = 0.0
    worst_heat = 0.0
    levels = 0
    for gen, ps, probe in dilation_instance_family(seed, instances, max_n, max_horizon, epsilon):
        dev_power, dev_heat = dilation_identity_check(ps, probe, generator=gen)
        worst_power = max(worst_power, dev_power)
        worst_heat = max(worst_heat, dev_heat)
        levels += ps.horizon + 1
    summary = {
        "instances": instances,
        "levels_checked": levels,
        "max_deviation_kernel_power": worst_power,
        "max_deviation_heat": worst_heat,
        "tol": tol,
    }
    return SuiteResult("dilation_identity", max(worst_power, worst_heat) <= tol, summary)


def suite_transform_identity(
    seed: int,
    instances: int,
    max_n: int = 6,
    max_horizon: int = 6,
    epsilon: float = 0.8,
    tol: float = 1e-10,
) -> SuiteResult:
    """E[sum M_i (f_{i+1}-f_i) | x_0] against kernel powers and the telescoped operator."""
    worst_power = 0.0
    worst_tel = 0.0
    for i, (gen, ps, probe) in enumerate(
        dilation_instance_family(seed, instances, max_n, max_horizon, epsilon)
    ):
        rng = np.random.default_rng([seed, i, 2])
        m_values = _random_complex(rng, ps.horizon)
        dev_power, dev_tel = transform_expectation_identity(ps, m_values, probe, generator=gen)
        worst_power = max(worst_power, dev_power)
        worst_tel = max(worst_tel, dev_tel)
    summary = {
        "instances": instances,
        "max_deviation_kernel_powers": worst_power,
        "max_deviation_telescoping": worst_tel,
        "tol": tol,
    }
    return SuiteResult("transform_identity", max(worst_power, worst_tel) <= tol, summary)


def _multiplier_pnorm(
    name: str,
    members: Sequence[tuple[ReversibleGenerator, StepMultiplier | SampledMultiplier]],
    p_grid: Sequence[float],
    probes: int,
    ascent_steps: int,
    probe_seed: int,
    **summary,
) -> SuiteResult:
    """The family's worst row per p, and the report-only fit of their ratios against 1/(p - 1) on p <= 2.

    Member i probes with seed ``probe_seed + i``.  The fit documents the
    blow-up rate as p drops to 1.
    """
    grid = [float(p) for p in p_grid]
    rows = multiplier_pnorm_family_check(members, grid, probes, ascent_steps, probe_seed)
    slope, intercept = pnorm_growth_fit({p: r.ratio for p, r in zip(grid, rows)}.items())
    summary.update(p_grid=grid, probes=probes, ascent_steps=ascent_steps,
                   growth_fit_slope=slope, growth_fit_intercept=intercept)
    return SuiteResult(name, all(r.passed for r in rows), summary, rows)


def suite_multiplier_pnorm(
    chain: ReversibleGenerator,
    multiplier: StepMultiplier | SampledMultiplier,
    p_grid: Sequence[float],
    probes: int,
    ascent_steps: int,
    probe_seed: int,
) -> SuiteResult:
    """p-norm bound check of one multiplier operator over a p-grid: the family of one member."""
    return _multiplier_pnorm("multiplier_pnorm", [(chain, multiplier)], p_grid, probes, ascent_steps, probe_seed)


def suite_multiplier_pnorm_family(
    seed: int,
    instances: int,
    p_grid: Sequence[float],
    probes: int,
    ascent_steps: int,
    probe_seed: int,
    max_n: int = 16,
    max_pieces: int = 8,
) -> SuiteResult:
    """p-norm bound check across the step-multiplier family; reports the worst ratio per p.

    The probe ascent runs only on members whose certified Riesz-Thorin bound
    can reach the worst ratio found so far (see
    ``multiplier_pnorm_family_check``), so the rows are those of an ascent on
    every member.
    """
    family = step_instance_family(seed, instances, max_n, max_pieces)
    return _multiplier_pnorm("multiplier_pnorm_family", [(gen, step) for gen, step, _ in family],
                             p_grid, probes, ascent_steps, probe_seed, instances=instances)


def suite_transform_pnorm(
    seed: int,
    instances: int,
    p_grid: Sequence[float],
    max_n: int = 6,
    max_horizon: int = 6,
    epsilon: float = 0.8,
) -> SuiteResult:
    """Exact path-space transform bounds with random sign multipliers."""
    grid = [float(p) for p in p_grid]
    row_lists = []
    worst_excess = 0.0
    for i, (_, ps, probe) in enumerate(
        dilation_instance_family(seed, instances, max_n, max_horizon, epsilon)
    ):
        rng = np.random.default_rng([seed, i, 3])
        signs = rng.choice([-1.0, 1.0], ps.horizon)
        checked = transform_pnorm_check(ps, signs, probe, grid)
        row_lists.append([row for row, _ in checked])
        for _, excess in checked:
            worst_excess = max(worst_excess, excess)
    rows = tuple(worst_row(column) for column in zip(*row_lists))
    contraction_ok = worst_excess <= CONTRACTION_TOL
    summary = {
        "instances": instances,
        "p_grid": grid,
        "contraction_ok": contraction_ok,
        "worst_contraction_excess": worst_excess,
        "contraction_tol": CONTRACTION_TOL,
    }
    return SuiteResult("transform_pnorm", contraction_ok and all(r.passed for r in rows), summary, rows)


def _probe_field(chain: ReversibleGenerator, field_seed, field) -> Field:
    """The literal ``field``, or a complex field drawn from ``field_seed``; exactly one must be given."""
    if (field is None) == (field_seed is None):
        raise ValueError("give exactly one of field or field_seed")
    if field is not None:
        return Field(chain.space, np.asarray(field, dtype=complex))
    rng = np.random.default_rng(field_seed)
    return Field(chain.space, _random_complex(rng, chain.space.n))


# Relative rise allowed between consecutive errors of a convergence curve.
_JITTER = 0.10


def suite_step_convergence(
    chain: ReversibleGenerator,
    multiplier: SampledMultiplier,
    piece_counts: Sequence[int],
    field_seed: int | None = None,
    field=None,
    rel_tol: float = 1e-2,
) -> SuiteResult:
    """L^2 convergence of step-approximated operators toward the quadrature operator."""
    probe = _probe_field(chain, field_seed, field)
    probe_l2 = lp_norm(probe, 2.0)
    tol = rel_tol * probe_l2
    errors = step_convergence_check(chain, multiplier, probe, piece_counts)
    monotone_ok = all(later <= earlier * (1.0 + _JITTER) for earlier, later in zip(errors, errors[1:]))
    passed = errors[-1] <= tol and monotone_ok
    summary = {"piece_counts": [int(n) for n in piece_counts], "errors": list(errors), "tol": tol,
               "jitter": _JITTER, "final_error": errors[-1], "monotone_ok": monotone_ok,
               "rel_tol": rel_tol, "probe_l2": probe_l2}
    return SuiteResult("step_convergence", passed, summary)


def suite_llogl_chain(
    seed: int,
    chains: int,
    fields: int,
    n: int = 4,
    horizon: int = 5,
    epsilon: float = 0.8,
    stability_doubling: bool = True,
    stability_rel: float = 0.25,
) -> SuiteResult:
    """The L^1 chain over a unit-mass family, with stability under family doubling.

    Thresholds stay report-only; the suite passes when every ratio in the
    family is finite and, if doubling is enabled, the per-step family maxima
    grow by at most ``stability_rel`` when the number of chains doubles.
    """
    step_names = ("davis-step", "square-vs-maximal", "maximal-vs-llogl", "end-to-end-llogl")
    total_chains = 2 * chains if stability_doubling else chains
    maxima = {name: [0.0, 0.0] for name in step_names}
    all_finite = True
    for i in range(total_chains):
        space, gen = random_reversible_generator([seed, i, 1], n, unit_mass=True)
        kernel = heat_operator(gen, epsilon / 2.0)
        ps = PathSpace(kernel, horizon)
        batch = []
        for j in range(fields):
            rng = np.random.default_rng([seed, i, j, 2])
            probe = Field(space, _random_complex(rng, n))
            batch.append((rng.choice([-1.0, 1.0], horizon), probe))
        for rows in llogl_chain_check(ps, batch):
            all_finite = all_finite and all(math.isfinite(r.ratio) for r in rows)
            for report in rows:
                if i < chains:
                    maxima[report.name][0] = max(maxima[report.name][0], report.ratio)
                maxima[report.name][1] = max(maxima[report.name][1], report.ratio)
    stability_ok = True
    stability = {}
    for name in step_names:
        base, doubled = maxima[name]
        growth = (doubled - base) / base if base > 0.0 else 0.0
        stability[name] = {"base_max": base, "doubled_max": doubled, "growth": growth}
        if stability_doubling:
            stability_ok = stability_ok and growth <= stability_rel
    summary = {
        "chains": chains,
        "fields_per_chain": fields,
        "stability_doubling": stability_doubling,
        "stability_rel": stability_rel,
        "all_finite": all_finite,
        "stability": stability,
    }
    return SuiteResult("llogl_chain", all_finite and stability_ok, summary)


def suite_imaginary_powers(
    chain: ReversibleGenerator,
    gammas: Sequence[float],
    t_max: float = 48.0,
    grid: int = 24001,
) -> SuiteResult:
    """Quadrature symbols of imaginary powers against lam^{i gamma} at the spectrum.

    For each gamma the symbol must match lam^{i gamma} within its reported
    error at every positive eigenvalue, and the operator's 2-norm must stay
    within sup|M| plus the worst reported error.  Eigenvalues within
    ``generator_roundoff`` of zero are the conservation zero mode and are not
    counted as positive.
    """
    dec = decompose(chain)
    floor = generator_roundoff(chain.entries)
    positive = [float(lam) for lam in dec.eigenvalues if lam > floor]
    reports = []
    per_gamma = {}
    for gamma in gammas:
        preset = imaginary_power_preset(float(gamma), t_max, grid)
        symbol = symbol_of_sampled(preset)
        worst_dev = 0.0
        worst_allowed = 0.0
        max_err = 0.0
        for lam in positive:
            got = symbol.evaluator(lam)
            err = symbol.error_bound(lam)
            dev = abs(got - np.exp(1j * gamma * math.log(lam)))
            max_err = max(max_err, err)
            if dev > worst_dev:
                worst_dev, worst_allowed = dev, err
        sup = preset.declared_sup
        opnorm = opnorm_exact(operator_matrix(dec, symbol.evaluator), chain.space, 2.0)
        reports.append(
            make_report(f"imaginary-power gamma={gamma:g} symbol", worst_dev, worst_allowed, 1.0, "paper")
        )
        reports.append(
            make_report(f"imaginary-power gamma={gamma:g} opnorm", opnorm, sup + max_err, 1.0, "paper")
        )
        per_gamma[f"{gamma:g}"] = {
            "sup": sup,
            "opnorm_2": opnorm,
            "max_reported_error": max_err,
            "worst_symbol_deviation": worst_dev,
        }
    summary = {
        "gammas": [float(g) for g in gammas],
        "positive_eigenvalues": positive,
        "per_gamma": per_gamma,
        "t_max": t_max,
        "grid": grid,
    }
    return SuiteResult(
        "imaginary_powers", all(r.passed for r in reports), summary, tuple(reports)
    )


def suite_approximation_limit(
    chain: ReversibleGenerator,
    multiplier: SampledMultiplier,
    piece_counts: Sequence[int],
    p: float = 2.0,
    field_seed: int | None = None,
    field=None,
    tol: float = 1e-2,
) -> SuiteResult:
    """Norm bounds on step approximants and the limiting bound on the quadrature operator."""
    probe = _probe_field(chain, field_seed, field)
    rows = approximation_limit_check(chain, multiplier, probe, piece_counts, float(p), tol)
    summary = {"p": float(p), "tol": tol, "piece_counts": [int(n) for n in piece_counts]}
    return SuiteResult("approximation_limit", all(r.passed for r in rows), summary, rows)


# A few dozen ulps: the exact and Monte Carlo routes sum the same path values
# in different orders.
_ROUNDOFF = 64 * float(np.finfo(float).eps)

# Standard errors a Monte Carlo value may stray from the exact one.
_SIGMA = 4.0


def _dev_over_se(mc, exact, stderr) -> np.ndarray:
    """|mc - exact| in standard errors widened by the roundoff allowance.

    The allowance ``_ROUNDOFF`` relative to the larger modulus counts as
    ``_ROUNDOFF * scale / _SIGMA`` extra standard error, so a comparison
    passes exactly when its ratio is at most ``_SIGMA``.  The ratio is 0 where
    the deviation is 0, even where the standard error and the scale are 0.
    """
    mc, exact = np.asarray(mc), np.asarray(exact)
    dev = np.abs(mc - exact)
    allowance = stderr + _ROUNDOFF * np.maximum(np.abs(exact), np.abs(mc)) / _SIGMA
    return np.divide(dev, allowance, out=np.zeros_like(dev), where=dev > 0.0)


def suite_mc_crosscheck(
    seed: int,
    samples: int,
    mc_seed: int,
    n: int = 4,
    horizon: int = 4,
    epsilon: float = 0.8,
) -> SuiteResult:
    """Stratified Monte Carlo against exact enumeration, within ``_SIGMA`` standard errors.

    Each comparison also allows ``_ROUNDOFF`` relative to the larger of the two
    values, so a stratum whose samples all agree (standard error 0) passes
    when the two routes differ by roundoff alone.
    """
    space, gen = random_reversible_generator([seed, 1], n)
    ps = PathSpace(heat_operator(gen, epsilon / 2.0), horizon)
    rng = np.random.default_rng([seed, 2])
    probe = Field(space, _random_complex(rng, n))
    signs = rng.choice([-1.0, 1.0], horizon)
    functional = martingale_transform(ps, signs, probe)

    # the functional keeps one path set's values at a time: use the table's, then the draw's
    exact_field = hat_expectation(ps, functional)
    exact_norm = path_lp_norm(ps, functional, 2.0)
    mc_field, mc_field_se = hat_expectation(ps, functional, mode="mc", seed=mc_seed, samples=samples)
    mc_norm, mc_se = path_lp_norm(ps, functional, 2.0, mode="mc", seed=mc_seed, samples=samples)
    field_ratio = float(_dev_over_se(mc_field.values, exact_field.values, mc_field_se).max())
    norm_ratio = float(_dev_over_se(mc_norm, exact_norm, mc_se))

    summary = {
        "samples": samples,
        "sigma": _SIGMA,
        "max_field_dev_over_se": field_ratio,
        "norm_dev_over_se": norm_ratio,
        "exact_norm": exact_norm,
        "mc_norm": mc_norm,
    }
    return SuiteResult("mc_crosscheck", field_ratio <= _SIGMA and norm_ratio <= _SIGMA, summary)
