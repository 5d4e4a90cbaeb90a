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

from .dilation import (
    DEFAULT_PATH_BUDGET,
    PathSpace,
    dilation_identity_check,
    hat_expectation,
    martingale_transform,
    path_lp_norm,
    transform_expectation_identity,
)
from .inequalities import (
    _PASS_SLACK,
    InequalityReport,
    _pnorm_growth_fit,
    approximation_limit_check,
    llogl_chain_check,
    make_report,
    multiplier_operator,
    multiplier_pnorm_check,
    opnorm_exact,
    transform_pnorm_check,
    verify_markov_conditions,
)
from .multiplier import (
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    imaginary_power_preset,
    step_convergence_check,
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
from .spectral import decompose

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
    report_only: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "report_only": self.report_only,
            "summary": self.summary,
            "inequalities": [r.to_dict() for r in self.inequalities],
        }


def _random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def step_instance_family(
    seed: int,
    count: int,
    max_n: int = 16,
    max_pieces: int = 8,
) -> list[tuple[ReversibleGenerator, StepMultiplier, Field]]:
    """Random chains with complex-valued step multipliers and complex probe fields."""
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
    return out


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


def suite_markov_conditions(
    chain: ReversibleGenerator, time: float = 1.0, tol: float = 1e-10
) -> SuiteResult:
    """Verify the four kernel conditions on a heat operator of the given chain."""
    kernel = heat_operator(chain, time)
    report = verify_markov_conditions(kernel, tol)
    summary = report.to_dict()
    summary["time"] = time
    summary["kernel"] = kernel.to_dict()
    return SuiteResult("markov_conditions", report.passed, summary)


def suite_step_identity(
    seed: int,
    instances: int,
    max_n: int = 16,
    max_pieces: int = 8,
    tol: float = 1e-10,
) -> SuiteResult:
    """Exact identity between the telescoped operator and the step-symbol operator.

    The deviation is measured relative to sup|M| ||f||_2, the natural scale of
    both sides.
    """
    worst = 0.0
    for gen, step, probe in step_instance_family(seed, instances, max_n, max_pieces):
        telescoped = telescoping_Tm(gen, step, probe)
        spectral_route = apply_Tm(decompose(gen), symbol_of_step(step), probe)
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
    """||T_m f||_2 <= sup|M| ||f||_2 with zero violations across the family."""
    violations = 0
    worst_ratio = 0.0
    for gen, step, probe in step_instance_family(seed, instances, max_n, max_pieces):
        value = lp_norm(apply_Tm(decompose(gen), symbol_of_step(step), probe), 2.0)
        bound = step.sup_norm * lp_norm(probe, 2.0)
        report = make_report("l2-bound", value, bound, 1.0, "paper")
        worst_ratio = max(worst_ratio, report.ratio)
        if not report.passed:
            violations += 1
    summary = {
        "instances": instances,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "slack": _PASS_SLACK,
    }
    return SuiteResult("l2_bound", violations == 0, summary)


def suite_dilation_identity(
    seed: int,
    instances: int,
    max_n: int = 6,
    max_horizon: int = 6,
    epsilon: float = 0.8,
    tol: float = 1e-10,
    budget: int = DEFAULT_PATH_BUDGET,
) -> SuiteResult:
    """E[f_k | x_0] = Q^{2k} f = T^{k eps} f for every level k, by exact enumeration."""
    worst_power = 0.0
    worst_heat = 0.0
    levels = 0
    for gen, ps, probe in dilation_instance_family(seed, instances, max_n, max_horizon, epsilon):
        for k in range(ps.horizon + 1):
            report = dilation_identity_check(ps, probe, k, generator=gen, tol=tol, budget=budget)
            worst_power = max(worst_power, report.deviation_kernel_power)
            worst_heat = max(worst_heat, report.deviation_heat)
            levels += 1
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
    budget: int = DEFAULT_PATH_BUDGET,
) -> SuiteResult:
    """E[sum M_i (f_{i+1}-f_i) | x_0] against kernel powers and the telescoped operator."""
    worst_power = 0.0
    worst_tel = 0.0
    for i, (gen, ps, probe) in enumerate(
        dilation_instance_family(seed, instances, max_n, max_horizon, epsilon)
    ):
        rng = np.random.default_rng([seed, i, 2])
        m_values = _random_complex(rng, ps.horizon)
        report = transform_expectation_identity(
            ps, m_values, probe, generator=gen, tol=tol, budget=budget
        )
        worst_power = max(worst_power, report.deviation_kernel_powers)
        worst_tel = max(worst_tel, report.deviation_telescoping)
    summary = {
        "instances": instances,
        "max_deviation_kernel_powers": worst_power,
        "max_deviation_telescoping": worst_tel,
        "tol": tol,
    }
    return SuiteResult("transform_identity", max(worst_power, worst_tel) <= tol, summary)


def suite_multiplier_pnorm(
    chain: ReversibleGenerator,
    multiplier: StepMultiplier | SampledMultiplier,
    p_grid: Sequence[float],
    probes: int,
    ascent_steps: int,
    probe_seed: int,
) -> SuiteResult:
    """p-norm bound check of one multiplier operator over a p-grid."""
    result = multiplier_pnorm_check(chain, multiplier, p_grid, probes, ascent_steps, probe_seed)
    summary = {
        "p_grid": [float(p) for p in p_grid],
        "probes": probes,
        "ascent_steps": ascent_steps,
        "growth_fit_slope": result.fit_slope,
        "growth_fit_intercept": result.fit_intercept,
    }
    return SuiteResult("multiplier_pnorm", result.passed, summary, result.reports)


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
    """p-norm bound check across the step-multiplier family; reports worst ratios per p.

    The growth of the family-maximal ratio in 1/(p-1) is fitted on p <= 2 and
    reported without a pass threshold.
    """
    grid = [float(p) for p in p_grid]
    worst: dict[float, InequalityReport] = {}
    for i, (gen, step, _) in enumerate(
        step_instance_family(seed, instances, max_n, max_pieces)
    ):
        result = multiplier_pnorm_check(
            gen, step, grid, probes, ascent_steps, probe_seed + i
        )
        for p, report in zip(grid, result.reports):
            prev = worst.get(p)
            if prev is None or report.ratio > prev.ratio:
                worst[p] = report
    reports = tuple(worst[p] for p in grid)
    slope, intercept = _pnorm_growth_fit((p, r.ratio) for p, r in worst.items())
    summary = {
        "instances": instances,
        "p_grid": [float(p) for p in p_grid],
        "probes": probes,
        "ascent_steps": ascent_steps,
        "growth_fit_slope": slope,
        "growth_fit_intercept": intercept,
    }
    return SuiteResult(
        "multiplier_pnorm_family", all(r.passed for r in reports), summary, reports
    )


def suite_transform_pnorm(
    seed: int,
    instances: int,
    p_grid: Sequence[float],
    max_n: int = 6,
    max_horizon: int = 6,
    epsilon: float = 0.8,
    contraction_tol: float = 1e-10,
    budget: int = DEFAULT_PATH_BUDGET,
) -> SuiteResult:
    """Exact path-space transform bounds with random sign multipliers."""
    worst: dict[str, InequalityReport] = {}
    contraction_ok = True
    worst_excess = 0.0
    for i, (_, ps, probe) in enumerate(
        dilation_instance_family(seed, instances, max_n, max_horizon, epsilon)
    ):
        rng = np.random.default_rng([seed, i, 3])
        signs = rng.choice([-1.0, 1.0], ps.horizon)
        for p in p_grid:
            result = transform_pnorm_check(
                ps, signs, probe, float(p), contraction_tol, budget
            )
            report = result.report
            prev = worst.get(report.name)
            if prev is None or report.ratio > prev.ratio:
                worst[report.name] = report
            contraction_ok = contraction_ok and result.contraction_ok
            worst_excess = max(worst_excess, result.contraction_excess)
    reports = tuple(worst[name] for name in sorted(worst))
    summary = {
        "instances": instances,
        "p_grid": [float(p) for p in p_grid],
        "contraction_ok": contraction_ok,
        "worst_contraction_excess": worst_excess,
        "contraction_tol": contraction_tol,
    }
    passed = contraction_ok and all(r.passed for r in reports)
    return SuiteResult("transform_pnorm", passed, summary, reports)


def _probe_field(chain: ReversibleGenerator, field_seed, field) -> Field:
    if field is not None:
        return Field(chain.space, np.asarray(field, dtype=complex))
    rng = np.random.default_rng(field_seed)
    return Field(chain.space, _random_complex(rng, chain.space.n))


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
    dec = decompose(chain)
    tol = rel_tol * lp_norm(probe, 2.0)
    report = step_convergence_check(dec, multiplier, probe, piece_counts, tol)
    summary = report.to_dict()
    summary["rel_tol"] = rel_tol
    summary["probe_l2"] = lp_norm(probe, 2.0)
    return SuiteResult("step_convergence", report.passed, summary)


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
        for j in range(fields):
            rng = np.random.default_rng([seed, i, j, 2])
            probe = Field(space, _random_complex(rng, n))
            signs = rng.choice([-1.0, 1.0], horizon)
            chain_result = llogl_chain_check(ps, signs, probe)
            all_finite = all_finite and chain_result.all_finite
            for report in chain_result.reports:
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


_POSITIVE_FLOOR = 1e-8


def suite_imaginary_powers(
    chain: ReversibleGenerator,
    gammas: Sequence[float],
    t_max: float = 48.0,
    grid: int = 24001,
) -> SuiteResult:
    """Quadrature symbols of imaginary powers against lam^{i gamma} at the spectrum.

    For each gamma the symbol must match lam^{i gamma} within its reported
    error at every positive eigenvalue, and the operator's 2-norm must stay
    within sup|M| plus the worst reported error.  Eigenvalues below
    ``_POSITIVE_FLOOR`` are the conservation zero mode up to roundoff and are
    not counted as positive.
    """
    dec = decompose(chain)
    positive = [float(lam) for lam in dec.eigenvalues if lam > _POSITIVE_FLOOR]
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
        op, sup = multiplier_operator(chain, preset)
        opnorm = opnorm_exact(op, chain.space, 2.0).value
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
    result = approximation_limit_check(chain, multiplier, probe, piece_counts, float(p), tol)
    reports = result.step_reports + (result.limit_report,)
    summary = {"p": float(p), "tol": tol, "piece_counts": [int(n) for n in piece_counts]}
    return SuiteResult("approximation_limit", result.passed, summary, reports)


# A few dozen ulps: the exact and Monte Carlo routes sum the same path values
# in different orders.
_ROUNDOFF = 64 * float(np.finfo(float).eps)

# Standard errors a Monte Carlo value may stray from the exact one.
_SIGMA = 4.0


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

    exact_field = hat_expectation(ps, functional)
    mc = hat_expectation(ps, functional, mode="mc", seed=mc_seed, samples=samples)
    field_dev = np.abs(mc.field.values - exact_field.values)
    field_scale = np.maximum(np.abs(exact_field.values), np.abs(mc.field.values))
    field_ok = bool(np.all(field_dev <= _SIGMA * mc.stderr + _ROUNDOFF * field_scale))

    exact_norm = path_lp_norm(ps, functional, 2.0)
    mc_norm, mc_se = path_lp_norm(ps, functional, 2.0, mode="mc", seed=mc_seed, samples=samples)
    norm_ok = abs(mc_norm - exact_norm) <= _SIGMA * mc_se + _ROUNDOFF * max(exact_norm, mc_norm)

    summary = {
        "samples": samples,
        "sigma": _SIGMA,
        "max_field_dev_over_se": float((field_dev / np.maximum(mc.stderr, 1e-300)).max()),
        "norm_dev_over_se": abs(mc_norm - exact_norm) / max(mc_se, 1e-300),
        "exact_norm": exact_norm,
        "mc_norm": mc_norm,
    }
    return SuiteResult("mc_crosscheck", field_ok and norm_ok, summary)
