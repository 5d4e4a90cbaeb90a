import gc
import json
import math
import weakref

import numpy as np
import pytest

from lapmult.suites import (
    dilation_instance_family,
    step_instance_family,
    suite_approximation_limit,
    suite_dilation_identity,
    suite_imaginary_powers,
    suite_llogl_chain,
    suite_markov_conditions,
    suite_mc_crosscheck,
    suite_multiplier_pnorm,
    suite_multiplier_pnorm_family,
    suite_step_convergence,
    suite_transform_pnorm,
)
from lapmult.suites import _ROUNDOFF, _SIGMA, _dev_over_se
from lapmult import SampledMultiplier, decompose, random_reversible_generator, suites
from lapmult.config import parse_config
from lapmult.inequalities import make_report
from lapmult.runner import report_json, run_config


def test_step_family_prefix_stable():
    short = step_instance_family(11, 3)
    long = step_instance_family(11, 6)
    for (g1, m1, f1), (g2, m2, f2) in zip(short, long):
        assert np.array_equal(g1.entries, g2.entries)
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(f1.values, f2.values)


def test_dilation_family_prefix_stable():
    short = dilation_instance_family(12, 2)
    long = dilation_instance_family(12, 5)
    for (g1, ps1, f1), (g2, ps2, f2) in zip(short, long):
        assert np.array_equal(g1.entries, g2.entries)
        assert ps1.horizon == ps2.horizon
        assert np.array_equal(f1.values, f2.values)


def test_dilation_family_keeps_one_instance_alive():
    family = iter(dilation_instance_family(12, 3))
    first = weakref.ref(next(family)[1])
    second = next(family)[1]
    gc.collect()
    assert first() is None
    assert second.horizon >= 1


class TestStepFamilySharing:
    def test_repeat_call_returns_the_same_tuple(self):
        family = step_instance_family(21, 4, max_n=6)
        assert isinstance(family, tuple)
        assert step_instance_family(21, 4, max_n=6) is family
        assert step_instance_family(21, 4, 6, 8) is family

    def test_other_arguments_replace_the_kept_family(self):
        family = step_instance_family(22, 3, max_n=6)
        gen_ref = weakref.ref(family[0][0])
        dec_ref = weakref.ref(decompose(family[0][0]))
        other = step_instance_family(22, 4, max_n=6)
        assert other is not family
        assert other[0][0] is not family[0][0]
        del family
        gc.collect()
        assert gen_ref() is None
        assert dec_ref() is None
        assert step_instance_family(22, 4, max_n=6) is other

    def test_shared_family_reports_match_cold_rebuilds(self, monkeypatch, cold_step_family):
        # each suite below asks for the same family; rebuilding it cold before
        # every suite decomposes each member once per suite, and must change
        # no report byte
        family = {"seed": 23, "instances": 4, "max_n": 8, "max_pieces": 3}
        config = parse_config({"schema": "lapmult-config-1", "suites": [
            {"check": "step_identity", **family},
            {"check": "l2_bound", **family},
            {"check": "multiplier_pnorm_family", **family, "p_grid": [1.5, 2, 3],
             "probes": 4, "ascent_steps": 2, "probe_seed": 0},
        ]})
        eigh = np.linalg.eigh
        calls = []

        def counted(sym):
            calls.append(sym.shape)
            return eigh(sym)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cold_step_family()
        shared = report_json(run_config(config))
        assert len(calls) == 4

        build = suites.step_instance_family

        def cold(*args):
            cold_step_family()
            return build(*args)

        monkeypatch.setattr(suites, "step_instance_family", cold)
        calls.clear()
        rebuilt = report_json(run_config(config))
        assert len(calls) == 3 * 4
        assert rebuilt == shared


    def test_l2_bound_reuses_the_step_identity_spectral_route(self, monkeypatch, cold_step_family):
        family = (24, 5, 8, 3)
        cold_step_family()
        cold = json.dumps(suites.suite_l2_bound(*family).to_dict())
        cold_step_family()
        suites.suite_step_identity(*family)
        apply_tm = suites.apply_Tm
        calls = []

        def counted(*args):
            calls.append(args)
            return apply_tm(*args)

        monkeypatch.setattr(suites, "apply_Tm", counted)
        shared = json.dumps(suites.suite_l2_bound(*family).to_dict())
        assert calls == []
        assert shared == cold


def test_step_family_respects_bounds():
    for gen, step, probe in step_instance_family(13, 10, max_n=9, max_pieces=4):
        assert 2 <= gen.space.n <= 9
        assert 1 <= step.values.size <= 4
        assert probe.values.size == gen.space.n


def test_transform_pnorm_rows_follow_the_grid():
    # one row per grid entry, in grid order, each the family's worst at its p;
    # ordering by row name would put p=12 before p=2 and merge a repeated p
    def rows(grid):
        result = suite_transform_pnorm(4, 3, grid, max_n=4, max_horizon=3)
        assert result.passed
        return [r.to_dict() for r in result.inequalities]

    got = rows([2, 12, 1.5, 2])
    assert [r["name"] for r in got] == [f"transform-pnorm p={p}" for p in ("2", "12", "1.5", "2")]
    assert got[3] == got[0]
    assert got[:3] == rows([2]) + rows([12]) + rows([1.5])


def test_multiplier_pnorm_fit_counts_a_repeated_p_once():
    # both multiplier suites share one fold and one fit: a repeated p repeats
    # its row but is one point of the growth fit
    gen, step, _ = step_instance_family(3, 1)[0]
    once = suite_multiplier_pnorm(gen, step, [1.25, 1.5, 2, 3], 8, 3, 0)
    twice = suite_multiplier_pnorm(gen, step, [1.25, 1.5, 1.5, 2, 3], 8, 3, 0)
    rows = [r.to_dict() for r in once.inequalities]
    assert [r.to_dict() for r in twice.inequalities] == rows[:2] + rows[1:]
    for key in ("growth_fit_slope", "growth_fit_intercept"):
        assert twice.summary[key] == once.summary[key] is not None


# The failing side of each suite's pass rule: the check the suite calls is
# replaced by one that reports a violation, and the suite must fail on it.
def test_transform_pnorm_fails_on_a_contraction_excess(monkeypatch):
    check = suites.transform_pnorm_check

    def with_excess(ps, m_values, f, p_grid):
        return tuple((row, 1e-6) for row, _ in check(ps, m_values, f, p_grid))

    monkeypatch.setattr(suites, "transform_pnorm_check", with_excess)
    result = suite_transform_pnorm(4, 3, [1.5, 3], max_n=4, max_horizon=3)
    assert all(r.passed for r in result.inequalities)
    assert result.passed is False
    assert result.summary["contraction_ok"] is False
    assert result.summary["worst_contraction_excess"] == 1e-6


def _violating_pnorm_check(calls):
    """A stand-in for the family check that records its calls; the second row (p = 2) violates."""
    def one_violation(members, p_grid, *args):
        calls.append((list(members), args))
        rows = [make_report(f"multiplier-pnorm p={p:g}", 0.5, 1.0, 1.0, "paper") for p in p_grid]
        rows[1] = make_report("multiplier-pnorm p=2", 1.5, 1.0, 1.0, "paper")
        return tuple(rows)

    return one_violation


def test_multiplier_pnorm_family_fails_on_a_row_above_its_threshold(monkeypatch):
    calls = []
    monkeypatch.setattr(suites, "multiplier_pnorm_family_check", _violating_pnorm_check(calls))
    result = suite_multiplier_pnorm_family(6, 3, [1.5, 2, 3], probes=2, ascent_steps=1, probe_seed=0)
    assert [(len(members), args) for members, args in calls] == [(3, (2, 1, 0))]
    assert [r.passed for r in result.inequalities] == [True, False, True]
    assert result.inequalities[1].ratio == 1.5
    assert result.passed is False


def test_multiplier_pnorm_fails_on_a_row_above_its_threshold(monkeypatch):
    calls = []
    monkeypatch.setattr(suites, "multiplier_pnorm_family_check", _violating_pnorm_check(calls))
    gen, step, _ = step_instance_family(3, 1)[0]
    result = suite_multiplier_pnorm(gen, step, [1.5, 2, 3], probes=2, ascent_steps=1, probe_seed=4)
    assert calls == [([(gen, step)], (2, 1, 4))]
    assert [r.passed for r in result.inequalities] == [True, False, True]
    assert result.inequalities[1].ratio == 1.5
    assert result.passed is False


def test_dilation_identity_fails_on_a_deviation_above_tol(monkeypatch):
    monkeypatch.setattr(suites, "dilation_identity_check", lambda ps, f, generator=None: (0.0, 2e-10))
    result = suite_dilation_identity(3, 2, max_n=3, max_horizon=2, tol=1e-10)
    assert result.summary["max_deviation_heat"] == 2e-10
    assert result.passed is False


def test_markov_conditions_fails_on_a_violation_above_tol(monkeypatch):
    check = suites.verify_markov_conditions

    def with_violation(kernel):
        return {**check(kernel), "symmetry_violation": 2e-10}

    monkeypatch.setattr(suites, "verify_markov_conditions", with_violation)
    _, gen = random_reversible_generator(42, 5)
    assert suite_markov_conditions(gen, tol=3e-10).passed is True
    result = suite_markov_conditions(gen, tol=1e-10)
    assert result.summary["symmetry_violation"] == 2e-10
    assert result.passed is False


def _step_convergence_with(monkeypatch, errors):
    """suite_step_convergence on a unit field (tol = rel_tol) whose check returns ``errors``."""
    monkeypatch.setattr(suites, "step_convergence_check", lambda gen, sampled, f, counts: errors)
    _, gen = random_reversible_generator(7, 3)
    sampled = SampledMultiplier(lambda t: np.exp(-t), 4.0, 65, 1.0)
    field = np.ones(3) / math.sqrt(gen.space.total_mass)
    return suite_step_convergence(gen, sampled, [4, 8, 16], field=field, rel_tol=1e-2)


def test_step_convergence_fails_on_a_rising_error_curve(monkeypatch):
    assert _step_convergence_with(monkeypatch, (1e-3, 1.09e-3, 1e-3)).passed is True
    result = _step_convergence_with(monkeypatch, (1e-3, 1.11e-3, 1e-3))
    assert result.summary["monotone_ok"] is False
    assert result.passed is False


def test_step_convergence_fails_on_a_final_error_above_tol(monkeypatch):
    result = _step_convergence_with(monkeypatch, (0.5, 0.1, 0.011))
    assert result.summary["tol"] == pytest.approx(1e-2, rel=1e-12)
    assert result.summary["monotone_ok"] is True
    assert result.passed is False


@pytest.mark.parametrize("probe", [{}, {"field": [1.0, 2.0, 3.0], "field_seed": 5}], ids=["neither", "both"])
def test_probed_suites_need_exactly_one_of_field_and_field_seed(probe):
    # with neither the field would be unseeded; with both one would be ignored
    _, gen = random_reversible_generator(7, 3)
    sampled = SampledMultiplier(lambda t: np.exp(-t), 4.0, 65, 1.0)
    with pytest.raises(ValueError, match="exactly one"):
        suite_step_convergence(gen, sampled, [4, 8], **probe)
    with pytest.raises(ValueError, match="exactly one"):
        suite_approximation_limit(gen, sampled, [4, 8], **probe)


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_imaginary_powers_leaves_out_only_the_zero_mode(scale):
    # at scale 1e8 the zero mode comes out as 3.2e-07, far above an absolute 1e-8 floor
    _, gen = random_reversible_generator(2, 16, conductance_scale=scale)
    result = suite_imaginary_powers(gen, [0.5, 1.0, 2.0])
    positive = result.summary["positive_eigenvalues"]
    assert len(positive) == 15
    assert positive == decompose(gen).eigenvalues[1:].tolist()
    assert positive[0] > 1e-2 * scale


def test_markov_conditions_suite_serializes_kernel():
    _, gen = random_reversible_generator(42, 5)
    result = suite_markov_conditions(gen, time=0.7)
    assert result.passed
    kernel = np.asarray(result.summary["kernel"]["entries"])
    assert kernel.shape == (5, 5)


def test_llogl_chain_without_doubling():
    result = suite_llogl_chain(seed=21, chains=2, fields=2, n=3, horizon=3,
                               stability_doubling=False)
    assert result.passed
    assert result.summary["all_finite"]


def test_mc_crosscheck_deterministic():
    a = suite_mc_crosscheck(17, samples=5000, mc_seed=23)
    b = suite_mc_crosscheck(17, samples=5000, mc_seed=23)
    assert a.summary == b.summary


@pytest.mark.parametrize("seed", [1, 5, 8])
def test_mc_crosscheck_passes_on_roundoff_alone(seed):
    # one state, so every path carries the same transform value (0 up to
    # roundoff): the standard error is 0 and the two routes differ in the last ulp
    result = suite_mc_crosscheck(seed, samples=1000, mc_seed=23, n=1, horizon=4)
    assert result.summary["mc_norm"] != result.summary["exact_norm"]
    assert result.passed
    assert result.summary["max_field_dev_over_se"] <= result.summary["sigma"]
    assert result.summary["norm_dev_over_se"] <= result.summary["sigma"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 4])
def test_mc_crosscheck_ratios_agree_with_the_pass_flag(seed, n):
    # eight samples fail on these seeds with four states and pass with one,
    # so both outcomes occur
    result = suite_mc_crosscheck(seed, samples=8, mc_seed=23, n=n, horizon=4)
    ratios = (result.summary["max_field_dev_over_se"], result.summary["norm_dev_over_se"])
    assert result.passed == all(r <= result.summary["sigma"] for r in ratios)
    assert all(math.isfinite(r) and r >= 0.0 for r in ratios)


def test_dev_over_se_is_zero_where_the_deviation_is():
    ratios = _dev_over_se(np.array([0.0, 1.5, 2.0]), np.array([0.0, 1.5, 1.0]), np.zeros(3))
    assert ratios[0] == ratios[1] == 0.0
    assert ratios[2] == 1.0 / (_ROUNDOFF * 2.0 / _SIGMA)
