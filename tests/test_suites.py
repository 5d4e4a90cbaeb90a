import gc
import json
import math
import tracemalloc
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
from lapmult import (
    EnumerationBudgetError,
    MultiplierSymbol,
    SampledMultiplier,
    decompose,
    dilation,
    imaginary_power_preset,
    inequalities,
    multiplier,
    random_reversible_generator,
    suites,
    symbol_of_sampled,
)
from lapmult.config import parse_config
from lapmult.inequalities import make_report
from lapmult.runner import report_json, run_config
from lapmult.spectral import generator_roundoff


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


def test_dilation_family_refuses_a_member_before_building_it(monkeypatch):
    # a member past the path limits stops the family before its chain, and the
    # check's per-step draws of horizon length, are made
    def unbuilt(*args, **kwargs):
        raise AssertionError("a chain was built for a member past the path limits")

    monkeypatch.setattr(suites, "random_reversible_generator", unbuilt)
    with pytest.raises(EnumerationBudgetError, match=r"give \d+\*\*\d+ paths"):
        next(dilation_instance_family(1, 1, max_horizon=10**8))


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


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_imaginary_powers_forms_one_simpson_pair_per_eigenvalue(monkeypatch, scale):
    # one walk up the spectrum per gamma: a value at every eigenvalue, an error
    # bound at every positive one, and one pair of Simpson sums per distinct
    # nonzero eigenvalue, which the symbol keeps only while it is the last seen
    _, gen = random_reversible_generator(2, 16, conductance_scale=scale)
    gammas = [0.5, 2.0]
    values, bounds, pairs = [], [], []
    nonzero_prefix = multiplier._nonzero_prefix

    def counted_prefix(t, lam):
        pairs.append(lam)
        return nonzero_prefix(t, lam)

    def counted_symbol(sampled):
        symbol = symbol_of_sampled(sampled)

        def evaluator(lam):
            values.append(lam)
            return symbol.evaluator(lam)

        def error_bound(lam):
            bounds.append(lam)
            return symbol.error_bound(lam)

        return MultiplierSymbol(evaluator, error_bound)

    monkeypatch.setattr(multiplier, "_nonzero_prefix", counted_prefix)
    monkeypatch.setattr(suites, "symbol_of_sampled", counted_symbol)
    result = suite_imaginary_powers(gen, gammas, grid=401)
    spectrum = decompose(gen).eigenvalues.tolist()
    assert values == spectrum * len(gammas)
    assert bounds == result.summary["positive_eigenvalues"] * len(gammas)
    assert pairs == [lam for lam in dict.fromkeys(spectrum) if lam != 0.0] * len(gammas)


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


def test_llogl_chain_bisects_per_block_and_builds_increments_twice_per_field_block(monkeypatch):
    # blocks of two 3-field chains: the doubled family of 4 chains makes two
    # bisection blocks; field blocks of 2 * 3^3 path values split each chain's
    # 3 fields into 2 field blocks, and the transform and the square function
    # each build a field block's increments once
    kwargs = dict(seed=21, chains=2, fields=3, n=3, horizon=2)
    whole = suite_llogl_chain(**kwargs)
    calls = {"luxemburg_rows": 0, "_increment_tables": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(inequalities, "luxemburg_rows")
    counted(dilation, "_increment_tables")
    monkeypatch.setattr(suites, "_LLOGL_BLOCK_ROWS", 6)
    monkeypatch.setattr(inequalities, "_LLOGL_BLOCK_VALUES", 2 * 3**3)
    split = suite_llogl_chain(**kwargs)
    assert calls == {"luxemburg_rows": 2, "_increment_tables": 4 * 2 * 2}
    assert json.dumps(split.to_dict()) == json.dumps(whole.to_dict())


def test_llogl_chain_paper_suite_family_is_one_block():
    # the preset's 40 chains of 20 fields are 800 rows, within one block of 4096
    assert suites._LLOGL_BLOCK_ROWS == 4096
    blocks = list(suites._llogl_blocks(606, 40, 20, 4, 5, 0.8))
    assert [len(block) for block in blocks] == [40]
    assert sum(len(batch) for _, batch in blocks[0]) == 800


def test_llogl_chain_traced_peak_on_the_paper_suite_family_stays_within_4_mib():
    # each field block holds at most inequalities._LLOGL_BLOCK_VALUES path
    # values (8 fields at 4^6 paths here), and its passes hold about 1 MiB
    # at once; a larger block, or a pass kept past its block, shows here
    blocks = list(suites._llogl_blocks(606, 40, 20, 4, 5, 0.8))
    tracemalloc.start()
    try:
        for block in blocks:
            inequalities.llogl_chain_check(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_llogl_chain_reads_the_pass_of_each_row(monkeypatch):
    # one chain of one pair with one row, under a name the suite does not know:
    # the row's infinite ratio fails it (make_report), and so the suite
    row = make_report("one-row", 1.0, 0.0, math.inf, "report-only")
    monkeypatch.setattr(suites, "llogl_chain_check", lambda block: [((row,),) for _ in block])
    result = suite_llogl_chain(seed=21, chains=1, fields=1, n=3, horizon=2, stability_doubling=False)
    assert result.summary["all_finite"] is False
    assert list(result.summary["stability"]) == ["one-row"]
    assert result.passed is False


def test_probe_field_states_the_field_size():
    _, gen = random_reversible_generator(7, 3)
    with pytest.raises(ValueError, match=r"^field must have 3 entries$"):
        suites.probe_field(gen, None, [1.0, 2.0])
    assert suites.probe_field(gen, None, [1.0, 2j, 3.0]).values.tolist() == [1.0, 2j, 3.0]


def test_mc_crosscheck_folds_the_path_weights_once(monkeypatch):
    # both exact reductions read the weights through transition_products, the
    # call the benchmark counts, and the kernel keeps them after the first fold
    folds, calls = [], []
    fold, products = dilation._fold_weights, dilation.transition_products
    monkeypatch.setattr(dilation, "_fold_weights", lambda *args: folds.append(args) or fold(*args))
    monkeypatch.setattr(dilation, "transition_products", lambda ps: calls.append(ps) or products(ps))
    suite_mc_crosscheck(17, samples=2000, mc_seed=23, horizon=5)
    assert len(calls) == 2
    assert len(folds) == 1


@pytest.mark.parametrize("horizon", [0, 1, 5, 9, 63])
def test_sign_draws_are_the_values_and_stream_of_choice(horizon):
    # a numpy whose choice draws otherwise fails here rather than moving report bytes
    for i, j in [(0, 0), (3, 7), (19, 19)]:
        ours, theirs = np.random.default_rng([606, i, j, 2]), np.random.default_rng([606, i, j, 2])
        signs, chosen = suites._random_signs(ours, horizon), theirs.choice([-1.0, 1.0], horizon)
        assert signs.dtype == chosen.dtype and signs.shape == chosen.shape
        assert signs.tobytes() == chosen.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()


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


def test_imaginary_powers_checks_every_positive_eigenvalue(monkeypatch):
    # an error bound below the deviation at an eigenvalue whose deviation is
    # not the largest: a row at the largest deviation alone would still pass
    _, gen = random_reversible_generator(11, 8)
    gamma, grid = 1.0, 401
    symbol = symbol_of_sampled(imaginary_power_preset(gamma, 48.0, grid))
    floor = generator_roundoff(gen.entries)
    devs = {lam: abs(symbol.evaluator(lam) - np.exp(1j * gamma * math.log(lam)))
            for lam in decompose(gen).eigenvalues.tolist() if lam > floor}
    worst = max(devs, key=devs.get)
    target = min((lam for lam in devs if lam != worst), key=devs.get)
    assert 0.0 < devs[target] < devs[worst]

    def shrunk(sampled):
        real = symbol_of_sampled(sampled)
        return MultiplierSymbol(real.evaluator,
                                lambda lam: 0.5 * devs[target] if lam == target else real.error_bound(lam))

    assert suite_imaginary_powers(gen, [gamma], grid=grid).passed
    monkeypatch.setattr(suites, "symbol_of_sampled", shrunk)
    result = suite_imaginary_powers(gen, [gamma], grid=grid)
    assert not result.passed
    row = result.inequalities[0]
    assert (row.lhs, row.rhs, row.passed) == (devs[target], 0.5 * devs[target], False)
