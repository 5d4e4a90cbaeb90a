"""The check table: each check's keys are declared once, match its runner, and
no key a config gives is silently dropped or overridden."""

import copy
import inspect
import json
import math

import pytest

from lapmult import MAX_STATES, dilation, runner
from lapmult.cli import EXIT_CONFIG_ERROR, main
from lapmult.config import CHECKS, KNOWN_CHECKS, ConfigError, parse_config

SEEDED_CHAIN = {"seed": 3, "n": 4}
EXP = {"type": "sampled", "name": "exp", "t_max": 3.0, "grid": 65}
STEP = {"type": "step", "breakpoints": [0.0, 1.0], "values": [1.0]}
EXACT = {"epsilon": 0.8, "mode": "exact"}

# One small valid entry per check, with every nested object the check accepts.
VALID = {
    "markov_conditions": {"chain": SEEDED_CHAIN},
    "step_identity": {"seed": 1, "instances": 2},
    "l2_bound": {"seed": 1, "instances": 2},
    "dilation_identity": {"seed": 1, "instances": 2, "dilation": EXACT},
    "transform_identity": {"seed": 1, "instances": 2, "dilation": EXACT},
    "multiplier_pnorm": {"chain": SEEDED_CHAIN, "multiplier": STEP, "p_grid": [1.5],
                         "probes": 2, "ascent_steps": 1, "probe_seed": 0},
    "multiplier_pnorm_family": {"seed": 1, "instances": 2, "p_grid": [1.5], "probes": 2,
                                "ascent_steps": 1, "probe_seed": 0},
    "transform_pnorm": {"seed": 1, "instances": 2, "p_grid": [1.5], "dilation": EXACT},
    "step_convergence": {"chain": SEEDED_CHAIN, "multiplier": EXP, "piece_counts": [2],
                         "field_seed": 5},
    "llogl_chain": {"seed": 1, "chains": 1, "fields": 1, "dilation": EXACT},
    "imaginary_powers": {"chain": SEEDED_CHAIN, "gammas": [1.0]},
    "approximation_limit": {"chain": SEEDED_CHAIN, "multiplier": EXP, "piece_counts": [2],
                            "field_seed": 5},
    "mc_crosscheck": {"seed": 1, "dilation": {"epsilon": 0.8, "mode": "mc", "samples": 10,
                                              "seed": 2}},
}

NESTED = ("chain", "multiplier", "dilation")


def config_of(check, **entry):
    return {"schema": "lapmult-config-1", "suites": [{"check": check, **entry}]}


def kwargs_of(check, **entry):
    return parse_config(config_of(check, **entry)).suites[0].kwargs


def test_valid_entries_cover_every_check():
    assert list(VALID) == list(CHECKS)
    for check, entry in VALID.items():
        assert parse_config(config_of(check, **entry)).suites[0].check == check


def test_derived_names_follow_the_table():
    assert KNOWN_CHECKS == tuple(CHECKS)
    assert list(runner._RUNNERS) == list(CHECKS)
    for name, check in CHECKS.items():
        assert runner._RUNNERS[name] is check.run


@pytest.mark.parametrize("name", list(CHECKS))
def test_table_matches_runner_signature(name):
    check = CHECKS[name]
    params = inspect.signature(check.run).parameters
    produced = set(check.params) | set(check.dilation.values())
    assert produced <= set(params), produced - set(params)
    # the converse: no runner parameter is out of a config's reach
    assert set(params) <= produced, set(params) - produced


@pytest.mark.parametrize("name", list(CHECKS))
def test_required_keys_are_the_runner_parameters_without_default(name):
    check = CHECKS[name]
    params = inspect.signature(check.run).parameters
    no_default = [key for key in check.params if params[key].default is inspect.Parameter.empty]
    # VALID gives those keys, the dilation block and, for a probe field, its seed
    assert set(VALID[name]) - {"dilation", "field_seed"} == set(no_default)
    for key in [*no_default, *(["dilation"] if check.dilation else [])]:
        entry = {k: v for k, v in VALID[name].items() if k != key}
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            parse_config(config_of(name, **entry))
    # a key the runner gives a default parses when omitted, and when given that default
    omitted = kwargs_of(name, **VALID[name])
    for key in check.params:
        default = params[key].default
        if key not in VALID[name] and default not in (inspect.Parameter.empty, None):
            assert key not in omitted
            assert kwargs_of(name, **VALID[name], **{key: default})[key] == default


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_parameter_has_one_spelling(name):
    check = CHECKS[name]
    assert not set(check.dilation.values()) & set(check.params)


@pytest.mark.parametrize("name", list(CHECKS))
def test_unknown_key_rejected(name):
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(config_of(name, **VALID[name], bogus=1))


@pytest.mark.parametrize("name,obj", [(name, obj) for name in CHECKS for obj in NESTED
                                      if obj in VALID[name]])
def test_unknown_nested_key_rejected(name, obj):
    entry = copy.deepcopy(VALID[name])
    entry[obj]["bogus"] = 1
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(config_of(name, **entry))


def test_unknown_root_key_rejected():
    raw = config_of("step_identity", seed=1, instances=2)
    parse_config(dict(raw, description="a run"))
    with pytest.raises(ConfigError, match="unknown key 'comment'"):
        parse_config(dict(raw, comment="x"))


def test_omitted_keys_take_the_runner_defaults():
    assert set(kwargs_of("markov_conditions", chain=SEEDED_CHAIN)) == {"chain"}
    kwargs = kwargs_of("approximation_limit", **VALID["approximation_limit"])
    assert "p" not in kwargs
    assert inspect.signature(CHECKS["approximation_limit"].run).parameters["p"].default == 2.0


# Each of these was once accepted and ran with a value other than the one the
# config states.
MISREAD = {
    "tolerance-for-tol": ("step_identity", {"seed": 1, "instances": 2, "tolerance": 1e-30}),
    "tol-on-transform-pnorm": ("transform_pnorm", {**VALID["transform_pnorm"], "tol": 1e-3}),
    "llogl-horizon-twice": ("llogl_chain", {
        "seed": 1, "chains": 1, "fields": 1, "horizon": 3,
        "dilation": {"epsilon": 0.8, "mode": "exact", "horizon": 4}}),
    "family-horizon-twice": ("dilation_identity", {
        "seed": 1, "instances": 2, "max_horizon": 3,
        "dilation": {"epsilon": 0.8, "mode": "exact", "horizon": 4}}),
    "seed-on-explicit-chain": ("markov_conditions", {
        "chain": {"weights": [0.5, 0.5], "generator": [[0.7, -0.7], [-0.7, 0.7]], "seed": 3}}),
    "gamma-on-exp": ("step_convergence", {
        **VALID["step_convergence"], "multiplier": {**EXP, "gamma": 1.0}}),
    "horizn-in-dilation": ("llogl_chain", {
        "seed": 1, "chains": 1, "fields": 1,
        "dilation": {"epsilon": 0.8, "mode": "exact", "horizn": 4}}),
    "nn-in-chain": ("markov_conditions", {"chain": {"seed": 3, "n": 4, "nn": 5}}),
    "boolean-breakpoints": ("multiplier_pnorm", {
        **VALID["multiplier_pnorm"], "multiplier": {**STEP, "breakpoints": [False, True]}}),
    "string-weights": ("markov_conditions", {
        "chain": {"weights": ["1", "2"], "generator": [[0.7, -0.7], [-0.35, 0.35]]}}),
}


# Keys that are no longer accepted: the path budget and the contraction slack
# are constants, and four checks take the horizon only at the top level.
DROPPED = {
    **{f"budget-on-{name.replace('_', '-')}": (name, {**VALID[name], "budget": 10**6})
       for name in ("dilation_identity", "transform_identity", "transform_pnorm")},
    "contraction-tol-on-transform-pnorm": (
        "transform_pnorm", {**VALID["transform_pnorm"], "contraction_tol": 1e-10}),
    **{f"nested-horizon-on-{name.replace('_', '-')}": (
        name, {**VALID[name], "dilation": {**EXACT, "horizon": 3}})
       for name in ("dilation_identity", "transform_identity", "transform_pnorm", "llogl_chain")},
}
REJECTED = {**MISREAD, **DROPPED}


@pytest.mark.parametrize("label", list(REJECTED))
def test_misread_config_is_rejected(label):
    check, entry = REJECTED[label]
    with pytest.raises(ConfigError):
        parse_config(config_of(check, **entry))


@pytest.mark.parametrize("label", list(REJECTED))
def test_misread_config_exits_2_without_output(label, tmp_path):
    check, entry = REJECTED[label]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_of(check, **entry)), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
    assert not out_dir.exists()


def test_each_horizon_spelling_is_accepted_alone():
    assert kwargs_of("llogl_chain", **VALID["llogl_chain"], horizon=3)["horizon"] == 3
    for name in ("dilation_identity", "transform_identity", "transform_pnorm"):
        assert kwargs_of(name, **VALID[name], max_horizon=3)["max_horizon"] == 3
    for name in ("dilation_identity", "transform_identity", "transform_pnorm", "llogl_chain"):
        with pytest.raises(ConfigError, match="unknown key 'horizon'"):
            parse_config(config_of(name, **{**VALID[name], "dilation": {**EXACT, "horizon": 3}}))
    mc = VALID["mc_crosscheck"]
    assert kwargs_of("mc_crosscheck", **{**mc, "dilation": {**mc["dilation"], "horizon": 3}})["horizon"] == 3


@pytest.mark.parametrize("dilation", [
    {"epsilon": 0.8},
    {"epsilon": 0.8, "mode": "exact", "samples": 10, "seed": 2},
])
def test_mc_crosscheck_needs_mc_mode(dilation):
    with pytest.raises(ConfigError):
        parse_config(config_of("mc_crosscheck", seed=1, dilation=dilation))


@pytest.mark.parametrize("name,key,value", [
    ("step_identity", "seed", -1),
    ("step_identity", "instances", 0),
    ("step_identity", "max_n", 1),
    ("step_identity", "max_pieces", 0),
    ("dilation_identity", "max_horizon", 0),
    ("mc_crosscheck", "n", 0),
    ("multiplier_pnorm", "probes", 0),
    ("multiplier_pnorm", "ascent_steps", -1),
    ("multiplier_pnorm", "p_grid", [1.0]),
    ("multiplier_pnorm", "p_grid", ["inf"]),
    ("multiplier_pnorm", "p_grid", []),
    ("step_convergence", "piece_counts", [0]),
    ("step_convergence", "rel_tol", float("inf")),
    ("step_convergence", "multiplier", STEP),
    ("imaginary_powers", "gammas", [10.5]),
    ("imaginary_powers", "grid", 4),
    ("imaginary_powers", "grid", 100),
    ("step_convergence", "multiplier", {**EXP, "grid": 100}),
    ("approximation_limit", "p", 1.0),
    ("llogl_chain", "n", 1),
    ("llogl_chain", "horizon", 0),
    ("llogl_chain", "stability_doubling", 1),
    ("multiplier_pnorm", "p_grid", [1.5, 65.0]),
    ("multiplier_pnorm", "p_grid", [1.015]),
    ("approximation_limit", "p", 100.0),
])
def test_bounds_are_kept(name, key, value):
    with pytest.raises(ConfigError):
        parse_config(config_of(name, **{**VALID[name], key: value}))


# The checks that draw a step family of chains with up to max_n states.
STEP_FAMILIES = [name for name, check in CHECKS.items() if "max_pieces" in check.params]


@pytest.mark.parametrize("name", STEP_FAMILIES)
def test_step_family_state_counts_stop_at_the_dense_state_limit(name):
    # parsing builds no step family, so the limit itself is safe to try here
    assert kwargs_of(name, **{**VALID[name], "max_n": MAX_STATES})["max_n"] == MAX_STATES
    with pytest.raises(ConfigError, match=f"{name}.max_n = {MAX_STATES + 1} is past the dense-state limit"):
        parse_config(config_of(name, **{**VALID[name], "max_n": MAX_STATES + 1}))


def test_exponents_at_both_ends_of_the_range_are_accepted():
    # p and its conjugate p/(p-1) are both at most 64
    grid = [64 / 63, 64.0]
    assert kwargs_of("multiplier_pnorm", **{**VALID["multiplier_pnorm"], "p_grid": grid})["p_grid"] == grid


def test_field_literal_must_match_chain_size():
    entry = {**VALID["step_convergence"], "field": [1.0, 2.0]}
    del entry["field_seed"]
    with pytest.raises(ConfigError, match="4 entries"):
        parse_config(config_of("step_convergence", **entry))


def test_field_refusals_are_the_probe_fields_own():
    # suites.probe_field states both rules; the parser prefixes the check's name
    entry = {**VALID["step_convergence"], "field": [1.0, 2.0]}
    with pytest.raises(ConfigError, match=r"^step_convergence: give exactly one of field or field_seed$"):
        parse_config(config_of("step_convergence", **entry))
    del entry["field_seed"]
    with pytest.raises(ConfigError, match=r"^step_convergence: field must have 4 entries$"):
        parse_config(config_of("step_convergence", **entry))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_field_literal_is_refused(value):
    # Python's json reads NaN and Infinity as numbers; the probe field refuses them before the run
    entry = {**VALID["step_convergence"], "field": [1.0, value, 2.0, 3.0]}
    del entry["field_seed"]
    with pytest.raises(ConfigError, match=r"^step_convergence: field values must be finite$"):
        parse_config(config_of("step_convergence", **entry))


# n = 4 and horizon 10 give 4^11 = 4194304 paths, past the enumeration budget
OVER_BUDGET = {
    "mc_crosscheck": {**VALID["mc_crosscheck"], "n": 4,
                      "dilation": {**VALID["mc_crosscheck"]["dilation"], "horizon": 10}},
    "llogl_chain": {**VALID["llogl_chain"], "n": 4, "horizon": 10},
}


@pytest.mark.parametrize("name", list(OVER_BUDGET))
def test_over_budget_path_space_is_a_config_error(name):
    with pytest.raises(ConfigError, match=f"{name}: n = 4 and horizon = 10 give 4194304 paths"):
        parse_config(config_of(name, **OVER_BUDGET[name]))


@pytest.mark.parametrize("name", list(OVER_BUDGET))
def test_path_budget_is_read_at_parse_time_with_runner_defaults(name, monkeypatch):
    params = inspect.signature(CHECKS[name].run).parameters
    count = params["n"].default ** (params["horizon"].default + 1)
    monkeypatch.setattr(dilation, "DEFAULT_PATH_BUDGET", count)
    parse_config(config_of(name, **VALID[name]))
    monkeypatch.setattr(dilation, "DEFAULT_PATH_BUDGET", count - 1)
    with pytest.raises(ConfigError, match=f"give {count} paths, past the enumeration budget of {count - 1}"):
        parse_config(config_of(name, **VALID[name]))


def test_a_long_horizon_is_refused_without_forming_the_path_count():
    entry = {**VALID["llogl_chain"], "horizon": 10**12}
    with pytest.raises(ConfigError, match=r"give 4\*\*1000000000001 paths"):
        parse_config(config_of("llogl_chain", **entry))


def test_only_the_cross_check_samples_paths():
    assert {name for name, check in CHECKS.items() if check.mode == "mc"} == {"mc_crosscheck"}


def test_the_checks_that_enumerate_one_path_space_are_checked_with_runner_defaults(monkeypatch):
    # the limits live in dilation.check_enumerable alone; the parser calls it
    # for the checks whose runner takes n and horizon, and for no other
    calls = []
    monkeypatch.setattr(dilation, "check_enumerable", lambda n, horizon: calls.append((n, horizon)))
    recorded = {}
    for name, entry in VALID.items():
        calls.clear()
        parse_config(config_of(name, **entry))
        if calls:
            recorded[name] = list(calls)
    expected = {}
    for name in ("llogl_chain", "mc_crosscheck"):
        params = inspect.signature(CHECKS[name].run).parameters
        expected[name] = [(params["n"].default, params["horizon"].default)]
    assert recorded == expected
    # a value the config gives is the one checked
    calls.clear()
    parse_config(config_of("llogl_chain", **VALID["llogl_chain"], n=3, horizon=2))
    mc = VALID["mc_crosscheck"]
    parse_config(config_of("mc_crosscheck", **{**mc, "dilation": {**mc["dilation"], "horizon": 3}}))
    assert calls == [(3, 2), (expected["mc_crosscheck"][0][0], 3)]
