"""No valid config crashes: ``lapmult run`` on single-suite configs drawn from ``config.CHECKS``.

Each key's strategy comes from its kind through ``KIND_STRATEGIES``, so a key
that a check gains is fuzzed without editing this file, and a kind with no
strategy fails ``test_every_kind_has_a_strategy``.  Integer kinds stay tiny;
positive numbers span 1e-300 to 1e300.  A key the runner has a default for is
present in some examples and absent in others.
"""

import contextlib
import inspect
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lapmult import cli, config, random_reversible_generator

POSITIVE = st.floats(1e-300, 1e300)
NUMBER = st.one_of(st.just(0.0), POSITIVE, POSITIVE.map(lambda x: -x))
# the exponents the parser accepts: p and p/(p-1) at most 64
EXPONENT = st.floats(config._MAX_EXPONENT / (config._MAX_EXPONENT - 1.0), config._MAX_EXPONENT)
SPAN = 2  # an integer kind ">= low" draws from [low, low + SPAN]
MAX_ITEMS = 2


def _nonlocal(kind, name):
    return inspect.getclosurevars(kind).nonlocals[name]


def _object(kinds, required):
    """Objects with every required key of ``kinds`` and any subset of the others."""
    return st.fixed_dictionaries(
        {key: strategy(kinds[key]) for key in required},
        optional={key: strategy(kind) for key, kind in kinds.items() if key not in required})


def _literal(kinds, **fixed):
    """Objects with every key of ``kinds``, the keys in ``fixed`` taking the given values."""
    free = {key: kind for key, kind in kinds.items() if key not in fixed}
    return _object(free, list(free)).map(lambda given: {**fixed, **given})


def _written_out(seed, n):
    """The explicit form of a seeded chain."""
    _, gen = random_reversible_generator(seed, n)
    return {"weights": gen.space.weights.tolist(), "generator": gen.entries.tolist()}


# Numbers drawn one by one almost never make an explicit chain or a step
# multiplier that their constructors accept, so each also comes in a shape
# that they do.
def _chain(kind):
    seeded = config._SEEDED_CHAIN
    return st.one_of(_object(seeded, config._no_default(random_reversible_generator, seeded)),
                     _object(config._EXPLICIT_CHAIN, config._EXPLICIT_CHAIN),
                     st.builds(_written_out, st.integers(0, SPAN), st.integers(1, 1 + SPAN)))


def _step(pieces):
    return st.fixed_dictionaries({
        "type": st.just("step"),
        "breakpoints": st.lists(POSITIVE, min_size=pieces, max_size=pieces).map(lambda t: [0.0, *sorted(t)]),
        "values": st.lists(strategy(config._scalar), min_size=pieces, max_size=pieces),
    })


def _sampled(kind):
    return st.one_of(_literal(config._SAMPLED, type="sampled", name="exp"),
                     _literal({**config._SAMPLED, "gamma": config._gamma}, type="sampled",
                              name="imaginary_power"))


def _multiplier(kind):
    return st.one_of(_literal(config._STEP, type="step"), st.integers(1, 1 + SPAN).flatmap(_step),
                     _sampled(kind))


# Kinds are keyed by qualified name, so the kinds a factory makes (integers
# from a lower bound, nonempty arrays of an item kind) share one entry, which
# reads the factory's argument back from the kind.
KIND_STRATEGIES = {
    "_number": lambda kind: NUMBER,
    "_positive": lambda kind: POSITIVE,
    "_exponent": lambda kind: st.one_of(EXPONENT, POSITIVE),
    "_gamma": lambda kind: st.floats(-10.0, 10.0),
    "_boolean": lambda kind: st.booleans(),
    "_simpson_grid": lambda kind: st.sampled_from([5, 9, 13, 17]),
    "_scalar": lambda kind: st.one_of(NUMBER, st.lists(NUMBER, min_size=2, max_size=2)),
    "_integer.<locals>.integer": lambda kind: st.integers(_nonlocal(kind, "low"), _nonlocal(kind, "low") + SPAN),
    "_list_of.<locals>.nonempty": lambda kind: st.lists(strategy(_nonlocal(kind, "item")),
                                                        min_size=1, max_size=MAX_ITEMS),
    "_chain": _chain,
    "_multiplier": _multiplier,
    "_sampled": _sampled,
}


def strategy(kind):
    return KIND_STRATEGIES[kind.__qualname__](kind)


# A check that takes both of these keys takes exactly one of them.
EXCLUSIVE = ("field", "field_seed")


def _entries(check):
    kinds = check.params
    required = config._no_default(check.run, kinds)
    if not set(EXCLUSIVE) <= kinds.keys():
        return _object(kinds, required)
    return st.one_of([_object({key: kind for key, kind in kinds.items() if key != other}, [*required, given])
                      for given, other in (EXCLUSIVE, EXCLUSIVE[::-1])])


def single_suite_configs(name):
    check = config.CHECKS[name]
    entry = _entries(check)
    if check.dilation:
        block = {key: config._DILATION[key] for key in check.dilation}
        required = [key for key in check.dilation if key != "horizon"]
        dilation = _object(block, required).map(lambda given: {"mode": check.mode, **given})
        entry = st.tuples(entry, dilation).map(lambda pair: {**pair[0], "dilation": pair[1]})
    return entry.map(lambda given: {"schema": config.CONFIG_SCHEMA, "suites": [{"check": name, **given}]})


def _reachable_kinds(kind):
    yield kind
    if kind.__qualname__ == "_list_of.<locals>.nonempty":
        yield from _reachable_kinds(_nonlocal(kind, "item"))


def test_every_kind_has_a_strategy():
    kinds = [kind for check in config.CHECKS.values()
             for top in [*check.params.values(), *(config._DILATION[key] for key in check.dilation)]
             for kind in _reachable_kinds(top)]
    missing = sorted({kind.__qualname__ for kind in kinds} - KIND_STRATEGIES.keys())
    assert not missing, f"kinds with no strategy: {missing}"


def _run(path, out):
    """The exit code of ``lapmult run`` and the bytes it wrote, if any."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", str(path), "--out", str(out)])
    written = [out / "report.json", out / "inequalities.csv"]
    return code, [f.read_bytes() for f in written if f.exists()]


@pytest.mark.parametrize("check", sorted(config.CHECKS))
@settings(derandomize=True, database=None, max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_run_exits_with_a_code_and_repeats_its_bytes(check, data):
    raw = data.draw(single_suite_configs(check))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, written = _run(path, Path(tmp, "first"))
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILURE, cli.EXIT_CONFIG_ERROR, cli.EXIT_BUDGET)
        if code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILURE):
            assert len(written) == 2
        else:
            assert written == []
        assert _run(path, Path(tmp, "second")) == (code, written)
