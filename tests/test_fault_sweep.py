"""A fault sweep: each shared primitive, perturbed for every caller, fails exactly the suites that check it.

Each row perturbs one primitive consistently, so that every ``lapmult``
namespace that binds it calls the same fault, at a relative size delta of
1e-8 and of 1e-2.  It then runs one small config that holds every check and
names the exact set of suites that must fail.  A suite that reads the
primitive on both of its routes cannot see the fault, and one that does not
read it must not.  Each row runs on fresh state: the config is parsed again,
so its chains are new, and the kept step family is dropped before and after,
so no decomposition, spectral route or path weight outlives a row.

The eigensolver's row is ``tests/test_spectral.py::TestEigenCertificate``.
Faults that no suite catches are open two-route gaps (ROADMAP item 16); they
get no row here until a check catches them.
"""

import sys
from contextlib import contextmanager

import pytest

from lapmult import config, dilation, multiplier, runner, semigroup, suites
from lapmult.multiplier import MultiplierSymbol

SAMPLED_EXP = {"type": "sampled", "name": "exp", "t_max": 4.0, "grid": 513}
STEP_FAMILY = {"seed": 2024, "instances": 6, "max_n": 8}
PATH_FAMILY = {"seed": 303, "instances": 4, "dilation": {"epsilon": 0.8}}
P_GRID = [1.5, 2, 3]
SMALL = {
    "schema": "lapmult-config-1",
    "suites": [
        {"check": "markov_conditions", "chain": {"seed": 7, "n": 5}},
        {"check": "step_identity", **STEP_FAMILY},
        {"check": "l2_bound", **STEP_FAMILY},
        {"check": "multiplier_pnorm_family", **STEP_FAMILY,
         "p_grid": P_GRID, "probes": 2, "ascent_steps": 2, "probe_seed": 0},
        {"check": "multiplier_pnorm", "chain": {"seed": 3, "n": 4},
         "multiplier": {"type": "step", "breakpoints": [0, 0.5, 1.0], "values": [1, -1]},
         "p_grid": P_GRID, "probes": 2, "ascent_steps": 2, "probe_seed": 0},
        {"check": "dilation_identity", **PATH_FAMILY},
        {"check": "transform_identity", **PATH_FAMILY},
        {"check": "transform_pnorm", **PATH_FAMILY, "p_grid": P_GRID},
        {"check": "step_convergence", "chain": {"seed": 7, "n": 4}, "field_seed": 5,
         "multiplier": SAMPLED_EXP, "piece_counts": [4, 8, 16, 32, 64], "rel_tol": 0.01},
        {"check": "approximation_limit", "chain": {"seed": 7, "n": 4}, "field_seed": 5,
         "multiplier": SAMPLED_EXP, "piece_counts": [4, 8, 16, 32, 64], "p": 2.0, "tol": 0.01},
        {"check": "llogl_chain", "seed": 21, "chains": 2, "fields": 2, "n": 3, "horizon": 3,
         "dilation": {"epsilon": 0.8}},
        {"check": "imaginary_powers", "chain": {"seed": 11, "n": 4}, "gammas": [1.0], "grid": 401},
        {"check": "mc_crosscheck", "seed": 17, "n": 3,
         "dilation": {"horizon": 3, "epsilon": 0.8, "mode": "mc", "samples": 2000, "seed": 23}},
    ],
}


def _namespaces():
    """Every ``lapmult`` module namespace, and every dict a module binds at module level."""
    for name, module in list(sys.modules.items()):
        if name == "lapmult" or name.startswith("lapmult."):
            yield vars(module)
            yield from (value for value in list(vars(module).values()) if isinstance(value, dict))


@contextmanager
def patched(original, replacement):
    """Bind ``replacement`` wherever a ``lapmult`` namespace binds ``original``, as the benchmark's tracer does."""
    bound = [(namespace, key) for namespace in _namespaces()
             for key, value in list(namespace.items()) if value is original]
    for namespace, key in bound:
        namespace[key] = replacement
    try:
        yield bound
    finally:
        for namespace, key in bound:
            namespace[key] = original


def failing_suites():
    """The names of the suites of ``SMALL`` that fail, run on fresh chains and a fresh step family."""
    suites._FAMILY_OWNER.clear()
    try:
        outcome = runner.run_config(config.parse_config(SMALL))
    finally:
        suites._FAMILY_OWNER.clear()
    records = outcome.report["suites"]
    assert [record["name"] for record in records] == [entry["check"] for entry in SMALL["suites"]]
    return {record["name"] for record in records if not record["passed"]}


def later_heat(heat_operator, delta):
    """T^t taken at time t (1 + delta): still a Markov semigroup, at the wrong time."""
    return lambda generator, t: heat_operator(generator, t * (1.0 + delta))


def scaled_symbol(symbol_of_step, delta):
    """The step symbol times 1 + delta, with its error bound unchanged."""
    def symbol(step):
        exact = symbol_of_step(step)
        return MultiplierSymbol(lambda lam: exact.evaluator(lam) * (1.0 + delta), exact.error_bound)

    return symbol


def scaled_output(function, delta):
    """``function``'s read-only array result times 1 + delta."""
    def scaled(*args):
        out = function(*args) * (1.0 + delta)
        out.setflags(write=False)
        return out

    return scaled


PRIMITIVES = {
    "heat_operator": (lambda: semigroup.heat_operator, later_heat),
    "symbol_of_step": (lambda: multiplier.symbol_of_step, scaled_symbol),
    "transition_products": (lambda: dilation.transition_products, scaled_output),
}

IDENTITIES = {"step_identity", "dilation_identity", "transform_identity"}

# (primitive, delta, the suites that must fail)
ROWS = [
    # every identity has one heat-free route: the spectral symbol, or kernel powers
    ("heat_operator", 1e-8, IDENTITIES),
    ("heat_operator", 1e-2, IDENTITIES),
    # the telescoped operator reads heat kernels, not the symbol
    ("symbol_of_step", 1e-8, {"step_identity"}),
    # at 1e-2 the step approximants miss the quadrature operator by more than rel_tol
    ("symbol_of_step", 1e-2, {"step_identity", "step_convergence"}),
    # the exact path weights against kernel powers and heat kernels; the Monte
    # Carlo route at 2000 samples does not resolve a 1% fault
    ("transition_products", 1e-8, {"dilation_identity", "transform_identity"}),
    ("transition_products", 1e-2, {"dilation_identity", "transform_identity"}),
]


def test_the_small_config_passes_unperturbed():
    assert failing_suites() == set()


@pytest.mark.parametrize("primitive,delta,expected", ROWS,
                         ids=[f"{primitive}-{delta:g}" for primitive, delta, _ in ROWS])
def test_fault_fails_exactly_its_suites(primitive, delta, expected):
    current, fault = PRIMITIVES[primitive]
    original = current()
    with patched(original, fault(original, delta)) as bound:
        assert len(bound) >= 2, bound
        assert failing_suites() == expected
    assert current() is original


def test_every_namespace_is_patched_and_restored():
    original = semigroup.heat_operator
    fault = later_heat(original, 1e-8)
    with patched(original, fault) as bound:
        modules = {namespace["__name__"] for namespace, _ in bound if "__name__" in namespace}
        assert {"lapmult", "lapmult.semigroup", "lapmult.multiplier", "lapmult.dilation",
                "lapmult.inequalities", "lapmult.suites"} <= modules
        assert not any(value is original for namespace in _namespaces() for value in namespace.values())
    assert all(namespace[key] is original for namespace, key in bound)
    assert failing_suites() == set()
