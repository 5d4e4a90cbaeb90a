"""The keep-last rule of ``lapmult._keep``, checked once at each of its owners.

Each site names two keys, "a" and "b", the call that returns the kept value
for a key (building it when the key is new), the same value built with no
cache, and the function whose calls count builds.  The keys of a generator
and of an ``ExactPaths`` are constant, so there the two keys are two owners,
each holding its own entry; a kernel's two keys are two horizons.  A path
space has two sites: its draws, and its one path set, where the table
replaces a draw.
"""

import gc
import inspect
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from lapmult import (
    ExactPaths,
    MarkovKernel,
    PathSpace,
    ReversibleGenerator,
    StepMultiplier,
    WeightedSpace,
    all_paths,
    apply_Tm,
    decompose,
    dilation,
    heat_operator,
    imaginary_power_preset,
    martingale_transform,
    multiplier,
    random_reversible_generator,
    suites,
    symbol_of_sampled,
    symbol_of_step,
    transition_products,
)
from lapmult._keep import kept

from conftest import random_field


class Broken(Exception):
    """Raised by a build that a test breaks on purpose."""


@dataclass
class Site:
    builder: tuple  # (module, name): the function every build calls
    setup: Callable[[], dict]  # what the keys refer to
    get: Callable[[dict, str], object]  # the value for key "a" or "b", through the cache
    cold: Callable[[dict, str], object]  # the same value, built with no cache
    probe: Callable[[object], object] | None  # a part of a value that a weak reference can follow
    content: Callable[[object], bytes]
    drop_a: Callable[[dict], None] = lambda ctx: None  # lets go of key "a"'s own owner, if any


def _arrays(*arrays):
    return b"".join(repr(a.shape).encode() + a.tobytes() for a in arrays)


def _twin(gen):
    """An equal but distinct generator."""
    return ReversibleGenerator(WeightedSpace(gen.space.weights.copy()), gen.entries.copy())


def _generators():
    _, gen = random_reversible_generator(41, 6)
    return {"a": gen, "b": _twin(gen)}


def _path_space():
    _, gen = random_reversible_generator(42, 4)
    return PathSpace(heat_operator(gen, 0.4), 3)


DRAWS = {"a": (5, 300), "b": (6, 300)}
FAMILIES = {"a": (21, 3, 6, 3), "b": (22, 3, 6, 3)}


def _family_setup():
    suites._FAMILY_OWNER.clear()
    return {}


# A transform's keys are its space's path sets, fetched afresh on each call:
# the space keeps one set, so the table and a draw replace each other there.
PATHS = {"a": all_paths, "b": lambda ps: ps._draw(5, 300)[0]}


def _transform_setup():
    ps = _path_space()
    space = ps.kernel.space
    args = (np.array([1.0, -0.5j, 2.0]), random_field(space, 3))
    return {"ps": ps, "args": args, "evaluator": martingale_transform(ps, *args).evaluator}


HORIZONS = {"a": 3, "b": 4}


def _weights(kernel, key):
    return transition_products(PathSpace(kernel, HORIZONS[key]))


def _fresh_kernel(kernel):
    return MarkovKernel(kernel.space, kernel.entries, kernel.step)


def _measure_setup():
    ps = _path_space()
    return {"a": ExactPaths(ps), "b": ExactPaths(PathSpace(ps.kernel, ps.horizon))}


LAMS = {"a": 0.7, "b": 2.3}


def _symbol():
    return symbol_of_sampled(imaginary_power_preset(1.0, 8.0, 401))


def _symbol_pair(symbol, key):
    """The Simpson pair ``symbol`` keeps after a value at key's eigenvalue."""
    symbol.evaluator(LAMS[key])
    return kept(inspect.getclosurevars(symbol.evaluator).nonlocals["held"])[1]


def _route_setup():
    space, gen = random_reversible_generator(43, 5)
    step = StepMultiplier([0.0, 0.4, 1.1], [1.0 - 0.5j, 2.0j])
    return {"gen": gen, "step": step, "a": random_field(space, 1), "b": random_field(space, 2)}


SITES = {
    "decompose": Site(
        builder=(np.linalg, "eigh"),
        setup=_generators,
        get=lambda ctx, key: decompose(ctx[key]),
        cold=lambda ctx, key: decompose(_twin(ctx[key])),
        probe=lambda dec: dec,
        content=lambda dec: _arrays(dec.eigenvalues, dec.eigenfields),
        drop_a=lambda ctx: ctx.pop("a"),
    ),
    "draw": Site(
        builder=(dilation, "_sample_stratum"),
        setup=lambda: {"ps": _path_space()},
        get=lambda ctx, key: ctx["ps"]._draw(*DRAWS[key]),
        cold=lambda ctx, key: PathSpace(ctx["ps"].kernel, ctx["ps"].horizon)._draw(*DRAWS[key]),
        probe=lambda strata: strata[0],
        content=lambda strata: _arrays(*strata),
    ),
    "family": Site(
        builder=(suites, "_build_step_family"),
        setup=_family_setup,
        get=lambda ctx, key: suites.step_instance_family(*FAMILIES[key]),
        cold=lambda ctx, key: suites._build_step_family(*FAMILIES[key]),
        probe=lambda family: family[0][0],
        content=lambda family: b"".join(
            _arrays(gen.space.weights, gen.entries, step.breakpoints, step.values, probe.values)
            for gen, step, probe in family),
    ),
    "path_set": Site(
        builder=(dilation, "_enumerate"),
        setup=lambda: {"ps": _path_space()},
        get=lambda ctx, key: ctx["ps"]._draw(*DRAWS["a"]) if key == "a" else all_paths(ctx["ps"]),
        cold=lambda ctx, key: all_paths(PathSpace(ctx["ps"].kernel, ctx["ps"].horizon)),
        probe=lambda paths: paths[0] if isinstance(paths, tuple) else paths,
        content=lambda paths: _arrays(*paths) if isinstance(paths, tuple) else _arrays(paths),
    ),
    "transform": Site(
        builder=(dilation, "_along_path_set"),
        setup=_transform_setup,
        get=lambda ctx, key: ctx["evaluator"](PATHS[key](ctx["ps"])),
        cold=lambda ctx, key: martingale_transform(ctx["ps"], *ctx["args"]).evaluator(
            PATHS[key](ctx["ps"]).copy()),
        probe=lambda values: values,
        content=lambda values: _arrays(values),
    ),
    "weights": Site(
        builder=(dilation, "_fold_weights"),
        setup=lambda: {"kernel": _path_space().kernel},
        get=lambda ctx, key: _weights(ctx["kernel"], key),
        cold=lambda ctx, key: _weights(_fresh_kernel(ctx["kernel"]), key),
        probe=lambda weights: weights,
        content=lambda weights: _arrays(weights),
    ),
    "measure": Site(
        builder=(np, "repeat"),
        setup=_measure_setup,
        get=lambda ctx, key: ctx[key].measure,
        cold=lambda ctx, key: ExactPaths(ctx[key].ps).measure,
        probe=lambda measure: measure,
        content=lambda measure: _arrays(measure),
        drop_a=lambda ctx: ctx.pop("a"),
    ),
    "symbol": Site(
        builder=(multiplier, "_nonzero_prefix"),
        setup=lambda: {"symbol": _symbol()},
        get=lambda ctx, key: _symbol_pair(ctx["symbol"], key),
        cold=lambda ctx, key: _symbol_pair(_symbol(), key),
        probe=None,  # a pair of complex numbers: no weak reference can follow it
        content=lambda pair: np.array(pair).tobytes(),
    ),
    "spectral_route": Site(
        builder=(suites, "apply_Tm"),
        setup=_route_setup,
        get=lambda ctx, key: suites._spectral_route(ctx["gen"], ctx["step"], ctx[key]),
        cold=lambda ctx, key: apply_Tm(decompose(_twin(ctx["gen"])), symbol_of_step(ctx["step"]),
                                       ctx[key]),
        probe=lambda field: field,
        content=lambda field: _arrays(field.values),
    ),
}


def _patch_builder(monkeypatch, site, broken=False):
    """Count the builder's calls, or make every call raise; returns the list of calls."""
    module, name = site.builder
    original = getattr(module, name)
    calls = []

    def builder(*args, **kwargs):
        calls.append(args)
        if broken:
            raise Broken
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, builder)
    return calls


@pytest.fixture(params=list(SITES))
def site(request):
    return SITES[request.param]


def test_equal_key_returns_the_same_value_without_building(site, monkeypatch):
    ctx = site.setup()
    value = site.get(ctx, "a")
    calls = _patch_builder(monkeypatch, site)
    assert site.get(ctx, "a") is value
    assert calls == []


def test_another_key_builds_the_bytes_of_a_cold_build(site, monkeypatch):
    ctx = site.setup()
    first = site.get(ctx, "a")
    calls = _patch_builder(monkeypatch, site)
    second = site.get(ctx, "b")
    assert calls
    assert second is not first
    monkeypatch.undo()
    assert site.content(second) == site.content(site.cold(ctx, "b"))


def test_one_entry_is_held_and_the_replaced_one_let_go(site, monkeypatch):
    ctx = site.setup()
    first = weakref.ref(site.probe(site.get(ctx, "a"))) if site.probe else lambda: None
    gc.collect()
    assert site.probe is None or first() is not None
    second = site.get(ctx, "b")
    site.drop_a(ctx)
    gc.collect()
    assert first() is None
    calls = _patch_builder(monkeypatch, site)
    assert site.get(ctx, "b") is second
    assert calls == []
    if site.probe is None:
        # no weak reference: the entry for "a" was let go, so "a" builds anew
        site.get(ctx, "a")
        assert calls


def test_a_build_that_raises_keeps_the_old_entry(site, monkeypatch):
    ctx = site.setup()
    first = site.get(ctx, "a")
    _patch_builder(monkeypatch, site, broken=True)
    for _ in range(2):
        with pytest.raises(Broken):
            site.get(ctx, "b")
    monkeypatch.undo()
    calls = _patch_builder(monkeypatch, site)
    assert site.get(ctx, "a") is first
    assert calls == []
    assert site.content(site.get(ctx, "b")) == site.content(site.cold(ctx, "b"))
