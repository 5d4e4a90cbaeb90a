"""The keep-last rule of ``lapmult._keep``, checked once at each of its four keyed caches.

Each site names two keys, "a" and "b", the call that returns the kept value
for a key (building it when the key is new), the same value built with no
cache, and the function whose calls count builds.  A generator's key is
constant, so there the two keys are two equal but distinct generators, each
the owner of its own entry.
"""

import gc
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from lapmult import (
    PathSpace,
    ReversibleGenerator,
    WeightedSpace,
    all_paths,
    decompose,
    dilation,
    heat_operator,
    martingale_transform,
    random_reversible_generator,
    suites,
)

from conftest import random_field


class Broken(Exception):
    """Raised by a build that a test breaks on purpose."""


@dataclass
class Site:
    builder: tuple  # (module, name): the function every build calls
    setup: Callable[[], dict]  # what the keys refer to
    get: Callable[[dict, str], object]  # the value for key "a" or "b", through the cache
    cold: Callable[[dict, str], object]  # the same value, built with no cache
    probe: Callable[[object], object]  # a part of a value that a weak reference can follow
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


def _transform_setup():
    ps = _path_space()
    space = ps.kernel.space
    args = (np.array([1.0, -0.5j, 2.0]), random_field(space, 3))
    return {"ps": ps, "args": args, "evaluator": martingale_transform(ps, *args).evaluator,
            "paths": {"a": all_paths(ps), "b": ps._draw(5, 300)[0]}}


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
    "transform": Site(
        builder=(dilation, "_along_paths"),
        setup=_transform_setup,
        get=lambda ctx, key: ctx["evaluator"](ctx["paths"][key]),
        cold=lambda ctx, key: martingale_transform(ctx["ps"], *ctx["args"]).evaluator(
            ctx["paths"][key].copy()),
        probe=lambda values: values,
        content=lambda values: _arrays(values),
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
    first = weakref.ref(site.probe(site.get(ctx, "a")))
    gc.collect()
    assert first() is not None
    second = site.get(ctx, "b")
    site.drop_a(ctx)
    gc.collect()
    assert first() is None
    calls = _patch_builder(monkeypatch, site)
    assert site.get(ctx, "b") is second
    assert calls == []


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
