import numpy as np
import pytest

from lapmult import Field, ReversibleGenerator, WeightedSpace, dilation, inequalities, suites


@pytest.fixture
def two_state():
    """The 2-state closed-form instance: equal weights 1/2, rate a."""
    a = 0.7
    space = WeightedSpace([0.5, 0.5])
    gen = ReversibleGenerator(space, [[a, -a], [-a, a]])
    return space, gen, a


@pytest.fixture
def cold_step_family():
    """A function that drops the family ``step_instance_family`` keeps.

    A run that follows it builds its step families, and decomposes their
    generators, from scratch.
    """
    return suites._FAMILY_OWNER.clear


@pytest.fixture
def counted_ascents(monkeypatch):
    """The (p, seed) of every probe ascent run while the test runs."""
    calls = []
    ascent = inequalities.opnorm_lower_estimate

    def counting(op, space, p, probes, ascent_steps, seed):
        calls.append((p, seed))
        return ascent(op, space, p, probes, ascent_steps, seed)

    monkeypatch.setattr(inequalities, "opnorm_lower_estimate", counting)
    return calls


@pytest.fixture
def counted_tables(monkeypatch):
    """The path space of every path-table fetch (``dilation.all_paths``) made while the test runs."""
    calls = []
    fetch = dilation.all_paths

    def counting(ps):
        calls.append(ps)
        return fetch(ps)

    monkeypatch.setattr(dilation, "all_paths", counting)
    return calls


def random_field(space, seed, real=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(space.n)
    if not real:
        values = values + 1j * rng.standard_normal(space.n)
    return Field(space, values)


def seed_square_and_maximal(ps, levels):
    """The square and maximal function evaluators as first written, one gather per level and step."""
    n_steps = ps.horizon

    def square_eval(paths):
        acc = np.zeros(len(paths))
        for i in range(n_steps):
            inc = levels[i + 1][paths[:, i + 1]] - levels[i][paths[:, i]]
            acc += np.abs(inc) ** 2
        return np.sqrt(acc)

    def maximal_eval(paths):
        best = np.abs(levels[0][paths[:, 0]])
        for k in range(1, n_steps + 1):
            best = np.maximum(best, np.abs(levels[k][paths[:, k]]))
        return best

    return square_eval, maximal_eval
