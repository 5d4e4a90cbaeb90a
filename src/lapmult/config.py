"""Experiment config parsing and validation.

Validation happens in full before anything runs: a config either yields a list
of ready-to-run suite specs or raises ConfigError, so a malformed config never
produces partial output.  Every randomized component must carry its own seed.

Each check is declared once, in ``CHECKS``: its suite runner, the kind and
bounds of every key it accepts, and how the keys of its ``dilation`` block map
onto runner keyword arguments.  A key the table does not name is a config error
at every level, so a config cannot silently mean something other than what it
says.  The suite runner's signature settles the rest: a key is required exactly
when the runner has no default for it, and a key the config omits takes that
default; this module holds no defaults of its own.  Nor does it hold the
path-enumeration limits: a check that enumerates one path space is refused
by :func:`lapmult.dilation.check_enumerable`, the one statement of them.
Likewise a symbol that may overflow is refused by
:func:`lapmult.multiplier.symbol_bound`, and a literal or seeded field by
:func:`lapmult.suites.probe_field`; ``_ask`` turns each refusal into a
ConfigError.  This module does hold the size limits, which keep the largest
array that a grid, piece count, sample count or probe count drives within the
bytes of one dense complex matrix at the state limit ``MAX_STATES``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import dilation, multiplier, suites
from .multiplier import SampledMultiplier, imaginary_power_preset, symbol_bound
from .semigroup import MAX_STATES, ReversibleGenerator, random_reversible_generator
from .space import WeightedSpace

__all__ = ["ConfigError", "SuiteSpec", "ExperimentConfig", "Check", "CHECKS", "parse_config"]

CONFIG_SCHEMA = "lapmult-config-1"


class ConfigError(ValueError):
    """The config file is malformed or violates an invariant."""


@dataclass(frozen=True, eq=False)
class SuiteSpec:
    """One validated suite request: the check name and its ready-to-use kwargs."""

    check: str
    kwargs: dict


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A fully validated experiment: the raw config echo plus runnable suite specs."""

    raw: dict
    suites: tuple[SuiteSpec, ...]


# A kind parses one config value: kind(value, what) returns the parsed value or
# raises ConfigError; ``what`` names the value in messages ("step_identity.tol").
Kind = Callable[[Any, str], Any]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _ask(name: str, rule: Callable[..., Any], *args) -> Any:
    """``rule(*args)``, a limit stated by the layer that owns it; its refusal is a ConfigError naming ``name``."""
    try:
        return rule(*args)
    except (dilation.EnumerationBudgetError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _fields(spec: Any, kinds: dict[str, Kind], required, where: str) -> dict:
    """Parse the object ``spec`` against ``kinds``; any key ``kinds`` does not name is an error."""
    _require(isinstance(spec, dict), f"{where} must be an object")
    unknown = [key for key in spec if key not in kinds]
    _require(not unknown, f"{where}: unknown key {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(kinds)}")
    for key in required:
        _require(key in spec, f"{where}: missing required key {key!r}")
    return {key: kind(spec[key], f"{where}.{key}") for key, kind in kinds.items() if key in spec}


def _no_default(function: Callable, keys) -> list[str]:
    """The parameters of ``function`` that are in ``keys`` and have no default, in signature order."""
    return [name for name, param in inspect.signature(function).parameters.items()
            if name in keys and param.default is inspect.Parameter.empty]


def _number(value: Any, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{what} must be a number")
    return float(value)


def _positive(value: Any, what: str) -> float:
    value = _number(value, what)
    _require(value > 0.0 and math.isfinite(value), f"{what} must be a positive finite number")
    return value


def _integer(low: int, high: float = math.inf, limit: str = "") -> Kind:
    """An integer in [``low``, ``high``]; past ``high``, the message names ``limit``."""
    def integer(value: Any, what: str) -> int:
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= low,
                 f"{what} must be an integer >= {low}")
        _require(value <= high, f"{what} = {value} is past the {limit}")
        return value

    return integer


_SEED, _COUNT = _integer(0), _integer(1)


def _states(low: int) -> Kind:
    """A state count: an integer >= ``low`` within the dense-state limit ``MAX_STATES``."""
    return _integer(low, MAX_STATES, f"dense-state limit of {MAX_STATES} states")


# The size limits below follow semigroup.MAX_STATES: the largest array that a
# size key drives must fit in the bytes of a dense complex matrix at the state
# limit, so a config cannot ask numpy for more.  The parser checks each before
# the suite allocates anything.
_ARRAY_BYTES = 16 * MAX_STATES**2

# A Simpson grid's sampled values and a step multiplier's piece values are
# complex, 16 bytes a point or a piece.
_MAX_GRID = _MAX_PIECES = _ARRAY_BYTES // 16


def _within_memory(count: int, item_bytes: int, what: str, items: str) -> None:
    """Refuse a ``count`` of items of ``item_bytes`` each that would overfill one array of ``_ARRAY_BYTES``."""
    limit = _ARRAY_BYTES // item_bytes
    _require(count <= limit, f"{what} = {count} is past the limit of {limit} {items}")


def _simpson_grid(value: Any, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= 5 and (value - 1) % 4 == 0,
             f"{what} must be an integer 4m+1 >= 5")
    _require(value <= _MAX_GRID, f"{what} = {value} is past the Simpson grid limit of {_MAX_GRID} points")
    return value


def _boolean(value: Any, what: str) -> bool:
    _require(isinstance(value, bool), f"{what} must be a boolean")
    return value


def _string(value: Any, what: str) -> str:
    _require(isinstance(value, str), f"{what} must be a string")
    return value


def _list_of(item: Kind) -> Kind:
    def nonempty(value: Any, what: str) -> list:
        _require(isinstance(value, list) and value, f"{what} must be a nonempty array")
        return [item(v, f"{what} entry") for v in value]

    return nonempty


# The largest exponent, p or its conjugate p/(p-1), that a check may raise
# moduli to: |x|**64 stays finite for every |x| below 2**16, so the norms and
# the probe ascent of fields of that size cannot overflow.
_MAX_EXPONENT = 64.0


def _exponent(value: Any, what: str) -> float:
    p = _number(value, what)
    low = _MAX_EXPONENT / (_MAX_EXPONENT - 1.0)
    _require(low <= p <= _MAX_EXPONENT,
             f"{what} = {p:g} is outside [{low:.6g}, {_MAX_EXPONENT:g}], where p and its conjugate "
             f"p/(p-1) are both at most {_MAX_EXPONENT:g}")
    return p


def _gamma(value: Any, what: str) -> float:
    gamma = _number(value, what)
    _require(abs(gamma) <= 10.0, f"{what} must satisfy |gamma| <= 10")
    return gamma


def _scalar(value: Any, what: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    _require(isinstance(value, list) and len(value) == 2
             and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value),
             f"{what} must be a number or an [re, im] pair")
    return complex(value[0], value[1])


def _schema(value: Any, what: str) -> str:
    _require(value == CONFIG_SCHEMA, f"{what} must be {CONFIG_SCHEMA!r}, got {value!r}")
    return value


_SEEDED_CHAIN = {"seed": _SEED, "n": _states(1), "conductance_scale": _positive, "unit_mass": _boolean}
_NUMBERS = _list_of(_number)
_EXPLICIT_CHAIN = {"weights": _NUMBERS, "generator": _list_of(_NUMBERS)}


def _chain(spec: Any, what: str) -> ReversibleGenerator:
    if isinstance(spec, dict) and ("weights" in spec or "generator" in spec):
        given = _fields(spec, _EXPLICIT_CHAIN, tuple(_EXPLICIT_CHAIN), what)
        try:
            space = WeightedSpace(np.asarray(given["weights"], dtype=float))
            return ReversibleGenerator(space, np.asarray(given["generator"], dtype=float))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{what}: invalid explicit chain: {exc}") from exc
    required = _no_default(random_reversible_generator, _SEEDED_CHAIN)
    given = _fields(spec, _SEEDED_CHAIN, required, what)
    try:
        return random_reversible_generator(**given)[1]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{what}: invalid seeded chain: {exc}") from exc


_STEP = {"type": _string, "breakpoints": _NUMBERS, "values": _list_of(_scalar)}
_SAMPLED = {"type": _string, "name": _string, "t_max": _positive, "grid": _simpson_grid}


def _multiplier(spec: Any, what: str) -> multiplier.StepMultiplier | SampledMultiplier:
    _require(isinstance(spec, dict), f"{what} must be an object")
    kind, name = spec.get("type"), spec.get("name")
    if kind == "step":
        given = _fields(spec, _STEP, tuple(_STEP), what)
        try:
            return multiplier.StepMultiplier(np.asarray(given["breakpoints"], dtype=float),
                                             np.asarray(given["values"]))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{what}: invalid step multiplier: {exc}") from exc
    _require(kind == "sampled", f"{what}.type must be 'step' or 'sampled'")
    if name == "exp":
        given = _fields(spec, _SAMPLED, tuple(_SAMPLED), what)
        return SampledMultiplier(lambda t: np.exp(-np.asarray(t, dtype=float)),
                                 given["t_max"], given["grid"], 1.0)
    _require(name == "imaginary_power", f"{what}: unknown sampled multiplier {name!r}")
    kinds = {**_SAMPLED, "gamma": _gamma}
    given = _fields(spec, kinds, tuple(kinds), what)
    return imaginary_power_preset(given["gamma"], given["t_max"], given["grid"])


def _sampled(spec: Any, what: str) -> SampledMultiplier:
    sampled = _multiplier(spec, what)
    _require(isinstance(sampled, SampledMultiplier), f"{what} must be a sampled multiplier")
    return sampled


# Bits of the double range that Check._check_overflow leaves free.
_POWER_HEADROOM = 256


# Kinds of every key a dilation block may hold; each check maps a subset of them
# onto its runner's keyword arguments.  "mode" only selects, and is not passed on.
_DILATION = {"epsilon": _positive, "horizon": _COUNT, "seed": _SEED, "samples": _COUNT}


@dataclass(frozen=True, eq=False)
class Check:
    """One check: its runner and the kind of each key it accepts.

    A top-level key is required exactly when ``run`` has no default for it.
    ``dilation`` maps the keys of the check's required ``dilation`` block onto
    runner keyword arguments (every key but ``horizon`` is required there).
    The rest follows from these: the block's ``mode`` (default ``"exact"``)
    must equal :attr:`mode`, and a check whose runner takes ``n`` and
    ``horizon`` (:attr:`enumerates`) must pass
    :func:`lapmult.dilation.check_enumerable` at parse time, runner defaults
    filling what the config omits.  Family checks draw their sizes from
    seeds, so their limits are checked as they run.  A sample count is
    bounded at the check's horizon and a probe count at its chain's, or its
    family's largest, state count (``_within_memory``).
    """

    run: Callable[..., suites.SuiteResult]
    params: dict[str, Kind]
    dilation: dict[str, str] = field(default_factory=dict)

    @property
    def mode(self) -> str:
        """``"mc"`` for a check that samples paths, else ``"exact"``."""
        return "mc" if "samples" in self.dilation else "exact"

    @property
    def enumerates(self) -> bool:
        """Whether the check enumerates one path space of ``n`` states to ``horizon``."""
        return {"n", "horizon"} <= inspect.signature(self.run).parameters.keys()

    def _given(self, kwargs: dict, key: str) -> Any:
        """The runner argument ``key``: the config's value, or the runner's default."""
        return kwargs.get(key, inspect.signature(self.run).parameters[key].default)

    def _dilation_block(self, spec: Any, what: str) -> dict:
        kinds = {"mode": _string, **{key: _DILATION[key] for key in self.dilation}}
        given = _fields(spec, kinds, [key for key in self.dilation if key != "horizon"], what)
        _require(given.pop("mode", "exact") == self.mode, f"{what}.mode must be {self.mode!r}")
        return given

    def _check_overflow(self, kwargs: dict, name: str) -> None:
        """Refuse a multiplier whose symbol, or whose T_m f in the powers the check takes of it, may overflow.

        Gershgorin bounds every eigenvalue of A by lam_max = 2 max_i A_ii, so
        no eigensolve runs at parse time, and each symbol is bounded on
        [0, lam_max] once (``symbol_bound``).  Any |m| <= B makes
        every entry of T_m f at most B max|f| sqrt(W / w_min), with W the
        total and w_min the least weight.  With F = max(1, B) max(1, max|f|)
        sqrt(W / w_min), a check that raises moduli to the power e forms
        nothing larger than W F**e.  The power e is 2 on ``step_convergence``,
        max(2, p) on ``approximation_limit``, and p * p/(p-1) at the grid's
        worst p on the probe ascent, whose pullback raises |T f|**(p-1) to the
        conjugate power.  W F**e must stay below 2**(1024 - _POWER_HEADROOM):
        the free bits cover sums and rounding, and the standard normal draws
        of seeded fields and probes, which count as modulus 1 here.
        """
        lam_max = 2.0 * float(np.diag(kwargs["chain"].entries).max())
        if "gammas" in kwargs:
            t_max = self._given(kwargs, "t_max")
            # symbol_bound reads only sup|M| and t_max, so the coarsest grid will do
            for gamma in kwargs["gammas"]:
                _ask(name, symbol_bound, imaginary_power_preset(gamma, t_max, 5), lam_max)
            return
        bound = _ask(name, symbol_bound, kwargs["multiplier"], lam_max)
        if "p_grid" in kwargs:
            power = max(p * p / (p - 1.0) for p in kwargs["p_grid"])
        elif "p" in self.params:
            power = max(2.0, self._given(kwargs, "p"))
        else:
            power = 2.0
        field = float(np.abs(kwargs.get("field", [0.0])).max())
        weights = kwargs["chain"].space.weights
        size = max(1.0, bound) * max(1.0, field) * math.sqrt(weights.sum() / weights.min())
        _require(math.log2(weights.sum()) + power * math.log2(size) <= 1024 - _POWER_HEADROOM,
                 f"{name}: entries of T_m f may reach {size:.3g}, and their power {power:.3g} overflows")

    def parse(self, entry: dict, name: str) -> dict:
        kinds = {"check": _string, **self.params}
        required = ["check", *_no_default(self.run, self.params)]
        if self.dilation:
            kinds["dilation"] = self._dilation_block
            required.append("dilation")
        kwargs = _fields(entry, kinds, required, name)
        del kwargs["check"]
        for key, value in kwargs.pop("dilation", {}).items():
            kwargs[self.dilation[key]] = value
        if "field" in self.params:
            _ask(name, suites.probe_field, kwargs["chain"], kwargs.get("field_seed"), kwargs.get("field"))
        if self.mode == "mc":
            # the draw holds horizon + 1 int32 states a sample, a transform's values one complex
            horizon = self._given(kwargs, "horizon")
            _within_memory(kwargs["samples"], max(4 * (horizon + 1), 16), f"{name}.dilation.samples",
                           f"samples at horizon {horizon}")
        if "probes" in self.params:
            # the ascent's fields and images are n x (2 probes) complex blocks
            n = kwargs["chain"].space.n if "chain" in kwargs else self._given(kwargs, "max_n")
            _within_memory(self._given(kwargs, "probes"), 32 * n, f"{name}.probes", f"probes at {n} states")
        if self.enumerates:
            _ask(name, dilation.check_enumerable, self._given(kwargs, "n"), self._given(kwargs, "horizon"))
        if "gammas" in kwargs or "multiplier" in kwargs:
            self._check_overflow(kwargs, name)
        return kwargs


_FAMILY = {"seed": _SEED, "instances": _COUNT, "max_n": _integer(2)}
_STEP_FAMILY = {**_FAMILY, "max_n": _states(2), "max_pieces": _COUNT}
_PATH_FAMILY = {**_FAMILY, "max_horizon": _COUNT}
_ASCENT = {"p_grid": _list_of(_exponent), "probes": _COUNT, "ascent_steps": _integer(0),
           "probe_seed": _SEED}
_PIECES = _integer(1, _MAX_PIECES, f"step-approximation limit of {_MAX_PIECES} pieces")
_PROBED = {"chain": _chain, "multiplier": _sampled, "piece_counts": _list_of(_PIECES),
           "field": _list_of(_scalar), "field_seed": _SEED}
_PATH_DILATION = {"epsilon": "epsilon"}

CHECKS: dict[str, Check] = {
    "markov_conditions": Check(
        suites.suite_markov_conditions, {"chain": _chain, "time": _positive, "tol": _positive}),
    "step_identity": Check(suites.suite_step_identity, {**_STEP_FAMILY, "tol": _positive}),
    "l2_bound": Check(suites.suite_l2_bound, _STEP_FAMILY),
    "dilation_identity": Check(
        suites.suite_dilation_identity, {**_PATH_FAMILY, "tol": _positive}, _PATH_DILATION),
    "transform_identity": Check(
        suites.suite_transform_identity, {**_PATH_FAMILY, "tol": _positive}, _PATH_DILATION),
    "multiplier_pnorm": Check(
        suites.suite_multiplier_pnorm, {"chain": _chain, "multiplier": _multiplier, **_ASCENT}),
    "multiplier_pnorm_family": Check(
        suites.suite_multiplier_pnorm_family, {**_STEP_FAMILY, **_ASCENT}),
    "transform_pnorm": Check(
        suites.suite_transform_pnorm, {**_PATH_FAMILY, "p_grid": _ASCENT["p_grid"]}, _PATH_DILATION),
    "step_convergence": Check(suites.suite_step_convergence, {**_PROBED, "rel_tol": _positive}),
    "llogl_chain": Check(
        suites.suite_llogl_chain,
        {"seed": _SEED, "chains": _COUNT, "fields": _COUNT, "n": _integer(2), "horizon": _COUNT,
         "stability_doubling": _boolean, "stability_rel": _positive},
        _PATH_DILATION),
    "imaginary_powers": Check(
        suites.suite_imaginary_powers,
        {"chain": _chain, "gammas": _list_of(_gamma), "t_max": _positive, "grid": _simpson_grid}),
    "approximation_limit": Check(
        suites.suite_approximation_limit, {**_PROBED, "p": _exponent, "tol": _positive}),
    "mc_crosscheck": Check(
        suites.suite_mc_crosscheck, {"seed": _SEED, "n": _COUNT},
        {"epsilon": "epsilon", "horizon": "horizon", "seed": "mc_seed", "samples": "samples"}),
}

KNOWN_CHECKS = tuple(CHECKS)


def _suite(entry: Any, where: str) -> SuiteSpec:
    _require(isinstance(entry, dict), f"{where} must be an object")
    name = entry.get("check")
    _require(isinstance(name, str) and name in CHECKS,
             f"{where}: unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    return SuiteSpec(name, CHECKS[name].parse(entry, name))


def _suites(value: Any, what: str) -> tuple[SuiteSpec, ...]:
    _require(isinstance(value, list) and value, "config needs a nonempty 'suites' array")
    return tuple(_suite(entry, f"{what}[{idx}]") for idx, entry in enumerate(value))


_ROOT = {"schema": _schema, "description": _string, "suites": _suites}


def parse_config(raw: Any) -> ExperimentConfig:
    """Validate a whole config (no partial results: raises ConfigError on any defect)."""
    given = _fields(raw, _ROOT, ("schema", "suites"), "config")
    return ExperimentConfig(raw=raw, suites=given["suites"])
