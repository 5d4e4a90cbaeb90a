"""Outside-in tracer for lapmult: spans and counters without touching ``src/``.

``Tracer.install()`` wraps every public function of each layer module (the
plain functions in its ``__all__``) and rebinds the wrapper in every
``lapmult`` namespace that binds the original: module globals, the package
namespace, and module-level dicts such as the runner's check table.  A name
imported with ``from .x import y`` lives in the importer's globals, so
patching only the defining module would miss calls such as the suites' own
``hat_expectation`` or ``heat_operator``.

Each call records a span (name, parent, start, end) in memory.  Self time is
a span's duration minus the durations of its direct children; the tracer is
single-threaded, so children never overlap.  ``layer_metrics`` reduces the
spans and counters to the named per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("space", "semigroup", "spectral", "multiplier", "dilation",
          "inequalities", "suites", "config", "runner")

SYMBOL_EVAL = "multiplier.symbol"
FUNCTIONAL_EVAL = "dilation.functional"

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end, error type or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object, object]] = []
        self.seen: dict[str, set] = defaultdict(set)
        self._digests: dict[int, tuple[object, bytes]] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, _clock(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span[3] = _clock()
        span[4] = error
        self._stack.pop()

    def _timed(self, name, fn, args, kwargs):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(idx, type(exc).__name__)
            raise
        self._close(idx)
        return result

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        import lapmult  # noqa: F401  (loads every layer module)

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"lapmult.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lapmult" and not mod_name.startswith("lapmult."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._rebind(module, attr, value, originals[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._rebind(value, key, item, originals[id(item)])
        return self

    def _rebind(self, target, key, original, wrapper) -> None:
        if isinstance(target, dict):
            target[key] = wrapper
        else:
            setattr(target, key, wrapper)
        self._patched.append((target, key, original, wrapper))

    def uninstall(self) -> None:
        for target, key, original, _ in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        hook = _HOOKS.get(name)
        mode = sig.parameters.get("mode")
        mode_index = list(sig.parameters).index("mode") if mode else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if mode is not None:
                chosen = args[mode_index] if len(args) > mode_index else kwargs.get("mode", mode.default)
                span = f"{name}.{chosen}"
            result = self._timed(span, fn, args, kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                result = hook(self, bound.arguments, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a callable that the program returns (symbol and path evaluators)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)

        return wrapper

    # -- counters ----------------------------------------------------------

    def digest(self, obj, *arrays) -> bytes:
        """Content digest of ``obj``'s arrays, memoized per object.

        The object is kept alive so that its id cannot be reused by another.
        """
        held = self._digests.get(id(obj))
        if held is None:
            h = hashlib.blake2b(digest_size=16)
            for a in arrays:
                h.update(repr(a.shape).encode())
                h.update(a.tobytes())
            held = (obj, h.digest())
            self._digests[id(obj)] = held
        return held[1]

    # -- reduction ---------------------------------------------------------

    def spans_json(self) -> str:
        """All spans, one per line: [name, parent, start, end, error]."""
        return "\n".join(json.dumps(s) for s in self.spans) + "\n"

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, errors by type."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, parent, start, end, error) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": Counter()})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            if error is not None:
                row["errors"][error] += 1
        return out


# -- hooks: counters taken from a call's arguments and result ---------------

def _count_ascent(tracer: Tracer, a: dict, result):
    n = a["space"].n
    probes, steps = a["probes"], a["ascent_steps"]
    forward = 2 * probes * (steps + 1)
    tracer.counts["ascent_columns"] += forward
    # complex matrix-vector products only (8 real flops per complex multiply-add):
    # the forward product every step and the adjoint pullback on all but the last
    tracer.counts["ascent_flops"] += 8 * n * n * (forward + 2 * probes * steps)
    return result


def _count_paths(tracer: Tracer, a: dict, result):
    ps = a["ps"]
    kernel = ps.kernel
    tracer.seen["path_spaces"].add(
        (tracer.digest(kernel, kernel.space.weights, kernel.entries), ps.horizon))
    tracer.counts["paths_built"] += len(result)
    return result


def _count_generator(tracer: Tracer, a: dict, result):
    gen = a["generator"]
    tracer.seen["generators"].add(tracer.digest(gen, gen.space.weights, gen.entries))
    return result


def _trace_symbol(tracer: Tracer, a: dict, symbol):
    return dataclasses.replace(
        symbol,
        evaluator=tracer.leaf(f"{SYMBOL_EVAL}.evaluator", symbol.evaluator),
        error_bound=tracer.leaf(f"{SYMBOL_EVAL}.error_bound", symbol.error_bound),
    )


def _functional(tracer: Tracer, functional):
    inner = tracer.leaf(FUNCTIONAL_EVAL, functional.evaluator)

    def evaluator(paths):
        if (tracer.current() or "").endswith(".mc"):
            tracer.counts["mc_paths_sampled"] += len(paths)
        return inner(paths)

    return dataclasses.replace(functional, evaluator=evaluator)


def _trace_functional(tracer: Tracer, a: dict, result):
    if isinstance(result, tuple):
        return tuple(_functional(tracer, f) for f in result)
    return _functional(tracer, result)


_HOOKS = {
    "inequalities.opnorm_lower_estimate": _count_ascent,
    "dilation.all_paths": _count_paths,
    "spectral.decompose": _count_generator,
    "multiplier.symbol_of_step": _trace_symbol,
    "multiplier.symbol_of_sampled": _trace_symbol,
    "dilation.martingale_transform": _trace_functional,
    "dilation.level_functional": _trace_functional,
    "dilation.square_and_maximal": _trace_functional,
}


def layer_metrics(tracer: Tracer, checks) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name.

    ``checks`` lists every check name, so that each ``suites.<check>.s``
    appears (as 0.0) even when the workload does not run that check.
    """
    table = tracer.table()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": Counter()}

    def row(name):
        return table.get(name, empty)

    out: dict[str, float] = {}

    def calls_self(name):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]

    for name in ("inequalities.opnorm_lower_estimate", "inequalities.opnorm_exact",
                 "dilation.all_paths", "dilation.transition_products", "dilation.path_measure",
                 "dilation.hat_expectation.exact", "dilation.hat_expectation.mc",
                 "dilation.path_lp_norm.exact", "dilation.path_lp_norm.mc",
                 "spectral.decompose", "spectral.operator_matrix", "spectral.spectral_apply",
                 "semigroup.heat_operator", "multiplier.telescoping_Tm",
                 "space.llogl_norm", "space.lp_norm"):
        calls_self(name)
    counts = tracer.counts
    out["inequalities.ascent_columns"] = counts["ascent_columns"]
    out["inequalities.ascent_flops"] = counts["ascent_flops"]

    tables = row("dilation.all_paths")["calls"]
    out["dilation.paths_built"] = counts["paths_built"]
    out["dilation.mc_paths_sampled"] = counts["mc_paths_sampled"]
    out["dilation.path_table_reuse"] = len(tracer.seen["path_spaces"]) / tables if tables else 0.0
    out["dilation.budget_errors"] = row("dilation.all_paths")["errors"]["EnumerationBudgetError"]
    out["dilation.functional_evals"] = row(FUNCTIONAL_EVAL)["calls"]
    out["dilation.functional_s"] = row(FUNCTIONAL_EVAL)["self_s"]

    decomposes = row("spectral.decompose")["calls"]
    out["spectral.decompose_reuse"] = len(tracer.seen["generators"]) / decomposes if decomposes else 0.0

    symbol_rows = [row(f"{SYMBOL_EVAL}.evaluator"), row(f"{SYMBOL_EVAL}.error_bound")]
    out["multiplier.symbol_evals"] = sum(r["calls"] for r in symbol_rows)
    out["multiplier.symbol_s"] = sum(r["self_s"] for r in symbol_rows)

    for check in checks:
        out[f"suites.{check}.s"] = row(f"suites.suite_{check}")["incl_s"]
    out["config.parse_s"] = row("config.parse_config")["incl_s"]
    out["runner.report_s"] = row("runner.report_json")["incl_s"] + row("runner.inequalities_csv")["incl_s"]

    layer_self = Counter()
    for name, r in table.items():
        layer_self[name.split(".", 1)[0]] += r["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
