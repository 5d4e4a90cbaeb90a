"""Deterministic execution of validated configs and report serialization.

Suites may execute on a thread pool, but results are assembled in config order
and serialized with sorted keys, so two runs of the same config on the same
environment produce byte-identical reports.  A run holds numpy's bundled
OpenBLAS at one thread, so ``OPENBLAS_NUM_THREADS`` does not move the bits of
its BLAS reductions either; a numpy built on another BLAS keeps its thread count.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import __version__
from .config import CHECKS, ExperimentConfig, SuiteSpec
from .suites import SuiteResult

__all__ = ["RunOutcome", "run_config", "report_json", "inequalities_csv"]

REPORT_SCHEMA = "lapmult-report-3"

# Derived from config.CHECKS.  A module-level dict of plain functions, so that
# instrumentation can rebind an entry without touching the check table.
_RUNNERS: dict[str, Callable[..., SuiteResult]] = {name: c.run for name, c in CHECKS.items()}


@dataclass(frozen=True, eq=False)
class RunOutcome:
    """The assembled report and the overall verdict."""

    report: dict
    overall_pass: bool


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if v == v and abs(v) != float("inf") else repr(v)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _environment_stamp() -> dict:
    return {
        "lapmult": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": sys.platform,
    }


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS bundled with numpy, or None without one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold numpy's bundled OpenBLAS at one thread, where it can be set, and restore its count after."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def _run_suite(spec: SuiteSpec) -> SuiteResult:
    return _RUNNERS[spec.check](**spec.kwargs)


def run_config(config: ExperimentConfig, threads: int = 1) -> RunOutcome:
    """Execute every requested suite in order, on one BLAS thread, and assemble the report."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    with _one_blas_thread():
        if threads == 1:
            results = [_run_suite(spec) for spec in config.suites]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_run_suite, config.suites))
    overall = all(r.passed for r in results)
    report = {
        "schema": REPORT_SCHEMA,
        "environment": _environment_stamp(),
        "config": _jsonable(config.raw),
        "suites": [_jsonable(r.to_dict()) for r in results],
        "overall_pass": overall,
    }
    return RunOutcome(report=report, overall_pass=overall)


def report_json(outcome: RunOutcome) -> str:
    return json.dumps(outcome.report, indent=2, sort_keys=True) + "\n"


CSV_HEADER = ["suite", "name", "lhs", "rhs", "ratio", "threshold", "provenance", "pass"]


def inequalities_csv(outcome: RunOutcome) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for suite in outcome.report["suites"]:
        for row in suite["inequalities"]:
            writer.writerow({"suite": suite["name"], **row})
    return buffer.getvalue()
