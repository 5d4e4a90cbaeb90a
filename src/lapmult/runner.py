"""Deterministic execution of validated configs and report serialization.

Suites may execute on a thread pool, but results are assembled in config order
and serialized with sorted keys, so two runs of the same config on the same
environment produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .config import CHECKS, ExperimentConfig, SuiteSpec
from .suites import SuiteResult

__all__ = ["RunOutcome", "run_config", "report_json", "inequalities_csv"]

REPORT_SCHEMA = "lapmult-report-2"

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
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }


def _run_suite(spec: SuiteSpec) -> SuiteResult:
    return _RUNNERS[spec.check](**spec.kwargs)


def run_config(config: ExperimentConfig, threads: int = 1) -> RunOutcome:
    """Execute every requested suite in order and assemble the report."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
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
