"""Command-line entry point: run experiment configs, list bundled presets.

Exit codes: 0 all checks passed, 1 a check failed, 2 config/usage error,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .config import ConfigError, parse_config
from .dilation import EnumerationBudgetError
from .runner import inequalities_csv, report_json, run_config

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_BUDGET = 3


def _preset_files():
    root = resources.files("lapmult") / "presets"
    return sorted(root.iterdir(), key=lambda p: p.name)


def preset_path(name: str) -> Path | None:
    for entry in _preset_files():
        if entry.name == f"{name}.json":
            return Path(str(entry))
    return None


def _load_config(path: str):
    candidate = Path(path)
    if not candidate.exists():
        bundled = preset_path(path)
        if bundled is not None:
            candidate = bundled
    try:
        with open(candidate, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        outcome = run_config(config, threads=args.threads)
    except EnumerationBudgetError as exc:
        print(f"enumeration budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_json(outcome), encoding="utf-8")
    (out_dir / "inequalities.csv").write_text(inequalities_csv(outcome), encoding="utf-8")
    for suite in outcome.report["suites"]:
        marker = "PASS" if suite["passed"] else "FAIL"
        print(f"[{marker}] {suite['name']}")
    print(f"report written to {out_dir / 'report.json'}")
    if not outcome.overall_pass:
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _cmd_list_presets(_: argparse.Namespace) -> int:
    for entry in _preset_files():
        data = json.loads(entry.read_text(encoding="utf-8"))
        name = entry.name.removesuffix(".json")
        print(f"{name}: {data.get('description', '')}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapmult",
        description="Run verification experiments on finite reversible chains.",
    )
    parser.add_argument("--version", action="version", version=f"lapmult {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment config (path or preset name)")
    run_parser.add_argument("config", help="path to a JSON config, or a bundled preset name")
    run_parser.add_argument("--out", default="lapmult-out", help="output directory (default: ./lapmult-out)")
    run_parser.add_argument("--threads", type=_positive_int, default=1, help="suite-level worker threads (at least 1)")
    run_parser.set_defaults(func=_cmd_run)

    list_parser = sub.add_parser("list-presets", help="list bundled configs")
    list_parser.set_defaults(func=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
