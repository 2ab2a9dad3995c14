"""Command line front end.

Exit codes: 0 on success, 1 when an expectation failed or none was
evaluated, 2 for configuration or usage errors, an output directory that
cannot be written included.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ResolvedConfig,
    echo_config,
    load_config,
    load_report,
    render_report,
    report_payload,
    run_scenario,
    write_report,
)

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _default_outdir() -> str:
    return os.environ.get("DTPSIM_OUT", "./dtpsim-out")


def _csv_list(text: str) -> list[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return items


def _seed_list(text: str) -> list[int]:
    try:
        return [int(item) for item in _csv_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtpsim",
        description="Discrete-event simulator for QoS-aware task placement pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or all scenarios and write traces")
    run.add_argument("--config", help="YAML config file; omit to use built-in defaults")
    run.add_argument(
        "--out",
        default=None,
        help="output directory (default: $DTPSIM_OUT or ./dtpsim-out)",
    )
    run.add_argument("--scenario", default="all", help="scenario name, or 'all'")
    run.add_argument("--policies", type=_csv_list, help="comma-separated subset, e.g. LOC,DTP")
    run.add_argument("--seeds", type=_seed_list, help="comma-separated seed subset, e.g. 1,2,3")
    run.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format on stdout"
    )

    val = sub.add_parser("validate", help="resolve and validate a config, then exit")
    val.add_argument("--config", help="YAML config file; omit to check the defaults")

    rep = sub.add_parser("report", help="re-render the report from a previous run")
    rep.add_argument(
        "--out",
        default=None,
        help="output directory of the previous run (default: $DTPSIM_OUT or ./dtpsim-out)",
    )
    rep.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _select_scenarios(config: ResolvedConfig, name: str) -> list[str]:
    if name == "all":
        return list(config.scenarios)
    if name not in config.scenarios:
        known = ", ".join(sorted(config.scenarios))
        raise ConfigError(f"unknown scenario {name!r} (known: {known})")
    return [name]


def _cmd_run(args: argparse.Namespace) -> int:
    """Run the selected scenarios (see ``run_scenario``), then echo the
    config and write the report: a rejected subset writes nothing."""
    config = load_config(args.config)
    specs = [config.scenarios[name] for name in _select_scenarios(config, args.scenario)]
    outdir = Path(args.out if args.out is not None else _default_outdir())
    reports = run_scenario(config, specs, args.policies, args.seeds, outdir)
    echo_config(config, outdir)
    payload = report_payload(reports)
    write_report(payload, outdir)
    return _print_report(payload, args.format)


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    n = len(config.scenarios)
    print(f"config ok: {len(config.fabric.nodes)} nodes, "
          f"{len(config.dag.tasks)} tasks, {n} scenarios")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    outdir = Path(args.out if args.out is not None else _default_outdir())
    return _print_report(load_report(outdir), args.format)


def _print_report(payload: dict, fmt: str) -> int:
    print(render_report(payload, fmt))
    return EXIT_OK if payload["passed"] else EXIT_EXPECTATION_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return EXIT_OK if not exc.code else EXIT_CONFIG_ERROR
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "report":
            return _cmd_report(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
