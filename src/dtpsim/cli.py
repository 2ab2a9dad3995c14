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
    ScenarioReport,
    ScenarioSpec,
    echo_config,
    evaluate_expectations,
    load_config,
    load_report,
    render_report,
    report_payload,
    run_scenario,
    select_runs,
    shared_fixed_runs,
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
    """Run the selected scenarios seed by seed, each seed's runs of every
    scenario on one mapping of normals, and report each scenario's seeds in
    its own order.

    A fixed run that several scenarios of a seed make (equal keys: the same
    controller, sim, fabric, window and per-window plans) is made once:
    before the seed starts, ``shared_fixed_runs`` finds them, and each one's
    trace and ``cycles.csv`` text are held until the last scenario that
    reads them is done.
    """
    config = load_config(args.config)
    specs = [config.scenarios[name] for name in _select_scenarios(config, args.scenario)]
    # reject a bad subset before anything is written
    seeds = [select_runs(config, spec, args.policies, args.seeds)[1] for spec in specs]
    outdir = Path(args.out if args.out is not None else _default_outdir())

    echo_config(config, outdir)
    static_estimates: dict = {}  # one config: every scenario shares its dag, fabric and candidates
    reports: list[dict[int, ScenarioReport]] = [{} for _ in specs]
    for seed in dict.fromkeys(seed for selected in seeds for seed in selected):
        # a seed's draws are the same in every scenario; one seed's columns are held at a time
        normals: dict = {}
        runs = [(spec, by_seed) for spec, selected, by_seed in zip(specs, seeds, reports)
                if seed in selected]
        shared = shared_fixed_runs(config, [spec for spec, _ in runs], args.policies, seed)
        for i, (spec, by_seed) in enumerate(runs):
            by_seed[seed] = run_scenario(
                config, spec, args.policies, [seed], outdir, static_estimates, normals, shared
            )
            shared = [run for run in shared if run.last > i]
    payload = report_payload(
        [
            _merged(spec, [by_seed[seed] for seed in selected])
            for spec, selected, by_seed in zip(specs, seeds, reports)
        ]
    )
    write_report(payload, outdir)
    return _print_report(payload, args.format)


def _merged(spec: ScenarioSpec, reports: list[ScenarioReport]) -> ScenarioReport:
    """One report of a scenario's one-seed reports, in their order, its
    expectations evaluated over all of their seeds."""
    results = {
        policy: [run for report in reports for run in report.results[policy]]
        for policy in reports[0].results
    }
    return ScenarioReport(spec.name, results, evaluate_expectations(spec, results))


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
