"""Command-line entry point.

Subcommands:

* ``run``             one cell: ``--qos --nodes --seed --failure [--out CSV]``
* ``trace``           like run, plus ``--trace FILE`` with the event dump
* ``sweep``           ``--scenario FILE --out DIR``: rows, means and figure series
* ``compare-pegasis`` ``--scenario FILE --out DIR``: lifetime comparison table

The ``QWSN_SEED`` environment variable (comma list) overrides the scenario's
seed list.  Exit codes: 0 success, 2 parse/range error in the scenario, in
``QWSN_SEED`` or in the cell arguments, or a scenario that cannot be read or
an output that cannot be written (one ``error:`` line on stderr each), 3 when
every sweep cell was skipped as unconnectable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness
from .harness import (
    FIGURES,
    ParseError,
    RangeError,
    ScenarioConfig,
    compare_config,
    emit_comparison_csv,
    emit_comparison_series,
    emit_csv,
    emit_means_csv,
    emit_series,
    parse_scenario,
    run_sweep,
    sim_config,
)
from .pegasis import compare_case4
from .protocol import QosClass
from .sim import TopologyUnconnectable, format_trace, simulate_query_round

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNCONNECTABLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsn",
        description="Query-driven multi-service sensor network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cell_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--qos",
            choices=[q.value for q in QosClass],
            default=QosClass.NORMAL.value,
            help="service class (default: normal)",
        )
        p.add_argument("--nodes", type=int, default=50, help="network size")
        p.add_argument("--seed", type=int, default=0, help="topology seed")
        p.add_argument(
            "--failure", type=float, default=0.0, help="failed-node fraction [0,1)"
        )
        p.add_argument("--out", type=Path, default=None, help="write one-row CSV here")

    run_p = sub.add_parser("run", help="simulate one query round")
    add_cell_args(run_p)

    trace_p = sub.add_parser("trace", help="simulate one round and dump its events")
    add_cell_args(trace_p)
    trace_p.add_argument(
        "--trace", type=Path, required=True, help="event dump destination"
    )

    sweep_p = sub.add_parser("sweep", help="replicate the experiment sweeps")
    sweep_p.add_argument("--scenario", type=Path, required=True)
    sweep_p.add_argument("--out", type=Path, required=True, help="output directory")

    cmp_p = sub.add_parser(
        "compare-pegasis", help="lifetime comparison against the chain baseline"
    )
    cmp_p.add_argument("--scenario", type=Path, required=True)
    cmp_p.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _load_scenario(path: Path) -> ScenarioConfig:
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    env_seeds = os.environ.get("QWSN_SEED")
    if env_seeds:
        scenario.seeds = _parse_env_seeds(env_seeds)
    return scenario


def _parse_env_seeds(value: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in value.split(","))
        if all(s >= 0 for s in seeds):
            return seeds
    except ValueError:
        pass
    raise RangeError(
        f"QWSN_SEED must be a comma list of non-negative integers: {value!r}"
    )


def _error(exc: Exception, code: int = EXIT_PARSE) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_cell(args: argparse.Namespace, with_trace: bool) -> int:
    try:
        config = sim_config(ScenarioConfig(), args.nodes, args.failure, args.seed)
    except ValueError as exc:  # RangeError included
        return _error(exc)
    qos = QosClass(args.qos)
    try:
        metrics = simulate_query_round(config, qos, collect_trace=with_trace)
    except TopologyUnconnectable as exc:
        return _error(exc, EXIT_UNCONNECTABLE)
    print(
        f"qos={qos.value} n={config.n} seed={config.seed} "
        f"failure={config.failure_fraction:g} "
        f"delivered={metrics.replies_delivered}/{metrics.replies_sent} "
        f"avg_energy={metrics.avg_dissipated_energy:.9f} J/packet "
        f"avg_latency={metrics.avg_latency:.9f} s"
    )
    try:
        if args.out is not None:
            table = harness.MetricsTable(rows=[harness.metrics_row(metrics)])
            emit_csv(table, args.out)
        if with_trace:
            args.trace.write_text(format_trace(metrics.trace), encoding="utf-8")
            print(f"trace written to {args.trace}")
    except OSError as exc:
        return _error(exc)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except (OSError, ParseError, RangeError) as exc:
        return _error(exc)
    table = run_sweep(scenario)
    out: Path = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(table, out / "metrics.csv")
        emit_means_csv(table, out / "means.csv")
        for figure, (_, fraction) in FIGURES.items():
            if any(m.failure_fraction == fraction for m in table.means):
                emit_series(table, figure, out / f"{figure}.tsv")
    except OSError as exc:
        return _error(exc)
    if table.skipped:
        print(f"skipped {len(table.skipped)} unconnectable cell(s)", file=sys.stderr)
    if not table.rows:
        print("error: every sweep cell was unconnectable", file=sys.stderr)
        return EXIT_UNCONNECTABLE
    print(f"wrote {len(table.rows)} rows to {out / 'metrics.csv'}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except (OSError, ParseError, RangeError) as exc:
        return _error(exc)
    config = compare_config(scenario, scenario.seeds[0])
    try:
        rows = compare_case4(
            config, scenario.compare_fractions, (scenario.bs_x, scenario.bs_y)
        )
    except TopologyUnconnectable as exc:
        return _error(exc, EXIT_UNCONNECTABLE)
    out: Path = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        emit_comparison_csv(rows, out / "pegasis_comparison.csv")
        emit_comparison_series(rows, out / "fig8.tsv")
    except OSError as exc:
        return _error(exc)
    for row in rows:
        print(
            f"failure={row.failure_fraction:g}: "
            f"case4={row.lifetime_case4} rounds, "
            f"pegasis={row.lifetime_pegasis} rounds"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_cell(args, with_trace=False)
    if args.command == "trace":
        return _cmd_cell(args, with_trace=True)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "compare-pegasis":
        return _cmd_compare(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
