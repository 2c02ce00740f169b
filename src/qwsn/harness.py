"""Experiment sweeps: scenario files, metric tables, CSV and plot series.

A scenario is a line-oriented ``key=value`` file (``#`` comments, comma
lists) describing a sweep over network sizes, service classes, failure
fractions and topology seeds.  Every other per-run key sets the
:class:`SimConfig` field of the same name in ``ScenarioConfig.run``, and
that config alone range-checks them.  Every cell of the sweep is one seeded
run: ``run`` with the cell's size, side, seed and failure fraction.  The
deployment area grows with the node count so density stays at the 50-node /
70 m baseline.  For a fixed (n, fraction, seed) all service classes see the
same node placement, the same sources and the same failed nodes, so the
per-class columns are directly comparable.

Output is deterministic to the byte: fixed column order, fixed float
formatting (nine fractional digits), rows ordered by (class, n, fraction,
seed) regardless of execution order.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable

from .pegasis import ComparisonRow
from .protocol import QosClass
from .sim import (
    FloodState,
    RunMetrics,
    SimConfig,
    TopologyUnconnectable,
    active_range,
    build_topology,
    flood_state,
    simulate_query_round,
)

QOS_ORDER = (
    QosClass.NORMAL,
    QosClass.RELIABLE,
    QosClass.DELAY,
    QosClass.DELAY_RELIABLE,
)

CSV_HEADER = (
    "qos,n,failure_fraction,seed,"
    "avg_dissipated_energy_j,avg_latency_s,delivery_probability"
)
MEANS_HEADER = (
    "qos,n,failure_fraction,"
    "avg_dissipated_energy_j,avg_latency_s,delivery_probability"
)
COMPARISON_HEADER = (
    "failure_fraction,lifetime_case4,lifetime_pegasis,"
    "case4_packets,pegasis_packets"
)

_BASELINE_N = 50
_BASELINE_SIDE = 70.0


class ParseError(ValueError):
    """Malformed scenario text; carries the offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ValueError):
    """Well-formed scenario value outside its legal range."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def derive_side(n: int) -> float:
    """Deployment side keeping density equal to the 50-node / 70 m baseline."""
    if n < 2:
        raise RangeError(f"need at least two nodes, got n={n}")
    return _BASELINE_SIDE * math.sqrt(n / _BASELINE_N)


@dataclass
class ScenarioConfig:
    """Sweep definition plus the run config every cell starts from.

    ``run``'s size, side, seed and failure fraction are placeholders: each
    cell sets its own.
    """

    sizes: tuple[int, ...] = (50,)
    qos: tuple[QosClass, ...] = QOS_ORDER
    failures: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = tuple(range(10))
    run: SimConfig = SimConfig()
    # lifetime-comparison scenario (base station outside the area)
    compare_n: int = 100
    compare_side: float = 50.0
    compare_range: float = 110.0
    compare_e_init: float = 0.5
    compare_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    bs_x: float = 25.0
    bs_y: float = 150.0


_INT_LIST_KEYS = {"sizes", "seeds"}
_FLOAT_LIST_KEYS = {"failures", "compare_fractions"}
_FLOAT_KEYS = {"compare_side", "compare_range", "compare_e_init", "bs_x", "bs_y"}
# Per-run keys: every SimConfig field a sweep cell does not set, mapped to
# its annotation ("float", "int" or "int | None").
_RUN_KEYS = {
    f.name: f.type
    for f in fields(SimConfig)
    if f.name not in ("n", "side", "seed", "failure_fraction")
}
# The SimConfig fields the compare block sets, by the scenario key that sets
# them, so a compare-block error names the key.
_COMPARE_KEYS = {
    "n": "compare_n",
    "side": "compare_side",
    "long_range": "compare_range",
    "e_init": "compare_e_init",
}


def _parse_qos_list(value: str, line: int) -> tuple[QosClass, ...]:
    out = []
    for item in value.split(","):
        item = item.strip().lower()
        try:
            out.append(QosClass(item))
        except ValueError:
            names = ", ".join(q.value for q in QOS_ORDER)
            raise ParseError(f"unknown service class {item!r} (one of: {names})", line)
    return tuple(out)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text; unknown keys and bad syntax raise ParseError,
    legal syntax with illegal values raises RangeError."""
    scenario = ScenarioConfig()
    run: dict[str, object] = {}
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line_no)
        seen.add(key)
        try:
            if key in _INT_LIST_KEYS:
                parsed: object = tuple(int(v) for v in value.split(","))
            elif key in _FLOAT_LIST_KEYS:
                parsed = tuple(float(v) for v in value.split(","))
            elif key in _FLOAT_KEYS:
                parsed = float(value)
            elif key == "compare_n":
                parsed = int(value)
            elif key == "qos":
                parsed = _parse_qos_list(value, line_no)
            elif key in _RUN_KEYS:
                kind = _RUN_KEYS[key]
                if kind == "float":
                    run[key] = float(value)
                else:
                    auto = kind == "int | None" and value.lower() == "auto"
                    run[key] = None if auto else int(value)
                continue
            elif key in ("failure", "failure_fraction"):
                key = "failures"
                parsed = tuple(float(v) for v in value.split(","))
            else:
                raise ParseError(f"unknown key {key!r}", line_no)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line_no) from None
        setattr(scenario, key, parsed)
        _check_range(scenario, key, line_no)
    try:
        scenario.run = replace(scenario.run, **run)
    except ValueError as exc:
        raise RangeError(str(exc)) from None
    try:
        compare_config(scenario, scenario.seeds[0])
    except ValueError as exc:  # RangeError included
        pattern = r"\b(" + "|".join(_COMPARE_KEYS) + r")\b"
        message = re.sub(pattern, lambda m: _COMPARE_KEYS[m[1]], str(exc))
        raise RangeError(f"compare block: {message}") from None
    return scenario


def _check_range(scenario: ScenarioConfig, key: str, line: int) -> None:
    value = getattr(scenario, key)
    if key == "sizes":
        if not value or any(n < 2 for n in value):
            raise RangeError(f"sizes must all be >= 2: {value}", line)
    elif key == "seeds":
        if not value or any(s < 0 for s in value):
            raise RangeError(f"need at least one non-negative seed: {value}", line)
    elif key in ("failures", "compare_fractions"):
        if any(not (0.0 <= f < 1.0) for f in value):
            raise RangeError(f"failure fractions must be in [0, 1): {value}", line)
    elif key in ("bs_x", "bs_y") and not math.isfinite(value):
        # The base station sits outside the field, so no sign is wrong; the
        # rest of the compare block is checked as a run config.
        raise RangeError(f"{key} must be finite: {value}", line)


def sim_config(
    scenario: ScenarioConfig, n: int, failure_fraction: float, seed: int
) -> SimConfig:
    """Config for one sweep cell; the side is derived to hold density constant."""
    return replace(
        scenario.run,
        n=n,
        side=derive_side(n),
        seed=seed,
        failure_fraction=failure_fraction,
    )


def compare_config(scenario: ScenarioConfig, seed: int) -> SimConfig:
    """Config for the lifetime comparison (fixed area, long reach)."""
    return replace(
        sim_config(scenario, scenario.compare_n, 0.0, seed),
        side=scenario.compare_side,
        long_range=scenario.compare_range,
        e_init=scenario.compare_e_init,
    )


@dataclass(frozen=True)
class MetricsRow:
    qos: QosClass
    n: int
    failure_fraction: float
    seed: int
    avg_dissipated_energy_j: float
    avg_latency_s: float
    delivery_probability: float


def metrics_row(metrics: RunMetrics) -> MetricsRow:
    """The emitted row of one run."""
    config = metrics.config
    return MetricsRow(
        qos=metrics.qos,
        n=config.n,
        failure_fraction=config.failure_fraction,
        seed=config.seed,
        avg_dissipated_energy_j=metrics.avg_dissipated_energy,
        avg_latency_s=metrics.avg_latency,
        delivery_probability=metrics.delivery_probability,
    )


# The per-run metrics a MeanRow averages, in column order.
_METRICS = ("avg_dissipated_energy_j", "avg_latency_s", "delivery_probability")


@dataclass(frozen=True)
class MeanRow:
    qos: QosClass
    n: int
    failure_fraction: float
    avg_dissipated_energy_j: float
    avg_latency_s: float
    delivery_probability: float


@dataclass
class MetricsTable:
    """Sweep rows plus per-(class, n, fraction) means over the seed set."""

    rows: list[MetricsRow] = field(default_factory=list)
    means: list[MeanRow] = field(default_factory=list)
    skipped: list[tuple[QosClass, int, float, int]] = field(default_factory=list)
    runs: dict[tuple[QosClass, int, float, int], RunMetrics] = field(
        default_factory=dict
    )

    def mean(self, qos: QosClass, n: int, fraction: float) -> MeanRow | None:
        for row in self.means:
            if row.qos is qos and row.n == n and row.failure_fraction == fraction:
                return row
        return None


def run_sweep(scenario: ScenarioConfig, keep_runs: bool = False) -> MetricsTable:
    """One run per (class, size, fraction, seed) cell, then per-group means.

    Each (size, seed) topology is built once and flooded once per radio
    range; every cell on it starts from its range's flood state, and the
    topology and its flood states are dropped before the next one is built.
    So every class sees identical placements.  Rows, means,
    ``skipped`` and ``runs`` are then assembled in (class, size, fraction,
    seed) order.  Unconnectable cells are recorded under ``skipped`` and
    never abort the sweep.
    """
    rows: dict[tuple[QosClass, int, float, int], MetricsRow] = {}
    kept: dict[tuple[QosClass, int, float, int], RunMetrics] = {}
    for n in scenario.sizes:
        for seed in scenario.seeds:
            try:
                topology = build_topology(sim_config(scenario, n, 0.0, seed))
            except TopologyUnconnectable:
                continue
            floods: dict[float, FloodState] = {}
            for qos, fraction in itertools.product(scenario.qos, scenario.failures):
                config = sim_config(scenario, n, fraction, seed)
                radio = active_range(config, qos)
                if radio not in floods:
                    floods[radio] = flood_state(config, qos, topology)
                metrics = simulate_query_round(
                    config, qos, topology=topology, flood=floods[radio]
                )
                key = (qos, n, fraction, seed)
                rows[key] = metrics_row(metrics)
                if keep_runs:
                    kept[key] = metrics
            del topology, floods
    table = MetricsTable()
    for qos, n, fraction in itertools.product(
        scenario.qos, scenario.sizes, scenario.failures
    ):
        keys = [(qos, n, fraction, seed) for seed in scenario.seeds]
        table.skipped.extend(key for key in keys if key not in rows)
        table.runs.update((key, kept[key]) for key in keys if key in kept)
        group = [rows[key] for key in keys if key in rows]
        if group:
            table.rows.extend(group)
            means = (sum(getattr(r, m) for r in group) / len(group) for m in _METRICS)
            table.means.append(MeanRow(qos, n, fraction, *means))
    return table


def _f(value: float) -> str:
    return f"{value:.9f}"


def emit_csv(table: MetricsTable, path: str | Path) -> None:
    """Per-run rows with the fixed header, nine fractional digits per float."""
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(
            f"{r.qos.value},{r.n},{_f(r.failure_fraction)},{r.seed},"
            f"{_f(r.avg_dissipated_energy_j)},{_f(r.avg_latency_s)},"
            f"{_f(r.delivery_probability)}"
        )
    _write(path, lines)


def emit_means_csv(table: MetricsTable, path: str | Path) -> None:
    lines = [MEANS_HEADER]
    for r in table.means:
        lines.append(
            f"{r.qos.value},{r.n},{_f(r.failure_fraction)},"
            f"{_f(r.avg_dissipated_energy_j)},{_f(r.avg_latency_s)},"
            f"{_f(r.delivery_probability)}"
        )
    _write(path, lines)


FIGURES = {
    # figure id -> (metric attribute, failure fraction the series is drawn at)
    "fig4": ("avg_dissipated_energy_j", 0.0),
    "fig5": ("avg_latency_s", 0.0),
    "fig6": ("delivery_probability", 0.1),
    "fig7": ("delivery_probability", 0.2),
}


def emit_series(table: MetricsTable, figure_id: str, path: str | Path) -> None:
    """Plot-ready series: x is the network size, one column per class.

    fig4 = mean dissipated energy, fig5 = mean latency (both at zero
    failures); fig6/fig7 = mean delivery probability at 10 % / 20 % failures.
    Only sizes actually swept at the figure's failure fraction appear.
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id: {figure_id!r} (fig4..fig7)")
    metric, fraction = FIGURES[figure_id]
    classes = [q for q in QOS_ORDER if any(m.qos is q for m in table.means)]
    sizes = sorted(
        {
            m.n
            for m in table.means
            if m.failure_fraction == fraction and m.qos in classes
        }
    )
    if not sizes:
        raise ValueError(
            f"table has no rows at failure fraction {fraction} for {figure_id}"
        )
    lines = ["n\t" + "\t".join(q.value for q in classes)]
    for n in sizes:
        cells = [str(n)]
        for qos in classes:
            mean = table.mean(qos, n, fraction)
            cells.append(_f(getattr(mean, metric)) if mean is not None else "nan")
        lines.append("\t".join(cells))
    _write(path, lines)


def emit_comparison_csv(rows: Iterable[ComparisonRow], path: str | Path) -> None:
    lines = [COMPARISON_HEADER]
    for r in rows:
        lines.append(
            f"{_f(r.failure_fraction)},{r.lifetime_case4},{r.lifetime_pegasis},"
            f"{r.case4_packets},{r.pegasis_packets}"
        )
    _write(path, lines)


def emit_comparison_series(rows: Iterable[ComparisonRow], path: str | Path) -> None:
    """fig8: lifetime (rounds) versus failure fraction for both protocols."""
    lines = ["failure_fraction\tcase4\tpegasis"]
    for r in rows:
        lines.append(f"{_f(r.failure_fraction)}\t{r.lifetime_case4}\t{r.lifetime_pegasis}")
    _write(path, lines)


def _write(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

