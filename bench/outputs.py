"""Checks and digests of the files a workload emits.

The expected formats are written out here rather than imported from
``qwsn.harness``, so a change to the program's emitters cannot also change
what the check accepts.  Digests are recorded, not compared with a stored
reference: a deliberate model change alters them, and a change meant only to
be faster shows byte-identity by leaving them equal.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

QOS_ORDER = ("normal", "reliable", "delay", "delay_reliable")
METRICS_HEADER = (
    "qos,n,failure_fraction,seed,"
    "avg_dissipated_energy_j,avg_latency_s,delivery_probability"
)
MEANS_HEADER = (
    "qos,n,failure_fraction,avg_dissipated_energy_j,avg_latency_s,delivery_probability"
)
COMPARISON_HEADER = (
    "failure_fraction,lifetime_case4,lifetime_pegasis,case4_packets,pegasis_packets"
)
FIG8_HEADER = "failure_fraction\tcase4\tpegasis"
# figure -> (failure fraction it is drawn at, means.csv column it plots)
SWEEP_FIGURES = {"fig4": (0.0, 3), "fig5": (0.0, 4), "fig6": (0.1, 5), "fig7": (0.2, 5)}


class OutputError(ValueError):
    """An emitted file is missing, malformed or out of range."""


def digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def _rows(path: Path, header: str, sep: str, count: int) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise OutputError(f"{path.name}: bad header")
    if len(lines) - 1 != count:
        raise OutputError(f"{path.name}: {len(lines) - 1} rows, expected {count}")
    return [line.split(sep) for line in lines[1:]]


def _check_cell(name: str, energy: str, latency: str, delivery: str) -> float:
    """Delivery in [0, 1]; energy and latency finite and positive where
    something was delivered, and ``inf`` (undefined) where nothing was."""
    share = float(delivery)
    if not 0.0 <= share <= 1.0:
        raise OutputError(f"{name}: delivery {delivery} outside [0, 1]")
    for value in (float(energy), float(latency)):
        ok = math.isfinite(value) and value > 0.0 if share > 0.0 else value == math.inf
        if not ok:
            raise OutputError(f"{name}: energy/latency {value} at delivery {share}")
    return share


def check_sweep(out_dir: Path, scenario: dict) -> dict[str, float]:
    """Check a sweep's files; return its simulated means (not gated)."""
    qos, sizes = scenario["qos"], scenario["sizes"]
    failures, seeds = scenario["failures"], scenario["seeds"]
    figures = [f for f, (frac, _) in SWEEP_FIGURES.items() if frac in failures]
    expected = {"metrics.csv", "means.csv", *(f"{f}.tsv" for f in figures)}
    found = {p.name for p in out_dir.iterdir()}
    if found != expected:
        raise OutputError(f"emitted {sorted(found)}, expected {sorted(expected)}")

    rows = _rows(
        out_dir / "metrics.csv",
        METRICS_HEADER,
        ",",
        len(qos) * len(sizes) * len(failures) * len(seeds),
    )
    expected_cells = {
        (q, n, f, s) for q in qos for n in sizes for f in failures for s in seeds
    }
    cells = {(q, int(n), float(f), int(s)) for q, n, f, s, *_ in rows}
    if cells != expected_cells:
        raise OutputError("metrics.csv: cells differ from the scenario's grid")
    delivery, energy, latency = [], [], []
    for *_, e, lat, d in rows:
        delivery.append(_check_cell("metrics.csv", e, lat, d))
        if delivery[-1] > 0.0:
            energy.append(float(e))
            latency.append(float(lat))

    means = {}
    for q, n, f, *values in _rows(
        out_dir / "means.csv", MEANS_HEADER, ",", len(qos) * len(sizes) * len(failures)
    ):
        share = float(values[2])
        if not 0.0 <= share <= 1.0 or not all(float(v) > 0.0 for v in values[:2]):
            raise OutputError(f"means.csv: out of range at {q},{n},{f}")
        means[q, int(n), float(f)] = [q, n, f, *values]
    if set(means) != {(q, n, f) for q in qos for n in sizes for f in failures}:
        raise OutputError("means.csv: groups differ from the scenario's grid")

    classes = [q for q in QOS_ORDER if q in qos]
    for figure in figures:
        fraction, column = SWEEP_FIGURES[figure]
        expected_rows = [
            [str(n), *(means[q, n, fraction][column] for q in classes)]
            for n in sorted(sizes)
        ]
        header = "n\t" + "\t".join(classes)
        if _rows(out_dir / f"{figure}.tsv", header, "\t", len(sizes)) != expected_rows:
            raise OutputError(f"{figure}.tsv disagrees with means.csv")
    return {
        "delivery_mean": sum(delivery) / len(delivery),
        "energy_mean_j": sum(energy) / len(energy) if energy else math.nan,
        "latency_mean_s": sum(latency) / len(latency) if latency else math.nan,
    }


def check_lifetime(out_dir: Path, scenario: dict) -> dict[str, float]:
    """Check a lifetime comparison's files; return its lifetime totals."""
    found = {p.name for p in out_dir.iterdir()}
    if found != {"pegasis_comparison.csv", "fig8.tsv"}:
        raise OutputError(f"emitted {sorted(found)}")
    count = len(scenario["compare_fractions"])
    rows = _rows(out_dir / "pegasis_comparison.csv", COMPARISON_HEADER, ",", count)
    series = _rows(out_dir / "fig8.tsv", FIG8_HEADER, "\t", count)
    case4 = chain = 0
    for (frac, life4, life_chain, packets4, packets_chain), row8 in zip(rows, series):
        if row8 != [frac, life4, life_chain]:
            raise OutputError("fig8.tsv disagrees with pegasis_comparison.csv")
        if float(frac) not in scenario["compare_fractions"]:
            raise OutputError(f"unexpected failure fraction {frac}")
        if int(life4) <= 0 or int(life_chain) <= 0:
            raise OutputError(f"non-positive lifetime at fraction {frac}")
        if int(packets4) < 0 or int(packets_chain) < 0:
            raise OutputError(f"negative packet count at fraction {frac}")
        case4 += int(life4)
        chain += int(life_chain)
    return {"case4_rounds": case4, "chain_rounds": chain}
