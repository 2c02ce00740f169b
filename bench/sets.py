#!/usr/bin/env python3
"""Run a set of benchmark runs, one per seed, and summarise each metric.

Usage, from the repository root::

    python3 bench/sets.py --workload sweep_clean --seeds 0-9 --out .bench/set1.json

For each seed it runs ``bench/run.py --workload W --seed S --seconds N
--trace 0`` and keeps the JSON line and the run's per-iteration figures.  For
each end-to-end metric it prints the median and the spread, the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, which is how steadiness is judged against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads(
            (ROOT / ".bench" / "results" / f"{workload}-trace0.json").read_text()
        )
        runs.append({"seed": seed, "exit": proc.returncode, **line,
                     "iterations": report["iterations"]})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
            flush=True)
    summary = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                           "median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "runs": values}
    return {"workload": workload, "seconds": seconds, "seeds": seeds,
            "correct": all(r["correct"] and r["exit"] == 0 for r in runs),
            "end_to_end": summary, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="first-last, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    result = run_set(args.workload, seed_range(args.seeds), args.seconds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    for metric, m in result["end_to_end"].items():
        print(f"  {metric:14s} median {m['median']:.5g} {m['unit']:3s}"
              f" spread {m['spread']:.3f}")
    print(f"  correct: {result['correct']}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
