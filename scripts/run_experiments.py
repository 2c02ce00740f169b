#!/usr/bin/env python3
"""Reproduce the full experiment set from the shipped scenario files.

Runs ``qwsn sweep`` on ``scenarios/energy_latency.txt`` (fig4/fig5) and
``scenarios/reliability.txt`` (fig6/fig7), and ``qwsn compare-pegasis`` on
``scenarios/lifetime.txt`` (fig8), writing each into ``OUT/<scenario>/``.
The scenario files carry every parameter; ``QWSN_SEED`` overrides their
seed lists as it does for ``qwsn``.  Re-running writes byte-identical files.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qwsn.cli import main as qwsn  # noqa: E402

RUNS = (
    ("sweep", "energy_latency"),
    ("sweep", "reliability"),
    ("compare-pegasis", "lifetime"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()
    for command, scenario in RUNS:
        print(f"== {command} {scenario} ==", flush=True)
        code = qwsn(
            [
                command,
                "--scenario",
                str(ROOT / "scenarios" / f"{scenario}.txt"),
                "--out",
                str(args.out / scenario),
            ]
        )
        if code != 0:
            return code
    print(f"outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
