"""Byte guard: SHA-256 digests of the files the program emits for fixed inputs.

A change meant to keep every output byte-identical must keep these digests.
A change that alters outputs on purpose updates the digests it changes and
names the changed files in CHANGES.md.

* Cell files: ``qwsn trace`` (TSV event dump plus ``--out`` CSV) for every
  class at two cells, and ``qwsn run --out`` for every class at a third.
* Sweep files: the per-run CSV of the two session sweep fixtures, which is
  the ``metrics.csv`` that ``qwsn sweep`` writes for
  ``scenarios/energy_latency.txt`` and ``scenarios/reliability.txt``.
* Command files: every file ``qwsn sweep`` writes for a small all-class
  scenario that reaches fig4 to fig6, and both files ``qwsn compare-pegasis``
  writes for a small compare block.  Both scenarios set per-run keys away
  from their defaults, so the pins also cover the scenario parser.  The
  sweep pin also runs in fresh interpreters under two string hash seeds.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qwsn import cli
from qwsn.harness import MetricsTable, emit_csv, metrics_row

# (nodes, seed, failure) -> qos -> (CSV digest, trace digest)
TRACE_CELLS = {
    (50, 0, 0.2): {
        "normal": (
            "17dfbe345d8879e87c9070b361b4072872475764baf31b4559b964d16b82d2f2",
            "524c232f0f1935d839c08e8e92b7a03a73879c740f17ca292788e6f0de208b81",
        ),
        "reliable": (
            "75faab74f14d89e6d8a0c6e7686ae1cc4fea4f6ea575dc3253635144890bb5ba",
            "70d220003b3ce7a86d57e72b31c2a75c9e8f14d38fe2dfe7cbda3307e0beca66",
        ),
        "delay": (
            "e663d3a0da8b11af5534dea7791dd397bbdf3afb5dea983f7f9e4dada38ae82e",
            "944e477d1fb82c80f908f3f5127e3b508c28cbe19b7dc946e5771ca5d36ca478",
        ),
        "delay_reliable": (
            "0e8096991ba64d9585597ef1e8d4a95bb7b5a16668760dbf0d1afad6deabc96f",
            "38b413980801ca3ffd15490925e2aa87b115fd3edd97b7cebf4a31656a447e97",
        ),
    },
    (100, 3, 0.1): {
        "normal": (
            "d93078d884077adb661fa6978a2a0612c3e707695cfc4ed97e888536f2d7c80d",
            "8239d1775c955c1765f21c1d21235a85df176d46bf2a4e2f77f82aa535784ee6",
        ),
        "reliable": (
            "d6220c3396daf9dcd849bde9468f791ea2ade1a29767a2ae00abf0a22f283ea2",
            "782a4e804be2880080d7de63b259f49abccb28ab6272c58b9f62695e29c75c81",
        ),
        "delay": (
            "3b95d3a7e5cd981066effe35caff002c1ce74646146463402b87c867c9ac4927",
            "32d91b613cc10464b9a5ca07f2af4fb8a6737f17ffc0d4d3a11089509262348f",
        ),
        "delay_reliable": (
            "8a22edd2c0a336b35c252583fdd09a6afe82c94374a484652173d2387f802b82",
            "000d4a3b930a9a4afb540073cd4db94ed60e48e511fd2457daaae167a9c648fc",
        ),
    },
}

# qos -> CSV digest of ``qwsn run --nodes 75 --seed 7 --failure 0.3``
RUN_CELL = (75, 7, 0.3)
RUN_DIGESTS = {
    "normal": "b27cf77409f9ba9e86be55b2ea183030a90e382f88ae12e54ed596152f2b0a7e",
    "reliable": "592af721a2fb69ae3ec9e1a6fad45ae5d94be03e26c124abef26062d98ed2432",
    "delay": "d8b670f25921b797b3ac254622d2acb5d2f0330f74e718dc10f7bfd89492cebf",
    "delay_reliable": "85a7271f2fe639e25f35b8b166bd72582da657fce9451093b2f1ea5eaf0bd00d",
}

SWEEP_DIGESTS = {
    "energy_latency_runs": (
        "96e6c75edbb2f40e1481ba634ae627f7380262520b6bca82432e6a48fa6979ff"
    ),
    "failure_runs": "6989153ac1e11dcbf7c746e37b897a47c2ebc4dbb47d0733a3d613039fc8d155",
}


# command -> (scenario text, output file -> digest)
COMMAND_FILES = {
    "sweep": (
        "sizes=20,30\nqos=normal,reliable,delay,delay_reliable\n"
        "failures=0.0,0.1\nseeds=0,1\ncopies=2\nservice_time=0.005\n",
        {
            "fig4.tsv": "060dd8500e85e8b4110535064292de5830f99f62de47f9f32b56576ea46a5b82",
            "fig5.tsv": "e39fa0c2f5bcb8e5504cb43866fc284c06098bd74e1e755100b38f0fcd33b8f8",
            "fig6.tsv": "e5039fe07e9db0faed39281bff1564b762ce7797a5cb4850770dc3aae5b7a832",
            "means.csv": "c15ac0915abe1bb52fc256d6f1471d38778254cbeb93d36800d47728ecafdd32",
            "metrics.csv": "03753eca25a5b68555bf560983e9e91a8128c1e98071d0dd2dad1fa9b4b95fbc",
        },
    ),
    "compare-pegasis": (
        "compare_n=24\ncompare_side=30\ncompare_e_init=0.01\n"
        "compare_fractions=0.0,0.2\nseeds=1\nbs_x=10\nbs_y=120\n",
        {
            "fig8.tsv": "d63d9ebd516cf84bbec38c0663e639b50878c4ea985efaec01d13d7696b11873",
            "pegasis_comparison.csv": (
                "9b918507bac9d8e9034d1f5a01f98e6ef412eb9cc79028531c8b6d8ec9313319"
            ),
        },
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cell_argv(command, qos, cell, out):
    nodes, seed, failure = cell
    return [
        command, "--qos", qos, "--nodes", str(nodes), "--seed", str(seed),
        "--failure", str(failure), "--out", str(out),
    ]


@pytest.mark.parametrize(
    "cell, qos",
    [
        pytest.param(cell, qos, id=f"n{cell[0]}-seed{cell[1]}-f{cell[2]}-{qos}")
        for cell, by_qos in TRACE_CELLS.items()
        for qos in by_qos
    ],
)
def test_trace_cell_bytes(tmp_path, cell, qos):
    out, trace = tmp_path / "cell.csv", tmp_path / "trace.tsv"
    argv = _cell_argv("trace", qos, cell, out) + ["--trace", str(trace)]
    assert cli.main(argv) == 0
    assert (_sha256(out), _sha256(trace)) == TRACE_CELLS[cell][qos]


@pytest.mark.parametrize("qos", sorted(RUN_DIGESTS))
def test_run_cell_bytes(tmp_path, qos):
    out = tmp_path / "cell.csv"
    assert cli.main(_cell_argv("run", qos, RUN_CELL, out)) == 0
    assert _sha256(out) == RUN_DIGESTS[qos]


@pytest.mark.parametrize("fixture", sorted(SWEEP_DIGESTS))
def test_sweep_rows_bytes(tmp_path, request, fixture):
    runs = request.getfixturevalue(fixture)
    out = tmp_path / "metrics.csv"
    emit_csv(MetricsTable(rows=[metrics_row(m) for m in runs.values()]), out)
    assert _sha256(out) == SWEEP_DIGESTS[fixture]


@pytest.mark.parametrize(
    "command, hash_seed",
    [pytest.param(command, None, id=command) for command in sorted(COMMAND_FILES)]
    + [pytest.param("sweep", s, id=f"sweep-PYTHONHASHSEED={s}") for s in (0, 1)],
)
def test_command_files_bytes(tmp_path, command, hash_seed):
    text, digests = COMMAND_FILES[command]
    scenario, out = tmp_path / "scenario.txt", tmp_path / "out"
    scenario.write_text(text)
    argv = [command, "--scenario", str(scenario), "--out", str(out)]
    if hash_seed is None:
        assert cli.main(argv) == 0
    else:
        # A fresh interpreter per string hash seed, as every benchmark
        # iteration is: no set or dict order it changes may reach the bytes.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "qwsn.cli", *argv], env=env, check=True, timeout=120
        )
    assert {p.name: _sha256(p) for p in out.iterdir()} == digests
