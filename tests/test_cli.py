"""Command-line surface: subcommands, outputs, exit codes, env override."""

import pytest

from qwsn.cli import EXIT_OK, EXIT_PARSE, EXIT_UNCONNECTABLE, main
from qwsn.harness import CSV_HEADER

TINY_SWEEP = "sizes=12\nqos=normal\nseeds=0,1\n"


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _sweep_tiny(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(TINY_SWEEP)
    return main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o")])


class TestRun:
    def test_run_writes_single_row_csv(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(
            ["run", "--qos", "normal", "--nodes", "12", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert "delivered=" in capsys.readouterr().out

    def test_too_few_nodes_exits_2(self, capsys):
        assert main(["run", "--nodes", "1"]) == EXIT_PARSE
        _assert_one_error_line(capsys)

    def test_failure_fraction_out_of_range_exits_2(self, capsys):
        assert main(["run", "--failure", "1.5"]) == EXIT_PARSE
        _assert_one_error_line(capsys)

    def test_trace_writes_event_dump(self, tmp_path):
        trace = tmp_path / "events.tsv"
        code = main(
            ["trace", "--qos", "delay", "--nodes", "12", "--seed", "0", "--trace", str(trace)]
        )
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines
        assert all(len(line.split("\t")) == 6 for line in lines)


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "means.csv").exists()
        assert (out / "fig4.tsv").exists()
        assert (out / "fig5.tsv").exists()
        assert not (out / "fig6.tsv").exists()  # no failure cells swept

    def test_sweep_is_byte_identical_across_runs(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(TINY_SWEEP)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("failures=1.5\n")
        assert main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(TINY_SWEEP)
        out = tmp_path / "out"
        monkeypatch.setenv("QWSN_SEED", "5")
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[3] == "5"

    def test_malformed_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QWSN_SEED", "a,b")
        assert _sweep_tiny(tmp_path) == EXIT_PARSE
        _assert_one_error_line(capsys)

    def test_negative_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QWSN_SEED", "-1")
        assert _sweep_tiny(tmp_path) == EXIT_PARSE
        _assert_one_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_unconnectable_only_sweep_exits_3(self, tmp_path, monkeypatch):
        import qwsn.cli as cli
        from qwsn.harness import MetricsTable
        from qwsn.protocol import QosClass

        empty = MetricsTable(skipped=[(QosClass.NORMAL, 12, 0.0, 0)])
        monkeypatch.setattr(cli, "run_sweep", lambda scenario: empty)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(TINY_SWEEP)
        code = main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == EXIT_UNCONNECTABLE


@pytest.mark.parametrize(
    "command, line",
    [
        ("sweep", "service_time=nan"),
        ("sweep", "short_range=nan"),
        ("sweep", "e_init=nan"),
        ("sweep", "e_init=inf"),
        ("sweep", "e_threshold=nan"),
        ("sweep", "eps_amp=-1"),
        ("sweep", "e_elec=inf"),
        ("sweep", "copies=0"),
        ("sweep", "ttl=-1"),
        ("compare-pegasis", "bs_x=nan"),
        ("compare-pegasis", "compare_side=0"),
        ("compare-pegasis", "compare_range=10"),  # below short_range
        ("compare-pegasis", "compare_e_init=nan"),
    ],
)
def test_bad_scenario_value_exits_2(tmp_path, capsys, command, line):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(TINY_SWEEP + line + "\n")
    out = tmp_path / "o"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_PARSE
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("compare_n=1", "compare_n"),
        ("compare_side=0", "compare_side"),
        ("compare_range=10", "compare_range"),
        ("compare_e_init=nan", "compare_e_init"),
    ],
)
def test_compare_block_error_names_the_scenario_key(tmp_path, capsys, line, key):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(TINY_SWEEP + line + "\n")
    argv = ["compare-pegasis", "--scenario", str(scenario), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PARSE
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "{tmp}/missing.txt", "--out", "{tmp}/o"],
        ["sweep", "--scenario", "{tmp}", "--out", "{tmp}/o"],
        ["sweep", "--scenario", "{scenario}", "--out", "{scenario}"],
        ["run", "--nodes", "12", "--out", "{tmp}/missing/x.csv"],
        ["trace", "--nodes", "12", "--trace", "{tmp}/missing/t.tsv"],
    ],
    ids=["missing-scenario", "scenario-is-dir", "out-is-file", "run-out", "trace"],
)
def test_unusable_path_exits_2(tmp_path, capsys, argv):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(TINY_SWEEP)
    argv = [a.format(tmp=tmp_path, scenario=scenario) for a in argv]
    assert main(argv) == EXIT_PARSE
    _assert_one_error_line(capsys)


class TestComparePegasis:
    def test_comparison_outputs(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "compare_n=24\ncompare_side=30\ncompare_e_init=0.01\n"
            "compare_fractions=0.0,0.2\nseeds=1\n"
        )
        out = tmp_path / "cmp"
        code = main(["compare-pegasis", "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_OK
        table = (out / "pegasis_comparison.csv").read_text().splitlines()
        assert len(table) == 3
        fig8 = (out / "fig8.tsv").read_text().splitlines()
        assert fig8[0] == "failure_fraction\tcase4\tpegasis"
        assert len(fig8) == 3
