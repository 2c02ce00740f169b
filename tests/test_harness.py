"""Scenario parsing, sweep mechanics and output emission."""

import csv
import io
import math
from dataclasses import fields

import pytest

import qwsn.harness as harness
from qwsn.harness import (
    CSV_HEADER,
    MetricsTable,
    ParseError,
    RangeError,
    ScenarioConfig,
    compare_config,
    derive_side,
    emit_csv,
    emit_means_csv,
    emit_series,
    parse_scenario,
    run_sweep,
    sim_config,
)
from qwsn.protocol import QosClass
from qwsn.sim import (
    SimConfig,
    TopologyUnconnectable,
    build_topology,
    flood_state,
    simulate_query_round,
)


class TestParseScenario:
    def test_minimal_file_applies_defaults(self):
        scn = parse_scenario("sizes=50\n")
        assert scn.sizes == (50,)
        assert scn.qos == (
            QosClass.NORMAL,
            QosClass.RELIABLE,
            QosClass.DELAY,
            QosClass.DELAY_RELIABLE,
        )
        assert scn.failures == (0.0,)
        assert scn.seeds == tuple(range(10))

    def test_full_size_sweep(self):
        scn = parse_scenario("sizes=50,75,100,125,150\n")
        assert scn.sizes == (50, 75, 100, 125, 150)

    def test_failure_out_of_range(self):
        with pytest.raises(RangeError):
            parse_scenario("failures=1.5\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("sizes=50\nbogus=1\n")
        assert err.value.line == 2

    def test_bad_syntax_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("sizes=50\njust words\n")
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("sizes=50\nsizes=75\n")

    def test_comments_and_blanks_ignored(self):
        scn = parse_scenario("# header\n\nsizes=50  # inline\n")
        assert scn.sizes == (50,)

    def test_qos_list(self):
        scn = parse_scenario("qos=delay,normal\n")
        assert scn.qos == (QosClass.DELAY, QosClass.NORMAL)

    def test_bad_qos_name(self):
        with pytest.raises(ParseError):
            parse_scenario("qos=quick\n")

    def test_ttl_auto_and_explicit(self):
        assert parse_scenario("ttl=auto\n").run.ttl is None
        assert parse_scenario("ttl=33\n").run.ttl == 33

    def test_failure_alias(self):
        assert parse_scenario("failure=0.1,0.2\n").failures == (0.1, 0.2)

    def test_range_order_cross_check(self):
        with pytest.raises(RangeError):
            parse_scenario("short_range=40\n")

    def test_range_order_checked_on_the_finished_config(self):
        scn = parse_scenario("long_range=10\nshort_range=5\n")
        assert (scn.run.short_range, scn.run.long_range) == (5.0, 10.0)

    def test_sizes_below_two_rejected(self):
        with pytest.raises(RangeError):
            parse_scenario("sizes=1\n")


class TestDeriveSide:
    def test_baseline(self):
        assert derive_side(50) == pytest.approx(70.0)

    def test_four_times_nodes_doubles_side(self):
        assert derive_side(200) == pytest.approx(140.0)

    def test_density_constant_across_sweep(self):
        base = 50 / 70.0**2
        for n in (50, 75, 100, 125, 150, 200):
            density = n / derive_side(n) ** 2
            assert abs(density - base) / base < 1e-9


def tiny_scenario(**kw):
    scn = ScenarioConfig(
        sizes=(12,), qos=(QosClass.NORMAL,), failures=(0.0,), seeds=(0, 1, 2)
    )
    for key, value in kw.items():
        setattr(scn, key, value)
    return scn


class TestRunSweep:
    def test_row_and_mean_counts(self):
        table = run_sweep(tiny_scenario())
        assert len(table.rows) == 3
        assert len(table.means) == 1
        assert not table.skipped

    def test_rows_deterministic(self):
        assert run_sweep(tiny_scenario()) == run_sweep(tiny_scenario())

    def test_means_match_recomputed_average(self):
        table = run_sweep(tiny_scenario())
        mean = table.means[0]
        for attr in (
            "avg_dissipated_energy_j",
            "avg_latency_s",
            "delivery_probability",
        ):
            recomputed = sum(getattr(r, attr) for r in table.rows) / len(table.rows)
            assert getattr(mean, attr) == pytest.approx(recomputed, rel=1e-12)

    def test_classes_share_placement_sources_and_failures(self):
        scn = tiny_scenario(
            sizes=(20,),
            qos=tuple(QosClass),
            failures=(0.2,),
            seeds=(0, 1),
        )
        table = run_sweep(scn, keep_runs=True)
        for n in scn.sizes:
            for seed in scn.seeds:
                runs = [
                    table.runs[(qos, n, 0.2, seed)] for qos in scn.qos
                ]
                assert len({r.sources for r in runs}) == 1
                assert len({r.failed_nodes for r in runs}) == 1

    def test_unconnectable_cells_are_skipped_not_fatal(self, monkeypatch):
        original = harness.build_topology

        def flaky(config):
            if config.seed == 1:
                raise TopologyUnconnectable("forced for test")
            return original(config)

        monkeypatch.setattr(harness, "build_topology", flaky)
        table = run_sweep(tiny_scenario())
        assert len(table.rows) == 2
        assert table.skipped == [(QosClass.NORMAL, 12, 0.0, 1)]


class TestSharedFlood:
    @pytest.mark.parametrize("e_init", [0.5, 5e-4], ids=["battery", "dies-in-flood"])
    def test_sweep_cells_match_their_own_flood(self, e_init):
        """Each sweep cell starts from its topology's flood at its range; it
        must give what the same cell gives flooding on its own."""
        scn = ScenarioConfig(
            failures=(0.0, 0.2), seeds=(0, 1, 2, 3), run=SimConfig(e_init=e_init)
        )
        config = sim_config(scn, 50, 0.0, 0)
        flood = flood_state(config, QosClass.NORMAL, build_topology(config))
        died = sum(not node.alive for node in flood.nodes)
        assert (died > 0) == (e_init < SimConfig().e_init)
        runs = run_sweep(scn, keep_runs=True).runs
        assert len(runs) == 32
        for (qos, n, fraction, seed), shared in runs.items():
            alone = simulate_query_round(sim_config(scn, n, fraction, seed), qos)
            # Dataclass equality compares every field: dissipation, hop
            # counts, residual energy and each copy's whole record, which the
            # reply counts and latencies are read from.
            assert shared == alone


class TestEmission:
    def test_csv_header_and_round_trip(self, tmp_path):
        table = run_sweep(tiny_scenario())
        path = tmp_path / "metrics.csv"
        emit_csv(table, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(table.rows)
        for got, want in zip(parsed, table.rows):
            assert QosClass(got["qos"]) is want.qos
            assert int(got["n"]) == want.n
            assert int(got["seed"]) == want.seed
            for attr in (
                "avg_dissipated_energy_j",
                "avg_latency_s",
                "delivery_probability",
            ):
                assert float(got[attr]) == pytest.approx(
                    getattr(want, attr), abs=5e-10
                )

    def test_emission_is_byte_stable(self, tmp_path):
        table = run_sweep(tiny_scenario())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, a)
        emit_csv(table, b)
        assert a.read_bytes() == b.read_bytes()

    def test_means_csv(self, tmp_path):
        table = run_sweep(tiny_scenario())
        path = tmp_path / "means.csv"
        emit_means_csv(table, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2

    def test_fig4_series_has_one_column_per_class(self, tmp_path):
        scn = tiny_scenario(sizes=(12, 16), qos=tuple(QosClass), seeds=(0,))
        table = run_sweep(scn)
        path = tmp_path / "fig4.tsv"
        emit_series(table, "fig4", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n\tnormal\treliable\tdelay\tdelay_reliable"
        assert len(lines) == 3  # header + one row per size
        assert lines[1].split("\t")[0] == "12"

    def test_fig6_requires_matching_fraction(self):
        table = run_sweep(tiny_scenario())
        with pytest.raises(ValueError):
            emit_series(table, "fig6", "unused.tsv")

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            emit_series(MetricsTable(), "fig9", "unused.tsv")

    def test_series_restricted_to_sizes_swept_at_fraction(self, tmp_path):
        scn = tiny_scenario(sizes=(12, 16), failures=(0.1,), seeds=(0,))
        table = run_sweep(scn)
        path = tmp_path / "fig6.tsv"
        emit_series(table, "fig6", path)
        rows = path.read_text().splitlines()[1:]
        assert [r.split("\t")[0] for r in rows] == ["12", "16"]


class TestSimConfigDerivation:
    def test_cell_config_uses_derived_side(self):
        scn = tiny_scenario()
        cfg = sim_config(scn, 50, 0.1, 7)
        assert cfg.side == pytest.approx(70.0)
        assert cfg.failure_fraction == 0.1
        assert cfg.seed == 7
        assert math.isclose(sim_config(scn, 200, 0, 0).side, 140.0)

    def test_compare_config_takes_the_compare_block(self):
        scn = parse_scenario(
            "e_threshold=0.02\ncopies=2\nsources=4\nttl=9\nservice_time=0.005\n"
            "failures=0.2\ncompare_n=40\ncompare_side=33\ncompare_range=90\n"
            "compare_e_init=0.07\n"
        )
        cfg = compare_config(scn, 5)
        assert (cfg.n, cfg.side, cfg.long_range, cfg.e_init) == (40, 33.0, 90.0, 0.07)
        assert cfg.failure_fraction == 0.0
        cell = sim_config(scn, 40, 0.0, 5)
        for f in fields(cfg):
            if f.name not in ("side", "long_range", "e_init"):
                assert getattr(cfg, f.name) == getattr(cell, f.name), f.name
