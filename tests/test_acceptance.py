"""Acceptance suite: one test per exit criterion, one verdict line each.

Orderings are asserted on per-cell means over the shared ten-seed grids from
``conftest``; property audits run over every grid run.  Uniform failures at
these densities can sever a source from the sink in the 15 m graph (in one
draw the sink's only 15 m neighbour dies) while the 30 m graph keeps it
connected, and no short-range routing can cross such a cut.  The oracle for
that is breadth-first search over the alive graph at a class's own range.
Criterion 4 holds the reliable class to it exactly: a source is delivered iff
it is connected at 15 m.  Criterion 5 orders the classes by delivery over the
sources each class's own alive graph still connects, and by plain delivery
only on the links that never ask a 15 m class to beat a 30 m one.
"""

import statistics
import time
from functools import lru_cache

import pytest

from oracles import (
    check_delay_selector_equivalence,
    check_next_hop_normal_equivalence,
    check_pct_selector_equivalence,
    check_reliable_selector_equivalence,
)
from conftest import (
    ACCEPT_FAILURE_SIZES,
    ACCEPT_FRACTIONS,
    ACCEPT_SEEDS,
    ACCEPT_SIZES,
    _config,
)
from qwsn.harness import (
    QOS_ORDER,
    ScenarioConfig,
    emit_csv,
    run_sweep,
)
from qwsn.pegasis import compare_case4
from qwsn.protocol import HOP_INF, QosClass
from qwsn.sim import (
    SINK,
    SimConfig,
    Simulation,
    bfs_hops,
    build_topology,
)

N, R, D, DR = (
    QosClass.NORMAL,
    QosClass.RELIABLE,
    QosClass.DELAY,
    QosClass.DELAY_RELIABLE,
)


@lru_cache(maxsize=None)
def _topology(n, seed):
    return build_topology(_config(n, 0.0, seed))


def _connected_sources(metrics):
    """The run's sources connected to the sink in its alive graph at the
    class's radio range (30 m for the delay classes, else 15 m)."""
    config = metrics.config
    delay_class = metrics.qos in (D, DR)
    range_m = config.long_range if delay_class else config.short_range
    alive = [True] * config.n
    for failed in metrics.failed_nodes:
        alive[failed] = False
    hops = bfs_hops(_topology(config.n, config.seed), SINK, range_m, alive)
    return {src for src in metrics.sources if hops[src] < HOP_INF}


def _means(runs, metric, qos, n, fraction):
    values = [
        getattr(runs[(qos, n, fraction, seed)], metric) for seed in ACCEPT_SEEDS
    ]
    return statistics.mean(values)


def test_criterion_1_flood_equals_bfs_oracle():
    """Post-flood hop estimates equal breadth-first distances, fast."""
    for seed in ACCEPT_SEEDS:
        config = SimConfig(n=50, side=70.0, seed=seed)
        sim = Simulation(config, QosClass.NORMAL)
        started = time.perf_counter()
        sim.run_flood(0)
        elapsed = time.perf_counter() - started
        oracle = bfs_hops(sim.topology, SINK, config.short_range)
        assert [node.fit.self_hop for node in sim.nodes] == oracle
        assert elapsed < 1.0, f"flood took {elapsed:.3f}s on seed {seed}"
    print("ACCEPTANCE 1 PASS: flood equals BFS on 10 topologies, <1s each")


def test_criterion_2_energy_ordering(energy_latency_runs):
    """Mean dissipated energy strictly increases across service classes."""
    for n in ACCEPT_SIZES:
        means = {
            qos: _means(energy_latency_runs, "avg_dissipated_energy", qos, n, 0.0)
            for qos in QOS_ORDER
        }
        print(
            f"  energy n={n}: "
            + " ".join(f"{q.value}={means[q]:.6f}" for q in QOS_ORDER)
        )
        assert means[N] < means[R] < means[D] < means[DR], f"energy order at n={n}"
    print("ACCEPTANCE 2 PASS: mean energy ordered normal<reliable<delay<hybrid")


def test_criterion_3_latency_ordering(energy_latency_runs):
    """Mean latency: delay < hybrid < normal < reliable at every size."""
    for n in ACCEPT_SIZES:
        means = {
            qos: _means(energy_latency_runs, "avg_latency", qos, n, 0.0)
            for qos in QOS_ORDER
        }
        print(
            f"  latency n={n}: "
            + " ".join(f"{q.value}={means[q]:.6f}" for q in QOS_ORDER)
        )
        assert means[D] < means[DR] < means[N] < means[R], f"latency order at n={n}"
    print("ACCEPTANCE 3 PASS: mean latency ordered delay<hybrid<normal<reliable")


def test_criterion_4_reliable_class_delivery_guarantee(failure_runs):
    """Reliable class delivers a source iff the source is connected to the
    sink in the alive 15 m graph (breadth-first search is the oracle)."""
    delivered_total = severed_total = 0
    violating = []
    for n in ACCEPT_FAILURE_SIZES:
        for fraction in ACCEPT_FRACTIONS:
            for seed in ACCEPT_SEEDS:
                metrics = failure_runs[(R, n, fraction, seed)]
                connected = _connected_sources(metrics)
                delivered = {c.src for c in metrics.copies if c.delivered}
                delivered_total += len(delivered)
                severed_total += len(metrics.sources) - len(connected)
                for src in metrics.sources:
                    if (src in delivered) != (src in connected):
                        reasons = [
                            c.drop_reason for c in metrics.copies if c.src == src
                        ]
                        violating.append((n, fraction, seed, src, reasons))
    print(
        f"  {delivered_total} sources delivered, {severed_total} severed at 15 m; "
        f"violations: {violating}"
    )
    assert not violating
    print("ACCEPTANCE 4 PASS: reliable class delivers exactly the connected sources")


def test_criterion_5_reliability_ordering(failure_runs):
    """Delivery ordered C2 >= C4 >= C3 >= C1 per cell over connected sources.

    Each class is scored over the sources that its own alive graph (15 m for
    normal and reliable, 30 m for the delay classes) still connects to the
    sink, pooled over the cell's seeds.  Plain per-cell mean delivery must
    keep the links that never ask a 15 m class to beat a 30 m one:
    C4 >= C3 >= C1, and C2 >= C1 on the shared 15 m graph.
    """
    failures = []
    print("  per class: plain mean delivery/delivery over connected sources")
    for n in ACCEPT_FAILURE_SIZES:
        for fraction in ACCEPT_FRACTIONS:
            plain = {
                qos: _means(failure_runs, "delivery_probability", qos, n, fraction)
                for qos in QOS_ORDER
            }
            connected, severed = {}, {}
            for qos in QOS_ORDER:
                reached = delivered = total = 0
                for seed in ACCEPT_SEEDS:
                    metrics = failure_runs[(qos, n, fraction, seed)]
                    sources = _connected_sources(metrics)
                    got = {c.src for c in metrics.copies if c.delivered}
                    assert got <= sources, f"{qos.value} crossed a cut at n={n}"
                    reached += len(sources)
                    delivered += len(got)
                    total += len(metrics.sources)
                connected[qos] = delivered / reached
                severed[qos] = total - reached
            chain_ok = (
                connected[R] >= connected[DR] >= connected[D] >= connected[N]
                and plain[DR] >= plain[D] >= plain[N]
                and plain[R] >= plain[N]
            )
            print(
                f"  delivery n={n} f={fraction}: "
                + " ".join(
                    f"{q.value}={plain[q]:.3f}/{connected[q]:.3f}"
                    f" (severed {severed[q]})"
                    for q in (R, DR, D, N)
                )
                + f" {'ok' if chain_ok else 'VIOLATED'}"
            )
            if not chain_ok:
                failures.append((n, fraction, plain, connected))
    if failures:
        print("ACCEPTANCE 5 FAIL: reliability ordering violated in "
              f"{len(failures)} cell(s)")
    else:
        print("ACCEPTANCE 5 PASS: delivery ordering holds at every cell")
    assert not failures, (
        "delivery ordering violated in the cells marked above: C2 >= C4 >= C3 "
        ">= C1 must hold over the sources each class's own alive graph "
        "connects, and C4 >= C3 >= C1 and C2 >= C1 in plain delivery"
    )


def test_criterion_6_pegasis_comparison():
    """Hybrid-class lifetime at least matches the chain baseline."""
    config = SimConfig(
        n=100,
        side=50.0,
        short_range=15.0,
        long_range=110.0,
        seed=0,
        e_init=0.05,
    )
    rows = compare_case4(config, (0.0, 0.1, 0.2, 0.3), bs_position=(25.0, 150.0))
    for row in rows:
        print(
            f"  f={row.failure_fraction:g}: case4={row.lifetime_case4} "
            f"pegasis={row.lifetime_pegasis}"
        )
        assert row.lifetime_case4 >= row.lifetime_pegasis
    print("ACCEPTANCE 6 PASS: hybrid lifetime >= chain baseline at all fractions")


def test_criterion_7_sweep_determinism(tmp_path):
    """Identical scenarios produce byte-identical CSV output."""
    scenario = ScenarioConfig(
        sizes=(50,), qos=QOS_ORDER, failures=(0.0,), seeds=(0, 1)
    )
    payloads = []
    for name in ("first", "second"):
        table = run_sweep(scenario)
        path = tmp_path / f"{name}.csv"
        emit_csv(table, path)
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]
    print("ACCEPTANCE 7 PASS: sweep output byte-identical across runs")


def test_criterion_8_property_suites(energy_latency_runs, failure_runs):
    """Conservation, walk bounds, normal-class path length, selector
    equivalence."""
    every_run = list(energy_latency_runs.values()) + list(failure_runs.values())

    for metrics in every_run:
        # energy conservation: initial minus residual equals the charge sum
        config = metrics.config
        budget = config.n * config.e_init
        assert budget - metrics.energy_residual == pytest.approx(
            metrics.total_energy_dissipated, rel=1e-9, abs=1e-12
        )
        # walk bounds on every copy; no immediate ping-pong on any path except
        # a reliable-class backtrack, which returns to a node already visited
        for copy in metrics.copies:
            assert len(copy.path) - 1 <= config.effective_ttl
            if metrics.qos is not R:
                assert not copy.backtracks
            for i in copy.backtracks:
                assert copy.path[i] in copy.path[:i]
            for i, (a, b, c) in enumerate(zip(copy.path, copy.path[1:], copy.path[2:])):
                assert a != c or i + 2 in copy.backtracks, f"ping-pong {a}->{b}->{c}"

    # normal-class delivered copies that never fell back walk exactly the
    # source's converged hop count
    checked = 0
    for metrics in every_run:
        if metrics.qos is not N:
            continue
        for copy in metrics.copies:
            if copy.delivered and not copy.fallback_used:
                assert len(copy.path) - 1 == metrics.hop_counts[copy.src]
                checked += 1
    assert checked > 0
    print(f"  normal-class path-length check on {checked} delivered copies")

    # selector brute force against the independent step lists
    assert check_next_hop_normal_equivalence() > 10_000
    assert check_reliable_selector_equivalence() > 1_000
    assert check_delay_selector_equivalence() > 1_000
    assert check_pct_selector_equivalence() > 1_000
    print("ACCEPTANCE 8 PASS: conservation, walk bounds, path length, equivalence")
