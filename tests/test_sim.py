"""Event engine: topology, flood, energy, acks, failures, reply delivery."""

import copy
import math
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qwsn.sim
from oracles import (
    bfs_hops,
    reference_distances,
    reference_flood,
    reference_pct_observe,
)
from qwsn.harness import parse_scenario, sim_config
from qwsn.protocol import HOP_INF, FloodAction, QosClass
from qwsn.routing import (
    Rationale,
    _pct_blocks,
    next_hop_delay_reliable_intermediate,
    next_hop_reliable,
)
from qwsn.sim import (
    SINK,
    NodeState,
    SimConfig,
    Simulation,
    Topology,
    TopologyUnconnectable,
    build_topology,
    fit_bootstrap,
    flood_state,
    format_trace,
    rx_energy,
    simulate_query_round,
    tx_energy,
)

E_ELEC, EPS_AMP, BITS = 50e-9, 100e-12, 1000


def line_config(**kw):
    defaults = dict(n=3, side=25.0, short_range=15.0, long_range=30.0, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


def line_topology():
    return Topology(np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]))


class TestConfig:
    def test_range_order_enforced(self):
        with pytest.raises(ValueError):
            SimConfig(short_range=30.0, long_range=15.0)

    def test_failure_fraction_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(failure_fraction=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize(
        "name",
        [
            "side",
            "short_range",
            "long_range",
            "e_init",
            "e_threshold",
            "e_elec",
            "eps_amp",
            "service_time",
            "ack_timeout",
            "failure_fraction",
        ],
    )
    def test_float_fields_reject_non_finite_and_negative(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value})

    def test_default_ttl_is_four_n(self):
        assert SimConfig(n=50).effective_ttl == 200
        assert SimConfig(n=50, ttl=7).effective_ttl == 7


class TestEnergyModel:
    def test_zero_distance_is_electronics_only(self):
        assert tx_energy(BITS, 0.0, E_ELEC, EPS_AMP) == E_ELEC * BITS

    def test_doubling_distance_quadruples_amplifier_term(self):
        amp = lambda d: tx_energy(BITS, d, E_ELEC, EPS_AMP) - E_ELEC * BITS  # noqa: E731
        assert amp(16.0) == 4.0 * amp(8.0)

    def test_rx_is_distance_free(self):
        assert rx_energy(BITS, E_ELEC) == E_ELEC * BITS

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            tx_energy(0, 1.0, E_ELEC, EPS_AMP)
        with pytest.raises(ValueError):
            tx_energy(BITS, -1.0, E_ELEC, EPS_AMP)


class TestTopology:
    def test_seeded_positions_reproducible(self):
        cfg = line_config(n=50, side=70.0, seed=11)
        a, b = build_topology(cfg), build_topology(cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_two_nodes_in_tiny_area_are_adjacent(self):
        cfg = SimConfig(n=2, side=1.0, seed=0)
        topo = build_topology(cfg)
        assert topo.neighbors(0, 15.0) == (1,)
        assert topo.neighbors(1, 15.0) == (0,)

    def test_adjacency_symmetric_at_both_ranges(self):
        topo = build_topology(line_config(n=40, side=60.0, seed=3))
        for r in (15.0, 30.0):
            for i in range(topo.n):
                for j in range(topo.n):
                    if i == j:
                        continue
                    expected = topo.distance(i, j) <= r
                    assert (j in topo.neighbors(i, r)) == expected
                    assert (i in topo.neighbors(j, r)) == expected

    def test_rows_list_every_node_in_range_ascending(self):
        # isolated nodes first, in the middle and last leave empty rows
        positions = [[0.0, 0.0], [5.0, 0.0], [9.0, 3.0], [50.0, 50.0], [7.0, -2.0]]
        topo = Topology(np.array([[-40.0, -40.0], *positions, [90.0, 90.0]]))
        for r in (0.0, 6.0, 15.0, 200.0):
            for i in range(topo.n):
                expected = tuple(
                    j for j in range(topo.n) if j != i and topo.distance(i, j) <= r
                )
                assert topo.neighbors(i, r) == expected

    def test_unconnectable_raises_after_rejections(self):
        with pytest.raises(TopologyUnconnectable):
            build_topology(SimConfig(n=2, side=5000.0, seed=0))


class TestBfs:
    def test_line_graph(self):
        assert bfs_hops(line_topology(), 0, 15.0) == [0, 1, 2]

    def test_unreachable_is_sentinel(self):
        topo = Topology(np.array([[0.0, 0.0], [100.0, 0.0]]))
        assert bfs_hops(topo, 0, 15.0) == [0, HOP_INF]

    def test_dead_mask_respected(self):
        assert bfs_hops(line_topology(), 0, 15.0, alive=[True, False, True]) == [
            0,
            HOP_INF,
            HOP_INF,
        ]


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def shipped_sweep_configs():
    """One config per placement the two shipped sweeps draw (a cell's failure
    fraction does not enter its placement)."""
    configs = {}
    for name in ("energy_latency.txt", "reliability.txt"):
        scenario = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
        for n in scenario.sizes:
            for seed in scenario.seeds:
                config = sim_config(scenario, n, 0.0, seed)
                configs[config.n, config.side, config.short_range, seed] = config
    return list(configs.values())


def recorded_draws(monkeypatch, config):
    """``build_topology(config)`` and every placement it drew, in order."""
    draws = []

    class Recording(Topology):
        def __init__(self, positions):
            super().__init__(positions)
            draws.append(self)

    monkeypatch.setattr(qwsn.sim, "Topology", Recording)
    return build_topology(config), draws


def reference_attempt(config):
    """The first attempt whose placement ``bfs_hops`` reaches in full, by the
    placement rule written out: substream ``[seed, 11, attempt]``, uniform
    over the square."""
    for attempt in range(100):
        rng = np.random.default_rng([config.seed, 11, attempt])
        topology = Topology(rng.uniform(0.0, config.side, size=(config.n, 2)))
        if HOP_INF not in bfs_hops(topology, SINK, config.short_range):
            return attempt, topology.positions


@st.composite
def placements(draw):
    """2-160 points with coordinates up to 1e6 in magnitude, either sign, and
    some points copied onto others."""
    n = draw(st.integers(min_value=2, max_value=160))
    coordinate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    positions = draw(arrays(np.float64, (n, 2), elements=coordinate))
    index = st.integers(min_value=0, max_value=n - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=n)):
        positions[dst] = positions[src]
    return positions


@st.composite
def grid_placements(draw):
    """Points on an integer grid, so distances often equal the range exactly,
    with some nodes shifted far away to split the graph."""
    n = draw(st.integers(min_value=2, max_value=30))
    coordinate = st.integers(min_value=0, max_value=20)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    shifted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(
        [[x + 100.0 * far, y] for (x, y), far in zip(points, shifted)], dtype=float
    )


def bfs_connected(topology, range_m):
    return HOP_INF not in bfs_hops(topology, SINK, range_m)


class TestPlacement:
    """A draw's distance matrix, its connectivity verdict and the kept attempt
    against the oracles."""

    @given(positions=placements())
    @settings(max_examples=60, deadline=None)
    def test_distances_bitwise_equal_reference(self, positions):
        assert np.array_equal(Topology(positions)._dist, reference_distances(positions))

    def test_shipped_sweep_draws(self, monkeypatch):
        """Every draw of both shipped sweeps: bitwise distances, the verdict
        of ``bfs_hops``, no neighbour table for a rejected draw, and the same
        kept attempt as the reference loop."""
        rejected = 0
        for config in shipped_sweep_configs():
            kept, draws = recorded_draws(monkeypatch, config)
            assert draws[-1] is kept
            for topology in draws:
                assert np.array_equal(
                    topology._dist, reference_distances(topology.positions)
                )
            for topology in draws[:-1]:
                assert topology._neighbors == {}
                assert not bfs_connected(topology, config.short_range)
            assert bfs_connected(kept, config.short_range)
            attempt, positions = reference_attempt(config)
            assert len(draws) - 1 == attempt
            assert np.array_equal(kept.positions, positions)
            rejected += attempt
        # 165 draws for the 50 placements, as the README states
        assert rejected == 115

    @given(positions=grid_placements(), range_m=st.sampled_from([0.0, 3.0, 5.0, 15.0]))
    @settings(max_examples=100, deadline=None)
    def test_verdict_matches_bfs_on_grid_placements(self, positions, range_m):
        topology = Topology(positions)
        assert topology.connected(range_m) == bfs_connected(topology, range_m)

    @pytest.mark.parametrize(
        "positions, connected",
        [
            # the last node is isolated
            ([[0, 0], [10, 0], [20, 0], [60, 60]], False),
            # two clusters, every node with a neighbour, none across
            ([[0, 0], [10, 0], [0, 10], [50, 0], [60, 0], [50, 10]], False),
            # exactly the range apart: 9^2 + 12^2 = 15^2
            ([[0, 0], [9, 12]], True),
            ([[0, 0], [9, 12.000001]], False),
            # a chain whose middle link is exactly the range
            ([[0, 0], [10, 0], [25, 0], [30, 0]], True),
            ([[0, 0], [0, 0]], True),
        ],
    )
    def test_verdict_on_named_cases(self, positions, connected):
        topology = Topology(np.array(positions, dtype=float))
        assert topology.connected(15.0) is connected
        assert bfs_connected(topology, 15.0) is connected


class TestFlood:
    def test_line_flood_hand_trace(self):
        # one broadcast from the sink plus one per node that learns a hop
        sim = Simulation(line_config(), QosClass.NORMAL, topology=line_topology())
        sim.run_flood()
        assert [n.fit.self_hop for n in sim.nodes] == [0, 1, 2]
        assert sim.flood_broadcasts == 3
        # the middle node knows both ends, the sink learned its neighbour
        assert set(sim.nodes[1].fit.entries) == {0, 2}
        assert set(sim.nodes[0].fit.entries) == {1}

    @pytest.mark.parametrize("seed", range(3))
    def test_flood_matches_bfs_oracle(self, seed):
        cfg = line_config(n=50, side=70.0, seed=seed)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood()
        assert [n.fit.self_hop for n in sim.nodes] == bfs_hops(
            sim.topology, SINK, cfg.short_range
        )
        # converged tables are internally consistent with their entries
        for node in sim.nodes:
            if node.fit.entries:
                closest = min(e.hop for e in node.fit.entries.values())
                assert node.fit.self_hop <= closest + 1

    def test_flood_at_long_range_for_delay_classes(self):
        cfg = line_config(n=40, side=60.0, seed=5)
        sim = Simulation(cfg, QosClass.DELAY)
        sim.run_flood()
        assert [n.fit.self_hop for n in sim.nodes] == bfs_hops(
            sim.topology, SINK, cfg.long_range
        )

    def test_dead_node_neither_learns_nor_relays(self):
        sim = Simulation(line_config(), QosClass.NORMAL, topology=line_topology())
        sim.nodes[1].alive = False
        sim.run_flood()
        assert sim.nodes[1].fit.entries == {}
        assert sim.nodes[1].fit.self_hop == HOP_INF
        assert sim.nodes[2].fit.self_hop == HOP_INF  # cut off behind the dead relay

    def test_sink_is_externally_powered(self):
        cfg = line_config(n=20, side=25.0, seed=2, e_init=2e-4)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood()
        assert sim.nodes[SINK].energy == cfg.e_init
        assert sim.nodes[SINK].alive

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_flood_equals_bfs_on_arbitrary_seeds(self, seed):
        cfg = line_config(n=30, side=50.0, seed=seed)
        try:
            sim = Simulation(cfg, QosClass.NORMAL)
        except TopologyUnconnectable:
            return
        sim.run_flood()
        assert [n.fit.self_hop for n in sim.nodes] == bfs_hops(
            sim.topology, SINK, cfg.short_range
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_every_node_broadcasts_exactly_once(self, seed):
        # bounded rebroadcast with a uniform per-hop delay: improvements
        # arrive in wavefront order, so the flood costs one broadcast per node
        cfg = line_config(n=50, side=70.0, seed=seed)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood()
        assert sim.flood_broadcasts == cfg.n

    @pytest.mark.parametrize("qos", [QosClass.NORMAL, QosClass.DELAY])
    @pytest.mark.parametrize("seed", range(4))
    def test_broadcast_reaches_alive_neighbours_as_one_ascending_block(
        self, seed, qos
    ):
        cfg = line_config(n=50, side=70.0, seed=seed)
        sim = Simulation(cfg, qos, collect_trace=True)
        rng = np.random.default_rng(seed)
        for node_id in rng.choice(np.arange(1, cfg.n), size=8, replace=False):
            sim.nodes[int(node_id)].alive = False
        alive = [node.alive for node in sim.nodes]
        sim.run_flood()
        trace = sim._trace_lines
        assert not any(line[1] == "node_died" for line in trace)
        # consecutive flood_rx lines with one (time, sender) form one block
        blocks: list[tuple[float, int, list[int]]] = []
        previous = None
        for time, kind, src, dst, _, _ in trace:
            if kind == "flood_rx":
                if previous != (time, src):
                    blocks.append((time, src, []))
                blocks[-1][2].append(dst)
            previous = (time, src) if kind == "flood_rx" else None
        expected = []
        for time, kind, src, _, _, _ in trace:
            if kind != "broadcast":
                continue
            receivers = [
                n for n in sim.topology.neighbors(src, sim.active_range) if alive[n]
            ]
            if receivers:
                expected.append((time + cfg.service_time, src, receivers))
        # one block per broadcast (a sender's radio is busy between two)
        by_sender = lambda b: (b[1], b[0])  # noqa: E731
        assert sorted(blocks, key=by_sender) == sorted(expected, key=by_sender)

    @pytest.mark.parametrize("qos", [QosClass.DELAY, QosClass.DELAY_RELIABLE])
    @pytest.mark.parametrize("seed", range(3))
    def test_replies_leave_every_fit_row_unchanged(self, seed, qos):
        cfg = line_config(n=50, side=70.0, seed=seed, failure_fraction=0.2)
        sim = Simulation(cfg, qos)
        sim.run_flood()
        receiver = sim.nodes[1]
        # receivers of one broadcast store the same row for its sender
        assert any(
            other.fit.entries.get(nbr) is row
            for nbr, row in receiver.fit.entries.items()
            for other in sim.nodes
            if other is not receiver
        )
        # values, not the row objects, so an in-place change would show
        before = [
            {n: astuple(e) for n, e in node.fit.entries.items()} for node in sim.nodes
        ]
        sim.inject_failures()
        sim.deliver_replies()
        for node, rows in zip(sim.nodes, before):
            assert {n: astuple(e) for n, e in node.fit.entries.items()} == rows


def diamond_topology():
    """Sink 0 and source 3 with two equal-hop relays 1 and 2 between them."""
    positions = np.array([[0.0, 0.0], [10.0, 5.0], [10.0, -5.0], [20.0, 0.0]])
    return Topology(positions)


def pocket_simulation():
    """A flooded reliable-class run on a 15-node map with a pocket and a
    severed cluster.

    Row y=0: sink(0) D(1) P(2) A(3) S(4), 12 m apart.  A detour leaves A
    upward through B(5) C(6) and returns along y=24 via E(7) F(8) G(9) and
    down through H(10) to the sink; B is one hop farther from the sink than
    A.  Below: X(11) links the sink to a cluster T(12) K(13) L(14).  D and X
    fail after the flood, so pocket P's only alive neighbour is A, which
    every copy of S passes on its way in, and T is severed from the sink.
    """
    positions = np.array(
        [
            [0.0, 0.0], [12.0, 0.0], [24.0, 0.0], [36.0, 0.0], [48.0, 0.0],
            [36.0, 12.0], [36.0, 24.0], [24.0, 24.0], [12.0, 24.0],
            [0.0, 24.0], [0.0, 12.0],
            [0.0, -12.0], [0.0, -24.0], [12.0, -24.0], [24.0, -24.0],
        ]
    )
    cfg = SimConfig(n=len(positions), side=50.0, seed=0)
    sim = Simulation(cfg, QosClass.RELIABLE, topology=Topology(positions))
    sim.run_flood()
    assert [sim.nodes[i].fit.self_hop for i in (3, 5)] == [3, 4]
    for dead in (1, 11):
        sim.nodes[dead].alive = False
    return sim


class TestWaitRanking:
    def test_delay_decision_follows_queue_changes_between_decisions(self):
        cfg = line_config(n=4, short_range=10.0, long_range=15.0)
        sim = Simulation(cfg, QosClass.DELAY, topology=diamond_topology())
        sim.run_flood()
        source = sim.nodes[3]
        assert {n: e.hop for n, e in source.fit.entries.items()} == {1: 1, 2: 1}
        copy = sim._new_copy(3, 0, 0, None, None)
        picks = []
        for queued in ((0, 0), (2, 0), (2, 3), (0, 1)):
            for relay, jobs in zip((1, 2), queued):
                sim.nodes[relay].tx_queue.clear()
                sim.nodes[relay].tx_queue.extend([None] * jobs)
            picks.append(sim._route(source, copy).next_hop)
        # equal waits resolve to the least id
        assert picks == [1, 2, 1, 1]


def flood_outcome(sim):
    """Everything a flood leaves on a run, tables in their dict order."""
    nodes = [
        (n.energy, n.alive, n.fit.self_hop, list(n.fit.entries.items()))
        for n in sim.nodes
    ]
    return nodes, sim.now, sim.dissipated, sim.flood_broadcasts, sim._trace_lines


class TestFloodMatchesEventReference:
    """The breadth-first pass leaves what the discrete-event flood of
    :func:`oracles.reference_flood` leaves, deaths in the flood included."""

    def test_random_small_networks(self):
        rng = np.random.default_rng(26)
        rx = rx_energy(BITS, E_ELEC)
        seen = Counter()
        for seed in range(200):
            n = int(rng.integers(2, 26))
            side = float(rng.uniform(10.0, 60.0))
            # exact multiples of the reception cost leave batteries at exactly 0
            e_init = float(rng.choice([rx, 2 * rx, np.exp(rng.uniform(-10, -6))]))
            service_time = float(rng.choice([0.0, 0.001, 0.004]))
            cfg = SimConfig(
                n=n, side=side, seed=seed, e_init=e_init, service_time=service_time
            )
            qos = list(QosClass)[seed % 4]
            topology = Topology(rng.uniform(0.0, side, size=(n, 2)))
            killed = rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False)
            if seed % 10 == 0:
                killed = np.append(killed[killed != SINK], SINK)
            sims = []
            for _ in range(2):
                sim = Simulation(cfg, qos, topology=topology, collect_trace=True)
                for node_id in killed.tolist():
                    sim.nodes[node_id].alive = False
                sims.append(sim)
            reference_flood(sims[0])
            sims[1].run_flood()
            assert flood_outcome(sims[1]) == flood_outcome(sims[0]), seed
            died = sum(line[1] == "node_died" for line in sims[1]._trace_lines)
            seen["flood_deaths"] += died
            seen["dead_sink"] += not sims[1].nodes[SINK].alive
            seen["instant"] += died > 0 and service_time == 0.0
            # a node that learned a hop queued a broadcast before it died
            seen["died_queued"] += any(
                not node.alive and 0 < node.fit.self_hop < HOP_INF
                for node in sims[1].nodes
            )
        assert seen["flood_deaths"] > 0 and seen["instant"] > 0
        assert seen["dead_sink"] > 0 and seen["died_queued"] > 0

    def test_a_battery_run_out_mid_wave_keeps_reception_order(self):
        """Relays 1 and 2 broadcast in one wave.  Node 3 hears both, and
        node 4, which cannot afford its reception, hears 1 between them.  So
        node 3 settles first, but one of its charges comes after node 4's
        partial charge, and ``dissipated`` must add them in that order."""
        positions = [[0.0, 0.0], [12.0, 8.0], [12.0, -8.0], [16.0, 0.0], [12.0, 20.0]]
        topology = Topology(np.array(positions))
        assert [topology.neighbors(i, 15.0) for i in (1, 2)] == [(0, 3, 4), (0, 3)]
        cfg = SimConfig(n=5, side=25.0)
        sims = []
        for _ in range(2):
            sim = Simulation(
                cfg, QosClass.NORMAL, topology=topology, collect_trace=True
            )
            # below the reception cost, and the two orders round apart
            sim.nodes[4].energy = 3e-5
            sims.append(sim)
        reference_flood(sims[0])
        sim = sims[1]
        sim.run_flood()
        assert flood_outcome(sim) == flood_outcome(sims[0])
        second_wave = [
            line[1:4]
            for line in sim._trace_lines
            if line[0] == 2 * cfg.service_time and line[1] != "broadcast"
        ]
        assert second_wave == [
            ("flood_rx", 1, 0), ("flood_rx", 1, 3), ("node_died", 4, -1),
            ("flood_rx", 2, 0), ("flood_rx", 2, 3),
        ]
        rx = rx_energy(BITS, E_ELEC)
        tx = tx_energy(BITS, cfg.short_range, E_ELEC, EPS_AMP)

        def total(second_wave_charges):
            """The flood's charges added one at a time: the relays' receptions
            and broadcasts, the second wave's receptions as given, then node
            3's broadcast and the relays' receptions of it."""
            dissipated = 0.0
            for charge in [rx, rx, tx, tx, *second_wave_charges, tx, rx, rx]:
                dissipated += charge
            return dissipated

        assert sim.dissipated == total([rx, 3e-5, rx])
        assert sim.dissipated != total([rx, rx, 3e-5])  # node 3's charges first


class TestUnicastWithAck:
    """The plain reliable class acknowledges every link transmission."""

    def test_alive_receiver_delivers_with_one_hop_delay(self):
        cfg = line_config()
        sim = Simulation(cfg, QosClass.RELIABLE, topology=line_topology())
        sim.run_flood()
        copy = sim.deliver_replies([1])[0]
        assert copy.delivered
        assert copy.path == [1, 0]
        assert copy.latency == pytest.approx(cfg.service_time, rel=1e-12)

    def test_dead_receiver_times_out_after_exactly_ack_timeout(self):
        cfg = line_config(copies=1)
        sim = Simulation(
            cfg, QosClass.RELIABLE, topology=line_topology(), collect_trace=True
        )
        sim.run_flood()
        sim.nodes[1].alive = False
        start = sim.now
        (copy,) = sim.deliver_replies([2])
        assert not copy.delivered
        assert copy.failures_seen == 1
        # the lost relay was node 2's only neighbour
        assert copy.drop_reason == "no_route"
        timeouts = [t for t in sim._trace_lines if t[1] == "ack_timeout"]
        assert len(timeouts) == 1
        # data transmission completes one service time after dispatch
        assert timeouts[0][0] == pytest.approx(
            start + cfg.service_time + cfg.ack_timeout, rel=1e-12
        )

    @pytest.mark.parametrize("case", range(4))
    def test_timeout_removes_neighbor_from_fit(self, case):
        # a line 0-1-...-5: the reply from 5 must pass every relay, and the
        # relay next to the dead one is the sender that times out
        cfg = line_config(n=6, side=50.0)
        positions = np.array([[10.0 * i, 0.0] for i in range(cfg.n)])
        topology = Topology(positions)
        sim = Simulation(cfg, QosClass.RELIABLE, topology=topology, collect_trace=True)
        sim.run_flood()
        victim = case + 1
        sender = victim + 1
        sim.nodes[victim].alive = False
        assert victim in sim.nodes[sender].fit.entries
        sim.deliver_replies([cfg.n - 1])
        assert victim not in sim.nodes[sender].fit.entries
        assert (sender, victim) in {
            (t[2], t[3]) for t in sim._trace_lines if t[1] == "ack_timeout"
        }


class TestOverhearing:
    def test_only_alive_neighbours_record_an_overheard_reply(self):
        # 0 sink; 1 and 3 one hop out; 2 and 4 two hops out; 3 neighbours all
        positions = np.array(
            [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [10.0, 10.0], [20.0, 10.0]]
        )
        cfg = line_config(n=5, side=20.0)
        topology = Topology(positions)
        sim = Simulation(cfg, QosClass.RELIABLE, topology=topology, collect_trace=True)
        sim.run_flood()
        relay = sim.nodes[3]
        # too little charge to receive a reply: relay 3 dies on its first one
        relay.energy = rx_energy(cfg.packet_bits, cfg.e_elec) / 2
        sim.deliver_replies([4])
        assert not relay.alive
        assert ("node_died", 3) in {(t[1], t[2]) for t in sim._trace_lines}
        # while alive it overheard node 4's first copy
        assert _pct_blocks(sim.pct, 3, 4, 4)
        mark = len(sim._trace_lines)
        sim.deliver_replies([2])
        senders = {t[2] for t in sim._trace_lines[mark:] if t[1] == "unicast"}
        assert senders
        # each sent reply is one row, which every alive neighbour reads
        assert sim.pct.heard == {(sender, 2) for sender in senders}
        for sender in senders:
            for nbr in topology.neighbors(sender, cfg.short_range):
                if sim.nodes[nbr].alive:
                    assert _pct_blocks(sim.pct, nbr, sender, 2), (sender, nbr)
        # the dead relay neither sends nor picks, so no row of this round
        # names it
        assert 3 not in senders
        assert all(node != 3 for node, _, _ in sim.pct.own)


def check_pct_writes(sim):
    """Check every PCT write of the reliable classes' own decisions.

    A routing decision must add exactly the deciding node's row for the
    committed pick, and a dispatch exactly the source's row for each first
    hop; neither writes an overheard row.  Returns the rationales of the
    checked decisions.
    """
    rationales = []
    route, dispatch = sim._route, sim._dispatch_source

    def check(call, rows):
        own, heard = set(sim.pct.own), set(sim.pct.heard)
        result = call()
        assert sim.pct.own == own | rows(result)
        assert sim.pct.heard == heard
        return result

    def checked_route(node, copy):
        def picks(decision):
            return {(node.id, decision.next_hop, copy.src)} if decision else set()

        decision = check(lambda: route(node, copy), picks)
        if decision is not None:
            rationales.append(decision.rationale)
        return decision

    def checked_dispatch(src_id):
        def firsts(copies):
            return {
                (src_id, c.forced_next, src_id)
                for c in copies
                if c.forced_next is not None
            }

        return check(lambda: dispatch(src_id), firsts)

    sim._route = checked_route
    sim._dispatch_source = checked_dispatch
    return rationales


class TestPctWrites:
    """The engine records each reliable-class pick as the picking node's row."""

    def test_stage_one_and_tarry_steps_record_their_pick(self):
        sim = pocket_simulation()
        rationales = check_pct_writes(sim)
        sim.deliver_replies([4, 12])
        assert {
            Rationale.PRIMARY_RELIABLE,
            Rationale.FALLBACK,
            Rationale.BACKTRACK,
        } <= set(rationales)

    def test_hybrid_fallback_records_its_pick(self):
        # the third copy finds both sink-ward relays already on its path
        cfg = line_config(n=4, short_range=10.0, long_range=15.0)
        sim = Simulation(cfg, QosClass.DELAY_RELIABLE, topology=diamond_topology())
        sim.run_flood()
        rationales = check_pct_writes(sim)
        batch = sim.deliver_replies([3])
        assert all(c.delivered for c in batch)
        assert {Rationale.MIN_WAIT, Rationale.FALLBACK} <= set(rationales)

    @pytest.mark.parametrize("qos", [QosClass.RELIABLE, QosClass.DELAY_RELIABLE])
    def test_dispatch_records_every_first_hop(self, qos):
        cfg = line_config(n=4, short_range=12.0, long_range=15.0)
        sim = Simulation(cfg, qos, topology=diamond_topology())
        sim.run_flood()
        check_pct_writes(sim)
        copies = sim.deliver_replies([3])
        assert {c.path[1] for c in copies} == {1, 2}
        assert {(3, 1, 3), (3, 2, 3)} <= sim.pct.own


def ring_simulation(n):
    """A flooded hybrid-class run on ``n`` nodes in a ring of radius 10 m,
    where each node hears only its two ring neighbours, so node k sits
    ``min(k, n - k)`` hops from the sink."""
    angles = np.arange(n) * (2 * np.pi / n)
    positions = 10.0 + 10.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    cfg = line_config(n=n, side=20.0, short_range=5.0, long_range=10.0)
    sim = Simulation(cfg, QosClass.DELAY_RELIABLE, topology=Topology(positions))
    sim.run_flood()
    assert [node.fit.self_hop for node in sim.nodes] == [
        min(k, n - k) for k in range(n)
    ]
    return sim


class TestHybridFallback:
    """The hybrid's stages past the disjointness wall, on rings."""

    def test_backward_escape_from_a_first_hop_farther_than_the_source(self):
        # source 2's shortlist is its two neighbours, so copy 1 is sent to
        # 3, one hop farther from the sink; there the only other row is 4,
        # farther still, and the escape to it leads round to the sink
        sim = ring_simulation(8)
        rationales = check_pct_writes(sim)
        batch = sim.deliver_replies([2])
        assert [c.path for c in batch] == [
            [2, 1, SINK],
            [2, 3, 4, 5, 6, 7, SINK],
            [2, 1, SINK],
        ]
        assert all(c.delivered for c in batch)
        assert batch[1].fallback_used
        assert Rationale.FALLBACK in rationales

    def test_no_edge_is_reused_once_every_other_edge_is_used(self):
        # the walk never makes this state itself.  Node 3 of seven has 2
        # one hop closer to the sink and 4 level with it: a copy from 4
        # that has already used the edge to 2 has no route left
        sim = ring_simulation(7)
        node = sim.nodes[3]
        copy = sim._new_copy(2, 0, 0, None, sim.now)
        copy.prev_hop = 4
        copy.forwarded[3] = {2}
        assert sim._route(node, copy) is None
        # nor may a copy from 2 use the edge to 4 again
        copy.prev_hop = 2
        copy.forwarded[3] = {4}
        assert sim._route(node, copy) is None


def shadow_pcts(sim, monkeypatch):
    """Run the eager PCT rule, scoped to the reply round, beside ``sim``.

    The shadow keeps one table per node and empties them all when a
    ``deliver_replies`` call starts.  Through ``oracles.reference_pct_observe``
    it writes each reply into the table of every neighbour of its sender
    that is alive when the transmission ends, each dispatch's first hops
    into the source's table and each committed pick into the picking node's
    table.
    At every read of a PCT-checked selector by node ``v``, the engine's
    ``_pct_blocks`` must answer, for each candidate in ``v``'s FIT, what
    ``v``'s shadow table holds.  Returns a list of the checked reads and a
    list of the candidates found blocked.
    """
    shadow = [()] * sim.config.n
    reads, blocked = [], []

    def record(node_id, forwarder, src):
        shadow[node_id] = reference_pct_observe(shadow[node_id], forwarder, src)

    deliver = sim.deliver_replies
    tx_end, dispatch, route = sim._on_tx_end, sim._dispatch_source, sim._route

    def shadow_deliver(sources=None):
        shadow[:] = [()] * sim.config.n
        return deliver(sources)

    def shadow_tx_end(sender_id, data):
        # the sender's own queue service, which the handler runs first,
        # changes no other node's life, and the sender hears itself in no table
        copy = data[1]
        for nbr in sim.topology.neighbors(sender_id, sim.active_range):
            if sim.nodes[nbr].alive:
                record(nbr, sender_id, copy.src)
        tx_end(sender_id, data)

    def shadow_dispatch(src_id):
        copies = dispatch(src_id)
        for first in {c.forced_next for c in copies if c.forced_next is not None}:
            record(src_id, first, src_id)
        return copies

    def shadow_route(node, copy):
        decision = route(node, copy)
        if decision is not None:
            record(node.id, decision.next_hop, copy.src)
        return decision

    def checked(select):
        def wrapper(fit, pct, src, *args, **kwargs):
            v = fit.self_id
            for n in sim.nodes[v].fit.entries:
                expected = (n, src) in shadow[v]
                assert _pct_blocks(pct, v, n, src) is expected, (v, n, src)
                if expected:
                    blocked.append((v, n, src))
            reads.append(v)
            return select(fit, pct, src, *args, **kwargs)

        return wrapper

    sim.deliver_replies = shadow_deliver
    sim._on_tx_end = shadow_tx_end
    sim._dispatch_source = shadow_dispatch
    sim._route = shadow_route
    monkeypatch.setattr(qwsn.sim, "next_hop_reliable", checked(next_hop_reliable))
    monkeypatch.setattr(
        qwsn.sim,
        "next_hop_delay_reliable_intermediate",
        checked(next_hop_delay_reliable_intermediate),
    )
    return reads, blocked


def star_relay_simulation():
    """A flooded reliable-class run where source 4's only neighbour is relay
    1, which hears the sink and two other one-hop relays, 2 and 3."""
    positions = np.array(
        [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [10.0, -10.0], [22.0, 0.0]]
    )
    cfg = line_config(n=5)
    sim = Simulation(cfg, QosClass.RELIABLE, topology=Topology(positions))
    sim.run_flood()
    assert [sim.nodes[i].fit.self_hop for i in range(5)] == [0, 1, 1, 1, 2]
    return sim


class TestPctRound:
    """Path construction rows live for one reply round."""

    def test_later_copies_of_a_round_avoid_the_relays_earlier_picks(self):
        sim = star_relay_simulation()
        batch = sim.deliver_replies([4])
        assert [c.path for c in batch] == [
            [4, 1, SINK],
            [4, 1, 2, SINK],
            [4, 1, 3, SINK],
        ]
        assert not any(c.fallback_used for c in batch)

    def test_a_relay_takes_the_sink_again_next_round(self):
        # a row from the first round must not block the sink in the second
        sim = star_relay_simulation()
        first = sim.deliver_replies([4])
        second = sim.deliver_replies([4])
        assert second[0].path == [4, 1, SINK]
        assert [c.path for c in second] == [c.path for c in first]
        assert not any(c.fallback_used for c in second)

    def test_single_hop_rounds_with_deaths(self, monkeypatch):
        # every node hears every reply; small batteries kill nodes while
        # their neighbours keep sending
        cfg = SimConfig(
            n=100,
            side=50.0,
            long_range=110.0,
            e_init=0.008,
            failure_fraction=0.2,
            seed=1,
        )
        sim = Simulation(cfg, QosClass.DELAY_RELIABLE)
        sim.run_flood()
        reads, blocked = shadow_pcts(sim, monkeypatch)
        sim.inject_failures()
        alive = {node.id for node in sim.nodes if node.alive}
        for round_index in range(60):
            sim.run_reply_round(round_index)
        died = alive - {node.id for node in sim.nodes if node.alive}
        assert died, "no node died during the replies"
        assert reads
        assert blocked


class TestPctReplay:
    """Every PCT-checked read blocks what eager recording, scoped to the
    reply round, would block, whether the sources answer one query or the
    same sources answer a second one."""

    @pytest.mark.parametrize("again", [False, True])
    @pytest.mark.parametrize("qos", [QosClass.RELIABLE, QosClass.DELAY_RELIABLE])
    def test_tables_match_eager_recording(self, qos, again, monkeypatch):
        reads, blocked = 0, 0
        for n in (50, 100):
            for failure in (0.0, 0.2):
                for seed in range(4):
                    cfg = SimConfig(n=n, seed=seed, failure_fraction=failure)
                    sim = Simulation(cfg, qos)
                    sim.run_flood()
                    checked, found = shadow_pcts(sim, monkeypatch)
                    sim.inject_failures()
                    sim.deliver_replies()
                    if again:
                        # rows of the first round must not block in the
                        # second
                        sim.deliver_replies()
                    reads += len(checked)
                    blocked += len(found)
        assert reads > 100
        assert blocked > 0


class TestWaitingTime:
    """The selectors estimate a node's waiting time by its ``queue_len``."""

    def _node(self):
        return NodeState(id=1, energy=1.0, fit=fit_bootstrap(1))

    def test_empty_queue_is_zero(self):
        assert self._node().queue_len == 0

    def test_counts_queued_and_transmitting_jobs(self):
        node = self._node()
        node.tx_queue.extend(range(5))
        assert node.queue_len == 5
        node.transmitting = True
        assert node.queue_len == 6

    def test_enqueue_strictly_increases(self):
        node = self._node()
        before = node.queue_len
        node.tx_queue.append(object())
        assert node.queue_len > before


class TestInjectFailures:
    def test_zero_fraction_is_noop(self):
        sim = Simulation(line_config(n=50, side=70.0, seed=0), QosClass.NORMAL)
        sim.run_flood()
        assert sim.inject_failures() == ()
        assert all(n.alive for n in sim.nodes)

    def test_count_is_floor_and_exemptions_hold(self):
        cfg = line_config(n=50, side=70.0, seed=1, failure_fraction=0.10)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood()
        failed = sim.inject_failures()
        assert len(failed) == 4  # floor(0.10 * 49)
        assert SINK not in failed
        assert not set(failed) & set(sim.sources)

    def test_seeded_draw_is_reproducible(self):
        cfg = line_config(n=50, side=70.0, seed=5, failure_fraction=0.2)
        sims = []
        for _ in range(2):
            s = Simulation(cfg, QosClass.NORMAL)
            s.run_flood()
            sims.append(s.inject_failures())
        assert sims[0] == sims[1]

    def test_failure_set_identical_across_classes(self):
        cfg = line_config(n=50, side=70.0, seed=7, failure_fraction=0.2)
        sets = []
        for qos in QosClass:
            s = Simulation(cfg, qos)
            s.run_flood()
            sets.append(s.inject_failures())
        assert len(set(sets)) == 1


class TestDeliverReplies:
    def test_line_normal_each_copy_two_hop_latency(self):
        cfg = line_config()
        sim = Simulation(cfg, QosClass.NORMAL, topology=line_topology())
        sim.run_flood()
        batch = sim.deliver_replies([2])
        assert [c.delivered for c in batch] == [True, True, True]
        for c in batch:
            assert c.latency == pytest.approx(2 * cfg.service_time, rel=1e-9)
            assert c.path == [2, 1, 0]

    def test_reliable_survives_failed_primary_via_alternate(self):
        # square: sink(0), two relays(1, 2), source(3); relay 1 dies
        positions = np.array([[0.0, 0.0], [11.0, 0.0], [0.0, 11.0], [11.0, 11.0]])
        topo = Topology(positions)
        cfg = SimConfig(n=4, side=12.0, seed=0)
        sim = Simulation(cfg, QosClass.RELIABLE, topology=topo)
        sim.run_flood()
        sim.nodes[1].alive = False
        batch = sim.deliver_replies([3])
        delivered = [c for c in batch if c.delivered]
        assert len(delivered) >= 1
        assert any(c.repairs >= 1 for c in batch)
        for c in delivered:
            assert 1 not in c.path[1:]

    def test_reliable_backtracks_out_of_pocket_and_exhausts_severed_source(self):
        sim = pocket_simulation()
        batch = sim.deliver_replies([4, 12])
        pocket = [c for c in batch if c.src == 4]
        severed = [c for c in batch if c.src == 12]
        assert all(c.delivered for c in pocket)
        for c in pocket:
            # into the pocket and back out the way the copy came
            assert c.path[:5] == [4, 3, 2, 3, 5]
            assert 3 in c.backtracks
        assert not any(c.delivered for c in severed)
        assert {c.drop_reason for c in severed} == {"no_route"}
        # the walk used every alive edge of T's component before giving up
        assert any(c.path == [12, 13, 14, 13, 12] for c in severed)

    def test_zero_ttl_drops_but_counts_as_sent(self):
        cfg = line_config(ttl=0)
        sim = Simulation(cfg, QosClass.NORMAL, topology=line_topology())
        sim.run_flood()
        batch = sim.deliver_replies([2])
        m = sim.metrics()
        assert m.replies_sent == 3
        assert m.replies_delivered == 0
        assert all(c.drop_reason == "ttl_expired" for c in batch)

    @pytest.mark.parametrize("qos", [QosClass.RELIABLE, QosClass.DELAY_RELIABLE])
    def test_multipath_first_hops_pairwise_distinct(self, qos):
        # no failures: realized first hops equal the dispatched path set
        cfg = line_config(n=50, side=70.0, seed=4)
        sim = Simulation(cfg, qos)
        sim.run_flood()
        fits = {s: sim.nodes[s].fit for s in sim.sources}
        batch = sim.deliver_replies()
        expected_paths = 3 if qos is QosClass.RELIABLE else 2
        for src in sim.sources:
            firsts = {}
            for c in batch:
                if c.src == src and len(c.path) > 1:
                    firsts.setdefault(c.path_id, set()).add(c.path[1])
            # each path id maps to exactly one first hop
            assert all(len(v) == 1 for v in firsts.values())
            distinct = {next(iter(v)) for v in firsts.values()}
            paths_available = min(expected_paths, len(fits[src].entries))
            assert len(distinct) == min(paths_available, len(firsts))


class TestSimulateQueryRound:
    def test_deterministic_for_fixed_inputs(self):
        cfg = line_config(n=40, side=60.0, seed=9, failure_fraction=0.1)
        a = simulate_query_round(cfg, QosClass.RELIABLE, collect_trace=True)
        b = simulate_query_round(cfg, QosClass.RELIABLE, collect_trace=True)
        assert a == b

    def test_average_energy_is_total_over_received(self):
        m = simulate_query_round(line_config(n=40, side=60.0, seed=2), QosClass.NORMAL)
        assert m.avg_dissipated_energy == pytest.approx(
            m.total_energy_dissipated / m.replies_delivered
        )

    def test_three_sources_three_copies(self):
        m = simulate_query_round(line_config(n=40, side=60.0, seed=2), QosClass.NORMAL)
        assert m.replies_sent == 9
        assert len(m.sources) == 3

    @pytest.mark.parametrize("qos", list(QosClass))
    def test_energy_conservation(self, qos):
        cfg = line_config(n=40, side=60.0, seed=4, failure_fraction=0.1)
        m = simulate_query_round(cfg, qos)
        assert cfg.n * cfg.e_init - m.energy_residual == pytest.approx(
            m.total_energy_dissipated, rel=1e-9, abs=1e-15
        )

    @pytest.mark.parametrize("qos", list(QosClass))
    def test_reply_conservation(self, qos):
        cfg = line_config(n=40, side=60.0, seed=6, failure_fraction=0.2)
        m = simulate_query_round(cfg, qos)
        drops = sum(1 for c in m.copies if not c.delivered)
        assert m.replies_delivered + drops == m.replies_sent
        assert all((c.drop_reason is None) == c.delivered for c in m.copies)

    @pytest.mark.parametrize(
        "qos,range_attr",
        [
            (QosClass.NORMAL, "short_range"),
            (QosClass.RELIABLE, "short_range"),
            (QosClass.DELAY, "long_range"),
            (QosClass.DELAY_RELIABLE, "long_range"),
        ],
    )
    def test_range_discipline(self, qos, range_attr):
        cfg = line_config(n=40, side=60.0, seed=8)
        m = simulate_query_round(cfg, qos)
        topo = build_topology(cfg)
        limit = getattr(cfg, range_attr)
        for c in m.copies:
            for a, b in zip(c.path, c.path[1:]):
                assert topo.distance(a, b) <= limit + 1e-9

    def test_dead_nodes_never_relay(self):
        cfg = line_config(n=50, side=70.0, seed=3, failure_fraction=0.2)
        for qos in QosClass:
            m = simulate_query_round(cfg, qos)
            for c in m.copies:
                assert not set(c.path) & set(m.failed_nodes)

    def test_latency_positive_and_counted_only_for_delivered(self):
        cfg = line_config(n=40, side=60.0, seed=2)
        m = simulate_query_round(cfg, QosClass.DELAY)
        assert len(m.latencies) == m.replies_delivered
        assert all(lat > 0 for lat in m.latencies)

    def test_minimal_two_node_network(self):
        cfg = SimConfig(n=2, side=1.0, seed=0)
        m = simulate_query_round(cfg, QosClass.NORMAL)
        assert m.sources == (1,)
        assert m.replies_sent == 3
        assert m.replies_delivered == 3

    def test_unconnectable_propagates(self):
        with pytest.raises(TopologyUnconnectable):
            simulate_query_round(SimConfig(n=2, side=5000.0, seed=0), QosClass.NORMAL)


class TestDispatchThreshold:
    def test_reliable_sends_nothing_below_the_energy_threshold(self):
        """A known limit: one flood per run makes every FIT row advertise
        ``e_init``, so with ``e_init < e_threshold`` the reliable class finds
        no first hop and loses connected sources; the hybrid has no
        threshold."""
        cfg = SimConfig(n=50, side=70.0, seed=0, e_init=0.005)
        assert cfg.e_init < cfg.e_threshold
        reliable = simulate_query_round(cfg, QosClass.RELIABLE)
        hops = bfs_hops(build_topology(cfg), SINK, cfg.short_range)
        assert all(hops[src] < HOP_INF for src in reliable.sources)
        assert len(reliable.copies) == 9
        assert all(c.drop_reason == "no_route" for c in reliable.copies)
        hybrid = simulate_query_round(cfg, QosClass.DELAY_RELIABLE)
        assert hybrid.replies_delivered == 9


def check_flood_waves(sim):
    """Each node broadcasts at most once, in the wave of its hop count: the
    hop-h wave goes h service times after the query starts.  Returns the
    number of broadcasts."""
    (start,) = [line[0] for line in sim._trace_lines if line[1] == "query_start"]
    waves = [start]
    senders = set()
    for time, kind, src, _, _, detail in sim._trace_lines:
        if kind != "broadcast":
            continue
        assert src not in senders
        senders.add(src)
        hop = sim.nodes[src].fit.self_hop
        assert detail.startswith(f"hop={hop} ")
        while len(waves) <= hop:
            waves.append(waves[-1] + sim.config.service_time)
        assert time == waves[hop]
    assert len(senders) == sim.flood_broadcasts
    return len(senders)


def check_engine_invariants(sim, seen):
    """Check, on ``sim``, the fact the engine's unguarded reply paths rest
    on: no reply copy that reaches a transmit, a dead node's queue flush or
    an acknowledgement timeout is finished.  ``seen`` counts the checked
    events by kind.
    """
    transmit, flush, timeout = (
        sim._transmit_reply, sim._flush_dead_queue, sim._on_ack_timeout
    )

    def checked_transmit(node, copy):
        assert not copy.done
        seen["transmits"] += 1
        return transmit(node, copy)

    def checked_flush(node):
        assert not any(c.done for c in node.tx_queue)
        seen["flushed"] += len(node.tx_queue)
        flush(node)

    def checked_timeout(sender_id, data):
        assert not data[1].done
        seen["dead_sender_timeouts"] += not sim.nodes[sender_id].alive
        timeout(sender_id, data)

    sim._transmit_reply = checked_transmit
    sim._flush_dead_queue = checked_flush
    sim._on_ack_timeout = checked_timeout


class TestEngineInvariants:
    """The flood sends each node's broadcast at most once, in its hop's wave,
    and a reply copy is finished only once it has left every queue, flight
    and acknowledgement wait, on small random networks with small
    batteries.  A transmission is one heap entry, and queue wake-ups keep
    each source's copies together."""

    def test_flood_waves_and_unfinished_copies(self):
        seen = Counter()
        rng = np.random.default_rng(25)
        for seed in range(30):
            n = int(rng.integers(5, 31))
            cfg = SimConfig(
                n=n,
                side=10.0 * math.sqrt(n),
                seed=seed,
                e_init=float(rng.choice([2e-4, 5e-4, 1e-3, 3e-3])),
                e_threshold=float(rng.choice([0.0, 1e-4, 3e-4])),
                failure_fraction=float(rng.uniform(0.0, 0.5)),
            )
            for qos in QosClass:
                try:
                    sim = Simulation(cfg, qos, collect_trace=True)
                except TopologyUnconnectable:
                    continue
                check_engine_invariants(sim, seen)
                sim.run_flood()
                seen["broadcasts"] += check_flood_waves(sim)
                seen["recorded"] += sum(
                    line[1] == "flood_rx" and line[5] == FloodAction.RECORDED.value
                    for line in sim._trace_lines
                )
                seen["flood_deaths"] += sim.dead_count
                sim.inject_failures()
                sim.deliver_replies()
        # several rounds of the plain reliable class on shared batteries
        cfg = SimConfig(
            n=30, side=55.0, seed=3, e_init=3e-3, e_threshold=1e-4, failure_fraction=0.2
        )
        sim = Simulation(cfg, QosClass.RELIABLE, collect_trace=True)
        check_engine_invariants(sim, seen)
        sim.run_flood()
        check_flood_waves(sim)
        sim.inject_failures()
        for round_index in range(20):
            sim.run_reply_round(round_index)
        assert sim.dead_count > len(sim.failed_nodes)
        # the deleted branches' situations all occurred
        assert seen["recorded"] > 0
        assert seen["flushed"] > 0
        assert seen["dead_sender_timeouts"] > 0
        assert seen["broadcasts"] > 0 and seen["transmits"] > 0
        assert seen["flood_deaths"] > 0

    def test_one_heap_entry_per_transmission(self, monkeypatch):
        """A transmission pushes one entry, at its end, and the trace-only
        acknowledgement arrival is pushed only when a trace is kept: once
        per ``ack_arrive`` line."""
        pushes = Counter()
        push = qwsn.sim.heappush

        def counted(heap, entry):
            pushes[entry[2].__name__] += 1
            push(heap, entry)

        monkeypatch.setattr(qwsn.sim, "heappush", counted)
        totals = Counter()
        for qos in QosClass:
            for seed in range(3):
                cfg = SimConfig(
                    n=40, side=60.0, seed=seed, e_init=2e-3, e_threshold=1e-4,
                    failure_fraction=0.2,
                )
                lines = Counter()
                for traced in (True, False):
                    pushes.clear()
                    sim = Simulation(cfg, qos, collect_trace=traced)
                    sim.run_flood()
                    sim.inject_failures()
                    for round_index in range(5):
                        sim.run_reply_round(round_index)
                    if traced:
                        lines = Counter(line[1] for line in sim._trace_lines)
                        assert pushes["_on_ack_arrive"] == lines["ack_arrive"]
                    else:
                        assert pushes["_on_ack_arrive"] == 0
                    assert pushes["_on_tx_end"] == lines["unicast"]
                totals.update(lines)
        assert totals["unicast"] > 0 and totals["ack_arrive"] > 0
        assert totals["unicast_lost"] > 0 and totals["node_died"] > 0

    def test_spare_wake_ups_keep_each_sources_drops_together(self):
        """With no hop budget every copy ends ``ttl_expired`` as it reaches
        the radio, and each source's copies end one after another: the
        wake-ups ``_enqueue_tx`` pushes per queued copy serve a queue in its
        own turn, where one wake-up per node would interleave the sources."""
        cfg = SimConfig(n=50, side=70.0, seed=0, ttl=0)
        for qos in QosClass:
            m = simulate_query_round(cfg, qos, collect_trace=True)
            dropped = [line[2] for line in m.trace if line[1] == "dropped"]
            assert dropped == [src for src in m.sources for _ in range(cfg.copies)]
            assert {c.drop_reason for c in m.copies} == {"ttl_expired"}


class TestFloodState:
    def test_restored_tables_are_the_runs_own(self):
        """Runs restored from one flood share its tables and leave them as
        they were, with ack timeouts and battery deaths on the way."""
        cfg = line_config(n=40, side=60.0, seed=5, e_init=1e-3, e_threshold=2e-5)
        topology = build_topology(cfg)
        copied = died = 0
        for pair in (
            (QosClass.NORMAL, QosClass.RELIABLE),
            (QosClass.DELAY, QosClass.DELAY_RELIABLE),
        ):
            state = flood_state(cfg, pair[0], topology)
            pristine = copy.deepcopy(state)
            for qos in pair:
                for fraction in (0.0, 0.3):
                    run_cfg = replace(cfg, failure_fraction=fraction)
                    sim = Simulation(run_cfg, qos, topology=topology, flood=state)
                    with pytest.raises(RuntimeError):
                        sim.run_flood()
                    sim.inject_failures()
                    sim.deliver_replies()
                    for node, saved in zip(sim.nodes, state.nodes):
                        # a table is shared until an ack timeout copies it
                        copied += node.fit is not saved.fit
                        died += node.energy == 0.0 and saved.energy > 0.0
                    assert sim.metrics() == simulate_query_round(run_cfg, qos, topology)
            assert state == pristine
        assert copied > 0
        assert died > 0
        flooded = Simulation(cfg, QosClass.NORMAL, topology=topology)
        flooded.run_flood()
        with pytest.raises(RuntimeError):
            flooded.run_flood()

    def test_state_of_another_range_is_refused(self):
        cfg = line_config(n=40, side=60.0, seed=5)
        topology = build_topology(cfg)
        state = flood_state(cfg, QosClass.NORMAL, topology)
        with pytest.raises(ValueError):
            Simulation(cfg, QosClass.DELAY, topology=topology, flood=state)


class TestTrace:
    def test_format_is_tab_separated_six_fields(self):
        m = simulate_query_round(
            line_config(n=10, side=15.0, seed=1), QosClass.NORMAL, collect_trace=True
        )
        text = format_trace(m.trace)
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            float(fields[0])  # leading timestamp parses

    def test_trace_is_deterministic(self):
        cfg = line_config(n=20, side=30.0, seed=4)
        a = simulate_query_round(cfg, QosClass.RELIABLE, collect_trace=True)
        b = simulate_query_round(cfg, QosClass.RELIABLE, collect_trace=True)
        assert format_trace(a.trace) == format_trace(b.trace)
