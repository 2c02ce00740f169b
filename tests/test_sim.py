"""Event engine: topology, flood, energy, acks, failures, reply delivery."""

import copy
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_pct_observe
from qwsn.protocol import HOP_INF, QosClass
from qwsn.routing import Pct, Rationale
from qwsn.sim import (
    SINK,
    NodeState,
    SimConfig,
    Simulation,
    Topology,
    TopologyUnconnectable,
    bfs_hops,
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


class TestFlood:
    def test_line_flood_hand_trace(self):
        # one broadcast from the sink plus one per node that learns a hop
        sim = Simulation(line_config(), QosClass.NORMAL, topology=line_topology())
        sim.run_flood(0)
        assert [n.fit.self_hop for n in sim.nodes] == [0, 1, 2]
        assert sim.flood_broadcasts == 3
        # the middle node knows both ends, the sink learned its neighbour
        assert set(sim.nodes[1].fit.entries) == {0, 2}
        assert set(sim.nodes[0].fit.entries) == {1}

    @pytest.mark.parametrize("seed", range(3))
    def test_flood_matches_bfs_oracle(self, seed):
        cfg = line_config(n=50, side=70.0, seed=seed)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood(0)
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
        sim.run_flood(0)
        assert [n.fit.self_hop for n in sim.nodes] == bfs_hops(
            sim.topology, SINK, cfg.long_range
        )

    def test_dead_node_neither_learns_nor_relays(self):
        sim = Simulation(line_config(), QosClass.NORMAL, topology=line_topology())
        sim.nodes[1].alive = False
        sim.run_flood(0)
        assert sim.nodes[1].fit.entries == {}
        assert sim.nodes[1].fit.self_hop == HOP_INF
        assert sim.nodes[2].fit.self_hop == HOP_INF  # cut off behind the dead relay

    def test_sink_is_externally_powered(self):
        cfg = line_config(n=20, side=25.0, seed=2, e_init=2e-4)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood(0)
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
        sim.run_flood(0)
        assert [n.fit.self_hop for n in sim.nodes] == bfs_hops(
            sim.topology, SINK, cfg.short_range
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_every_node_broadcasts_exactly_once(self, seed):
        # bounded rebroadcast with a uniform per-hop delay: improvements
        # arrive in wavefront order, so the flood costs one broadcast per node
        cfg = line_config(n=50, side=70.0, seed=seed)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood(0)
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
        sim.run_flood(0)
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
        sim.run_flood(0)
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
    sim.run_flood(0)
    assert [sim.nodes[i].fit.self_hop for i in (3, 5)] == [3, 4]
    for dead in (1, 11):
        sim.nodes[dead].alive = False
    return sim


class TestWaitRanking:
    def test_delay_decision_follows_queue_changes_between_decisions(self):
        cfg = line_config(n=4, short_range=10.0, long_range=15.0)
        sim = Simulation(cfg, QosClass.DELAY, topology=diamond_topology())
        sim.run_flood(0)
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


class TestUnicastWithAck:
    """The plain reliable class acknowledges every link transmission."""

    def test_alive_receiver_delivers_with_one_hop_delay(self):
        cfg = line_config()
        sim = Simulation(cfg, QosClass.RELIABLE, topology=line_topology())
        sim.run_flood(0)
        copy = sim.deliver_replies([1])[0]
        assert copy.delivered
        assert copy.path == [1, 0]
        assert copy.latency == pytest.approx(cfg.service_time, rel=1e-12)

    def test_dead_receiver_times_out_after_exactly_ack_timeout(self):
        cfg = line_config(copies=1)
        sim = Simulation(
            cfg, QosClass.RELIABLE, topology=line_topology(), collect_trace=True
        )
        sim.run_flood(0)
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
        sim.run_flood(0)
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
        sim.run_flood(0)
        relay = sim.nodes[3]
        # too little charge to receive a reply: relay 3 dies on its first one
        relay.energy = rx_energy(cfg.packet_bits, cfg.e_elec) / 2
        sim.deliver_replies([4])
        assert not relay.alive
        assert ("node_died", 3) in {(t[1], t[2]) for t in sim._trace_lines}
        # while alive it overheard node 4's first copy
        assert (4, 4, SINK) in relay.pct.rows
        mark = len(sim._trace_lines)
        sim.deliver_replies([2])
        senders = {t[2] for t in sim._trace_lines[mark:] if t[1] == "unicast"}
        assert senders
        for sender in senders:
            for nbr in topology.neighbors(sender, cfg.short_range):
                recorded = (sender, 2, SINK) in sim.nodes[nbr].pct.rows
                assert recorded is sim.nodes[nbr].alive, (sender, nbr)
        assert all(src != 2 for _, src, _ in relay.pct.rows)


def check_pct_writes(sim):
    """Check every PCT write of the reliable classes' own decisions.

    After a routing decision the deciding node's PCT must be the table it
    had before plus the committed pick, and after a dispatch the source's
    table must be the one it had plus each first hop, in path order.
    Returns the rationales of the checked decisions.
    """
    rationales = []
    route, dispatch = sim._route, sim._dispatch_source

    def recorded(rows, picks, src, capacity):
        for pick in picks:
            rows = reference_pct_observe(rows, pick, src, SINK, capacity)
        return rows

    def checked_route(node, copy):
        before = tuple(node.pct.rows)
        decision = route(node, copy)
        picks = [decision.next_hop] if decision is not None else []
        assert tuple(node.pct.rows) == recorded(
            before, picks, copy.src, node.pct.capacity
        )
        if decision is not None:
            rationales.append(decision.rationale)
        return decision

    def checked_dispatch(src_id):
        pct = sim.nodes[src_id].pct
        before = tuple(pct.rows)
        copies = dispatch(src_id)
        firsts = [c.forced_next for c in copies if c.forced_next is not None]
        assert tuple(pct.rows) == recorded(before, firsts, src_id, pct.capacity)
        return copies

    sim._route = checked_route
    sim._dispatch_source = checked_dispatch
    return rationales


class TestPctWrites:
    """The engine records each reliable-class pick in the picking node's PCT."""

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
        sim.run_flood(0)
        rationales = check_pct_writes(sim)
        batch = sim.deliver_replies([3])
        assert all(c.delivered for c in batch)
        assert {Rationale.MIN_WAIT, Rationale.FALLBACK} <= set(rationales)

    @pytest.mark.parametrize("qos", [QosClass.RELIABLE, QosClass.DELAY_RELIABLE])
    def test_dispatch_records_every_first_hop(self, qos):
        cfg = line_config(n=4, short_range=12.0, long_range=15.0)
        sim = Simulation(cfg, qos, topology=diamond_topology())
        sim.run_flood(0)
        check_pct_writes(sim)
        copies = sim.deliver_replies([3])
        assert {c.path[1] for c in copies} == {1, 2}
        assert {(1, 3, SINK), (2, 3, SINK)} <= set(sim.nodes[3].pct.rows)


class TestWaitingTime:
    """The selectors estimate a node's waiting time by its ``queue_len``."""

    def _node(self):
        return NodeState(id=1, energy=1.0, fit=fit_bootstrap(1), pct=Pct())

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
        sim.run_flood(0)
        assert sim.inject_failures() == ()
        assert all(n.alive for n in sim.nodes)

    def test_count_is_floor_and_exemptions_hold(self):
        cfg = line_config(n=50, side=70.0, seed=1, failure_fraction=0.10)
        sim = Simulation(cfg, QosClass.NORMAL)
        sim.run_flood(0)
        failed = sim.inject_failures()
        assert len(failed) == 4  # floor(0.10 * 49)
        assert SINK not in failed
        assert not set(failed) & set(sim.sources)

    def test_seeded_draw_is_reproducible(self):
        cfg = line_config(n=50, side=70.0, seed=5, failure_fraction=0.2)
        sims = []
        for _ in range(2):
            s = Simulation(cfg, QosClass.NORMAL)
            s.run_flood(0)
            sims.append(s.inject_failures())
        assert sims[0] == sims[1]

    def test_failure_set_identical_across_classes(self):
        cfg = line_config(n=50, side=70.0, seed=7, failure_fraction=0.2)
        sets = []
        for qos in QosClass:
            s = Simulation(cfg, qos)
            s.run_flood(0)
            sets.append(s.inject_failures())
        assert len(set(sets)) == 1


class TestDeliverReplies:
    def test_line_normal_each_copy_two_hop_latency(self):
        cfg = line_config()
        sim = Simulation(cfg, QosClass.NORMAL, topology=line_topology())
        sim.run_flood(0)
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
        sim.run_flood(0)
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
        sim.run_flood(0)
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
        sim.run_flood(0)
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


class TestFloodState:
    def test_restored_tables_are_the_runs_own(self):
        cfg = line_config(n=40, side=60.0, seed=5, failure_fraction=0.1)
        topology = build_topology(cfg)
        state = flood_state(cfg, QosClass.RELIABLE, topology)
        pristine = copy.deepcopy(state)
        mutated = Simulation(cfg, QosClass.RELIABLE, topology=topology, flood=state)
        for node in mutated.nodes:
            node.fit.entries.clear()
            node.fit.self_hop = HOP_INF
        assert state == pristine
        restored = simulate_query_round(cfg, QosClass.RELIABLE, topology, flood=state)
        assert restored == simulate_query_round(cfg, QosClass.RELIABLE, topology)

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
