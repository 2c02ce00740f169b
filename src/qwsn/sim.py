"""Deterministic discrete-event engine for the query/reply protocol.

One :class:`Simulation` owns one run: a seeded random topology, per-node
state (energy, tables, transmit queue), and a single event queue processed
in strict ``(time, insertion order)`` order.  A run executes four phases:

1. query flood at the class-appropriate radio range (or, in a sweep, a copy
   of the :class:`FloodState` one flood per topology and range left, since
   the flood reads neither the class nor the failure fraction),
2. optional failure injection (nodes marked dead after the flood),
3. reply dispatch from the chosen source nodes, routed per service class,
4. event drain, after which :meth:`Simulation.metrics` summarises the run.

Events: each heap entry is ``(time, insertion order, handler, node, data)``
and the drain calls ``handler(node, data)``.  A node's transmit queue holds
its jobs as they are: a query id to rebroadcast or the :class:`ReplyCopy` to
forward.

Timing model: every transmission (broadcast or unicast) occupies the
sender's radio for one service time, so per-hop latency is the sender's
queue wait plus the transmission delay.  A query broadcast is one event:
when it arrives it is delivered to the sender's alive neighbours in
ascending id order, each reception handled in full before the next.
Energy model: first-order radio,
``tx = e_elec*bits + eps_amp*bits*d^2`` and ``rx = e_elec*bits``; broadcasts
transmit at the active range's power while unicasts spend amplifier energy
for the actual link distance.  The sink is externally powered and is never
charged.

Everything is a pure function of ``(config, qos)``: random draws come from
named substreams of the config seed, and event ties resolve by insertion
order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .protocol import (
    HOP_INF,
    DataReqHeader,
    Fit,
    FitEntry,
    FloodAction,
    QosClass,
    advert_from_fit,
    apply_data_req,
    fit_bootstrap,
    prune_low_energy,
)
from .routing import (
    Pct,
    Rationale,
    RouteDecision,
    alternates_reliable,
    next_hop_delay,
    next_hop_delay_reliable_intermediate,
    next_hop_normal,
    next_hop_reliable,
    paths_delay_reliable,
    pct_observe,
    primary_reliable,
    remove_failed,
)

SINK = 0

# Named RNG substreams, so failure sets and source draws are identical
# across service classes for a given (seed, n, fraction).
_TOPO_STREAM = 11
_SOURCE_STREAM = 22
_FAILURE_STREAM = 33

_MAX_TOPOLOGY_ATTEMPTS = 100

_DELAY_CLASSES = (QosClass.DELAY, QosClass.DELAY_RELIABLE)
_RELIABLE_CLASSES = (QosClass.RELIABLE, QosClass.DELAY_RELIABLE)


class TopologyUnconnectable(RuntimeError):
    """No connected placement found within the rejection budget."""


@dataclass(frozen=True)
class SimConfig:
    """One run's parameters.  ``ttl=None`` selects the 4n walk bound."""

    n: int = 50
    side: float = 70.0
    short_range: float = 15.0
    long_range: float = 30.0
    seed: int = 0
    e_init: float = 0.5
    e_threshold: float = 0.01
    e_elec: float = 50e-9
    eps_amp: float = 100e-12
    packet_bits: int = 1000
    service_time: float = 0.004
    ack_timeout: float = 0.05
    copies: int = 3
    sources: int = 3
    failure_fraction: float = 0.0
    ttl: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and non-negative: {value}")
        if self.n < 2:
            raise ValueError(f"need at least two nodes, got n={self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative: {self.seed}")
        if self.side == 0:
            raise ValueError(f"side must be positive: {self.side}")
        if not (0 < self.short_range < self.long_range):
            raise ValueError(
                f"need 0 < short_range < long_range, got "
                f"{self.short_range} / {self.long_range}"
            )
        if self.failure_fraction >= 1.0:
            raise ValueError(
                f"failure_fraction must be below 1: {self.failure_fraction}"
            )
        for name in ("packet_bits", "copies", "sources"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive: {getattr(self, name)}")
        if self.ttl is not None and self.ttl < 0:
            raise ValueError(f"ttl must be non-negative: {self.ttl}")

    @property
    def effective_ttl(self) -> int:
        return self.ttl if self.ttl is not None else 4 * self.n


def active_range(config: SimConfig, qos: QosClass) -> float:
    """The radio range a class floods and forwards at: long for the delay
    classes, short for the others."""
    return config.long_range if qos in _DELAY_CLASSES else config.short_range


def seeded_draw(key: Sequence[int], pool: Sequence[int], k: int) -> tuple[int, ...]:
    """Up to ``k`` distinct members of ``pool``, sorted, drawn from the
    substream ``key``: the seed, a stream number and any further indices."""
    k = min(k, len(pool))
    if k == 0:
        return ()
    picks = np.random.default_rng(key).choice(len(pool), size=k, replace=False)
    return tuple(sorted(pool[i] for i in picks.tolist()))


def draw_failures(config: SimConfig, eligible: Sequence[int]) -> tuple[int, ...]:
    """The injected failures: ``floor(fraction * (n - 1))`` of ``eligible``.

    The draw does not depend on the service class, so every class and the
    chain baseline face the same failure set.
    """
    count = math.floor(config.failure_fraction * (config.n - 1))
    return seeded_draw([config.seed, _FAILURE_STREAM], eligible, count)


def tx_energy(bits: int, distance: float, e_elec: float, eps_amp: float) -> float:
    """Transmit cost: electronics plus distance-squared amplifier term."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return e_elec * bits + eps_amp * bits * distance * distance


def rx_energy(bits: int, e_elec: float) -> float:
    """Receive cost: electronics only, independent of distance."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    return e_elec * bits


class Topology:
    """Static node positions with unit-disk adjacency at any radio range."""

    def __init__(self, positions: np.ndarray) -> None:
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        self._dist = np.sqrt((diff**2).sum(axis=-1))
        self._neighbors: dict[float, list[tuple[int, ...]]] = {}

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def distance(self, a: int, b: int) -> float:
        return float(self._dist[a, b])

    def neighbors(self, node: int, range_m: float) -> tuple[int, ...]:
        """Nodes within ``range_m`` of ``node`` (excluding itself), ascending."""
        table = self._neighbors.get(range_m)
        if table is None:
            within = self._dist <= range_m
            np.fill_diagonal(within, False)
            table = [tuple(np.flatnonzero(row).tolist()) for row in within]
            self._neighbors[range_m] = table
        return table[node]


def bfs_hops(
    topology: Topology,
    sink: int,
    range_m: float,
    alive: Sequence[bool] | None = None,
) -> list[int]:
    """Exact breadth-first hop distances from the sink; HOP_INF if unreachable.

    Serves as the independent oracle the flood must reproduce.
    """
    hops = [HOP_INF] * topology.n
    if alive is not None and not alive[sink]:
        return hops
    hops[sink] = 0
    frontier = deque([sink])
    while frontier:
        node = frontier.popleft()
        for nbr in topology.neighbors(node, range_m):
            if alive is not None and not alive[nbr]:
                continue
            if hops[nbr] == HOP_INF:
                hops[nbr] = hops[node] + 1
                frontier.append(nbr)
    return hops


def build_topology(config: SimConfig) -> Topology:
    """Seeded uniform placement, redrawn until connected at the short range.

    Connectivity at the short range implies connectivity at the long range,
    so one placement serves all four service classes.  Each rejection draws
    from a fresh substream; after 100 rejections the configuration is deemed
    unconnectable.
    """
    for attempt in range(_MAX_TOPOLOGY_ATTEMPTS):
        rng = np.random.default_rng([config.seed, _TOPO_STREAM, attempt])
        positions = rng.uniform(0.0, config.side, size=(config.n, 2))
        topology = Topology(positions)
        if HOP_INF not in bfs_hops(topology, SINK, config.short_range):
            return topology
    raise TopologyUnconnectable(
        f"no connected placement in {_MAX_TOPOLOGY_ATTEMPTS} attempts "
        f"(n={config.n}, side={config.side}, range={config.short_range})"
    )


@dataclass
class ReplyCopy:
    """One DATA_REP copy: its header fields, runtime state and audit trail.

    Every copy answers the run's one query (id 0) and goes to the sink, so it
    stores neither.  ``copy_index`` numbers the source's copies, and
    ``path_id`` names the dispatch path the copy rides (0 = primary, 1/2 =
    alternates).  ``prev_hop`` is the node the copy last came from (``None``
    at the source), and ``ttl`` is the remaining hop budget, which strictly
    decreases at every successful handoff.

    ``forwarded`` maps a node id to the next hops that node has already used
    for this copy; the reliable classes never reuse such an edge, except for
    the hybrid's strictly sink-ward last resort.  ``parent`` maps a node id to
    the neighbour that node first received this copy from; the plain reliable
    class returns the copy there only once no unused edge is left (Tarry's
    traversal).  The source has no parent.

    ``path`` lists the nodes that received the copy, so an attempt lost to a
    dead receiver adds nothing to it and counts in ``failures_seen`` instead.
    ``backtracks`` holds the ``path`` indices of the nodes reached by a
    backtrack hop.
    """

    src: int
    copy_index: int
    path_id: int
    ttl: int
    latency_epoch: float | None
    prev_hop: int | None = None
    forced_next: int | None = None
    path: list[int] = field(default_factory=list)
    backtracks: list[int] = field(default_factory=list)
    forwarded: dict[int, set[int]] = field(default_factory=dict)
    parent: dict[int, int] = field(default_factory=dict)
    repairs: int = 0
    failures_seen: int = 0
    fallback_used: bool = False
    delivered: bool = False
    drop_reason: str | None = None
    latency: float | None = None
    done: bool = False


@dataclass
class NodeState:
    """One sensor's mutable run state."""

    id: int
    energy: float
    fit: Fit
    pct: Pct
    alive: bool = True
    tx_queue: deque = field(default_factory=deque)
    transmitting: bool = False
    tx_end: float = 0.0
    has_broadcast: bool = False
    flood_pending: bool = False

    @property
    def queue_len(self) -> int:
        return len(self.tx_queue) + (1 if self.transmitting else 0)


class FloodNode(NamedTuple):
    """One node as a query flood left it; ``rows`` is its FIT in insertion
    order, the frozen rows shared with every table restored from it."""

    energy: float
    alive: bool
    self_hop: int
    self_energy: float
    rows: tuple[FitEntry, ...]


class FloodState(NamedTuple):
    """What one query flood leaves, as :func:`flood_state` takes it.

    The flood reads the topology, the battery and radio parameters and the
    radio range, and nothing else of the run: not the service class, and not
    the failure fraction, because failures are injected after it.  So every
    run on one topology at one range can start from the same flood state.
    """

    active_range: float
    now: float
    dissipated: float
    flood_broadcasts: int
    nodes: tuple[FloodNode, ...]


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one run.

    ``copies`` holds the run's finished reply copies.  Average dissipated
    energy is total dissipation over replies delivered.  Delivery
    probability is per source: the fraction of query sources whose response
    survived to the sink in at least one copy, which is what the redundant
    copies exist to ensure.
    """

    qos: QosClass
    config: SimConfig
    total_energy_dissipated: float
    replies_sent: int
    replies_delivered: int
    latencies: tuple[float, ...]
    copies: tuple[ReplyCopy, ...]
    failed_nodes: tuple[int, ...]
    sources: tuple[int, ...]
    hop_counts: tuple[int, ...]
    energy_residual: float
    trace: tuple[tuple, ...] | None = None

    @property
    def avg_dissipated_energy(self) -> float:
        if self.replies_delivered == 0:
            return math.inf
        return self.total_energy_dissipated / self.replies_delivered

    @property
    def avg_latency(self) -> float:
        if not self.latencies:
            return math.inf
        return sum(self.latencies) / len(self.latencies)

    @property
    def delivery_probability(self) -> float:
        dispatched = {c.src for c in self.copies}
        if not dispatched:
            return 0.0
        delivered = {c.src for c in self.copies if c.delivered}
        return len(delivered) / len(dispatched)


class Simulation:
    """One seeded run of one service class on one topology."""

    def __init__(
        self,
        config: SimConfig,
        qos: QosClass,
        topology: Topology | None = None,
        exempt_sources_from_failure: bool = True,
        collect_trace: bool = False,
        flood: FloodState | None = None,
    ) -> None:
        self.config = config
        self.qos = qos
        self.topology = topology if topology is not None else build_topology(config)
        if self.topology.n != config.n:
            raise ValueError("topology size does not match config")
        self.active_range = active_range(config, qos)
        self.exempt_sources_from_failure = exempt_sources_from_failure
        if flood is None:
            self.now = 0.0
            self.dissipated = 0.0
            self.flood_broadcasts = 0
            self.nodes = [
                NodeState(
                    id=i,
                    energy=config.e_init,
                    fit=fit_bootstrap(i, is_sink=(i == SINK), energy=config.e_init),
                    pct=Pct(),
                )
                for i in range(config.n)
            ]
        else:
            if flood.active_range != self.active_range or len(flood.nodes) != config.n:
                raise ValueError("flood state is for another radio range or size")
            self.now = flood.now
            self.dissipated = flood.dissipated
            self.flood_broadcasts = flood.flood_broadcasts
            # Each node gets its own table; the frozen rows are shared.
            self.nodes = [
                NodeState(
                    id=i,
                    energy=saved.energy,
                    fit=Fit(
                        i,
                        saved.self_hop,
                        saved.self_energy,
                        {row.neighbor: row for row in saved.rows},
                    ),
                    pct=Pct(),
                    alive=saved.alive,
                )
                for i, saved in enumerate(flood.nodes)
            ]
        self._seq = 0
        # (time, insertion order, handler, node, data); insertion order is
        # unique, so ties on time never compare the rest
        self._heap: list[tuple[float, int, Callable, int, object]] = []
        self.copies: list[ReplyCopy] = []
        self.failed_nodes: tuple[int, ...] = ()
        self.sources = seeded_draw(
            [config.seed, _SOURCE_STREAM], range(1, config.n), config.sources
        )
        self._trace_lines: list[tuple] | None = [] if collect_trace else None
        self._tx_cost_broadcast = tx_energy(
            config.packet_bits, self.active_range, config.e_elec, config.eps_amp
        )
        self._rx_cost = rx_energy(config.packet_bits, config.e_elec)

    # ------------------------------------------------------------------
    # bookkeeping

    def _trace(self, kind: str, src: int, dst: int, query_id: int, detail: str) -> None:
        if self._trace_lines is not None:
            self._trace_lines.append((self.now, kind, src, dst, query_id, detail))

    def _wait(self, node_id: int) -> int:
        """A node's current queue length, which the selectors rank waits by."""
        return self.nodes[node_id].queue_len

    def _debit(self, node: NodeState, amount: float) -> bool:
        """Charge a node; the sink is externally powered and never charged.

        A node that cannot afford a charge spends what remains and dies
        without completing the action, keeping dissipation equal to the sum
        of all individual charges at all times.
        """
        if node.id == SINK:
            return True
        if not node.alive:
            return False
        if node.energy >= amount:
            node.energy -= amount
            self.dissipated += amount
            if node.energy <= 0.0:
                node.alive = False
                self._trace("node_died", node.id, -1, -1, "energy_exhausted")
            return True
        self.dissipated += node.energy
        node.energy = 0.0
        node.alive = False
        self._trace("node_died", node.id, -1, -1, "energy_exhausted")
        return False

    def _schedule(
        self, time: float, handler: Callable, node: int, data: object = None
    ) -> None:
        assert time >= self.now, "cannot schedule into the past"
        heappush(self._heap, (time, self._seq, handler, node, data))
        self._seq += 1

    def _drain(self) -> None:
        while self._heap:
            time, _, handler, node, data = heappop(self._heap)
            assert time >= self.now, "event queue went backwards"
            self.now = time
            handler(node, data)

    # ------------------------------------------------------------------
    # transmit queue

    def _enqueue_tx(self, node: NodeState, job: int | ReplyCopy) -> None:
        """Queue a query id to rebroadcast or a reply copy to forward."""
        node.tx_queue.append(job)
        if not node.transmitting:
            self._schedule(self.now, self._on_queue_service, node.id)

    def _flush_dead_queue(self, node: NodeState) -> None:
        while node.tx_queue:
            job = node.tx_queue.popleft()
            if isinstance(job, ReplyCopy) and not job.done:
                self._finish_copy(job, delivered=False, reason="sender_died")
        node.transmitting = False

    def _on_queue_service(self, node_id: int, _data: None) -> None:
        node = self.nodes[node_id]
        if not node.alive:
            self._flush_dead_queue(node)
            return
        if node.transmitting:
            if self.now < node.tx_end:
                return  # spurious wake-up while the radio is busy
            node.transmitting = False
        if not node.tx_queue:
            return
        job = node.tx_queue.popleft()
        if isinstance(job, ReplyCopy):
            started = self._transmit_reply(node, job)
        else:
            started = self._transmit_flood(node, job)
        if not node.alive:
            self._flush_dead_queue(node)
        elif not started and node.tx_queue:
            self._schedule(self.now, self._on_queue_service, node.id)

    # ------------------------------------------------------------------
    # query flood

    def run_flood(self, query_id: int = 0) -> None:
        """Flood one query from the sink and run to quiescence.

        Every node's own FIT record is refreshed at query start: hop reset
        (0 at the sink, unknown elsewhere) and the battery level snapshotted,
        so all headers within one flood advertise start-of-round energy.
        """
        for node in self.nodes:
            fit = node.fit
            fit.self_hop = 0 if node.id == SINK else HOP_INF
            fit.self_energy = node.energy
            node.has_broadcast = False
            node.flood_pending = False
        self._schedule(self.now, self._on_query_start, SINK, query_id)
        self._drain()

    def _on_query_start(self, sink_id: int, query_id: int) -> None:
        self._trace("query_start", sink_id, -1, query_id, "")
        self._enqueue_tx(self.nodes[sink_id], query_id)

    def _transmit_flood(self, node: NodeState, query_id: int) -> bool:
        node.flood_pending = False
        if node.fit.self_hop >= HOP_INF:
            return False
        if not self._debit(node, self._tx_cost_broadcast):
            return False
        hdr = advert_from_fit(node.fit, query_id)
        node.has_broadcast = True
        node.transmitting = True
        node.tx_end = self.now + self.config.service_time
        self._schedule(node.tx_end, self._on_queue_service, node.id)
        self.flood_broadcasts += 1
        if self._trace_lines is not None:
            detail = f"hop={hdr.sender_hop} energy={hdr.sender_energy:.9f}"
            self._trace("broadcast", node.id, -1, query_id, detail)
        self._schedule(node.tx_end, self._on_broadcast_arrive, node.id, hdr)
        return True

    def _on_broadcast_arrive(self, sender_id: int, hdr: DataReqHeader) -> None:
        """Deliver one broadcast to the sender's alive neighbours, ascending."""
        nodes = self.nodes
        rx_cost = self._rx_cost
        tracing = self._trace_lines is not None
        for node_id in self.topology.neighbors(sender_id, self.active_range):
            node = nodes[node_id]
            if not node.alive or not self._debit(node, rx_cost):
                continue
            old_hop = node.fit.self_hop
            node.fit, action = apply_data_req(node.fit, hdr)
            assert node.fit.self_hop <= old_hop, "hop estimate must never worsen"
            if tracing:
                self._trace("flood_rx", sender_id, node_id, hdr.query_id, action.value)
            wants_rebroadcast = action is FloodAction.UPDATED_AND_REBROADCAST or (
                action is FloodAction.RECORDED_AND_REBROADCAST
                and not node.has_broadcast
            )
            if (
                wants_rebroadcast
                and not node.flood_pending
                and node.fit.self_hop < HOP_INF
            ):
                node.flood_pending = True
                self._enqueue_tx(node, hdr.query_id)

    # ------------------------------------------------------------------
    # failures

    def inject_failures(self) -> tuple[int, ...]:
        """Kill a seeded uniform pick of nodes after the flood completed.

        See :func:`draw_failures`; the sink (and, in normal sweep runs, the
        sources) are exempt.
        """
        exempt = {SINK}
        if self.exempt_sources_from_failure:
            exempt.update(self.sources)
        eligible = [
            i for i in range(self.config.n) if i not in exempt and self.nodes[i].alive
        ]
        failed = draw_failures(self.config, eligible)
        for node_id in failed:
            self.nodes[node_id].alive = False
            self._trace("node_died", node_id, -1, -1, "injected_failure")
        self.failed_nodes = failed
        return failed

    # ------------------------------------------------------------------
    # replies

    def deliver_replies(self, sources: Iterable[int] | None = None) -> list[ReplyCopy]:
        """Dispatch every source's reply copies and run to quiescence."""
        batch: list[ReplyCopy] = []
        for src in sources if sources is not None else self.sources:
            batch.extend(self._dispatch_source(src))
        self.copies.extend(batch)
        self._drain()
        for copy in batch:
            assert copy.done, "every reply copy must resolve"
        return batch

    def _new_copy(
        self,
        src: int,
        copy_index: int,
        path_id: int,
        forced_next: int | None,
        latency_epoch: float | None,
    ) -> ReplyCopy:
        return ReplyCopy(
            src=src,
            copy_index=copy_index,
            path_id=path_id,
            ttl=self.config.effective_ttl,
            latency_epoch=latency_epoch,
            forced_next=forced_next,
            path=[src],
        )

    def _dispatch_source(self, src_id: int) -> list[ReplyCopy]:
        node = self.nodes[src_id]
        copies: list[ReplyCopy] = []
        n_copies = self.config.copies

        def dead_batch() -> list[ReplyCopy]:
            for k in range(n_copies):
                copy = self._new_copy(src_id, k, 0, None, self.now)
                self._finish_copy(copy, delivered=False, reason="no_route")
                copies.append(copy)
            return copies

        if not node.alive or node.fit.self_hop >= HOP_INF:
            return dead_batch()

        if self.qos in _RELIABLE_CLASSES:
            # The copies leave at once, round robin over distinct first hops.
            firsts: tuple[int, ...] = ()
            if self.qos is QosClass.RELIABLE:
                pruned = prune_low_energy(node.fit, self.config.e_threshold)
                primary = primary_reliable(pruned, self.config.e_threshold)
                if primary is not None:
                    alternates = alternates_reliable(pruned, primary.next_hop)
                    firsts = (primary.next_hop, *alternates)
            else:
                firsts = paths_delay_reliable(node.fit, self._wait) or ()
            if not firsts:
                return dead_batch()
            for k in range(n_copies):
                path_id = k % len(firsts)
                copy = self._new_copy(src_id, k, path_id, firsts[path_id], self.now)
                copies.append(copy)
                self._enqueue_tx(node, copy)
            for first in firsts:
                pct_observe((node.pct,), first, src_id, SINK)
        else:
            # Normal and delay-sensitive classes send their copies one after
            # another, each routed afresh when it reaches the radio.
            for k in range(n_copies):
                copy = self._new_copy(src_id, k, 0, None, None)
                copies.append(copy)
                self._enqueue_tx(node, copy)
        return copies

    def _route(self, node: NodeState, copy: ReplyCopy) -> RouteDecision | None:
        prev = copy.prev_hop
        excluded = frozenset() if prev is None else frozenset({prev})
        if self.qos is QosClass.NORMAL:
            return next_hop_normal(node.fit, excluded)
        if self.qos is QosClass.DELAY:
            return next_hop_delay(node.fit, self._wait, excluded)
        return self._route_reliable(node, copy, by_wait=self.qos is QosClass.DELAY_RELIABLE)

    def _route_reliable(
        self, node: NodeState, copy: ReplyCopy, by_wait: bool
    ) -> RouteDecision | None:
        """Reliable-class forwarding with staged constraint relaxation.

        A node never forwards the same copy to the same neighbour twice (the
        copy's ``forwarded`` memory), which makes repair walks
        edge-self-avoiding and therefore finite.  Stage 1, for both classes,
        is disjoint and sink-ward: the PCT-checked selector over unused
        edges, excluding the previous hop, the parent and candidates strictly
        farther from the sink (a disjointness detour that moves backward can
        trap a copy in a leaf pocket).

        Past stage 1 the plain reliable class runs Tarry's traversal
        (G. Tarry, 1895) over its whole table:

        2. any other unused edge, least hop first;
        3. back to the previous hop, if that edge is unused;
        4. back to the parent, once no other edge is left.

        Acks remove dead neighbours from the table, so on the alive graph a
        copy can run out of edges only at its source, after it has used
        every edge of the source's component in both directions: it reaches
        the sink whenever the source is still connected to it.  Stages 3 and
        4 are backtracks.  The hybrid sends without acks and keeps the staged
        relaxation of :meth:`_reliable_fallback`.

        The stages only choose.  The pick, whichever stage made it, is
        recorded here once, in ``forwarded`` and in the node's PCT; with the
        dispatch's first hops and the overheard replies, this is one of the
        three places the engine writes a PCT.
        """
        prev = copy.prev_hop
        parent = copy.parent.get(node.id)
        tried = copy.forwarded.get(node.id, set())
        fit = (
            node.fit if by_wait else prune_low_energy(node.fit, self.config.e_threshold)
        )
        self_hop = node.fit.self_hop
        backward = {
            n
            for n, e in fit.entries.items()
            if self_hop < HOP_INF and e.hop > self_hop
        }
        base = {n for n in (prev, parent) if n is not None}

        excluded = frozenset(base | backward | tried)
        if by_wait:
            decision, _ = next_hop_delay_reliable_intermediate(
                fit, node.pct, copy.src, SINK, excluded, wait=self._wait
            )
        else:
            decision, _ = next_hop_reliable(fit, node.pct, copy.src, SINK, excluded)
        if decision is None:
            if by_wait:
                decision = self._reliable_fallback(node, base, backward, tried)
            else:
                decision = self._tarry_step(node, prev, parent, tried)
        if decision is not None:
            copy.forwarded.setdefault(node.id, set()).add(decision.next_hop)
            pct_observe((node.pct,), decision.next_hop, copy.src, SINK)
        return decision

    def _tarry_step(
        self, node: NodeState, prev: int | None, parent: int | None, tried: set[int]
    ) -> RouteDecision | None:
        """Stages 2-4 of plain reliable forwarding: path disjointness and the
        energy threshold are best effort, delivery is the guarantee."""
        entries = node.fit.entries
        unused = [e for n, e in entries.items() if n not in tried]
        forward = [e for e in unused if e.neighbor not in (prev, parent)]
        if forward:
            pick = min(forward, key=lambda e: (e.hop, e.neighbor)).neighbor
            rationale = Rationale.FALLBACK
        else:
            backs = [n for n in (prev, parent) if n in entries and n not in tried]
            if not backs:
                return None
            pick = backs[0]
            rationale = Rationale.BACKTRACK
        return RouteDecision(pick, rationale)

    def _reliable_fallback(
        self, node: NodeState, base: set[int], backward: set[int], tried: set[int]
    ) -> RouteDecision | None:
        """Stages 2-4 of hybrid forwarding, by least wait: sink-ward past
        the disjointness wall (PCT ignored), then a backward escape around a
        failure hole one fresh edge at a time, then strictly sink-ward reuse,
        which cannot cycle because the hop count strictly decreases."""
        wait = self._wait
        rank = lambda e: (wait(e.neighbor), e.hop, e.neighbor)  # noqa: E731
        entries = node.fit.entries
        self_hop = node.fit.self_hop
        pools = (
            [e for n, e in entries.items() if n not in base | backward | tried],
            [e for n, e in entries.items() if n not in base | tried],
            [e for n, e in entries.items() if n not in base and e.hop < self_hop],
        )
        for pool in pools:
            if pool:
                return RouteDecision(min(pool, key=rank).neighbor, Rationale.FALLBACK)
        return None

    def _transmit_reply(self, node: NodeState, copy: ReplyCopy) -> bool:
        if copy.done:
            return False
        if copy.latency_epoch is None:
            copy.latency_epoch = self.now
        if copy.ttl <= 0:
            self._finish_copy(copy, delivered=False, reason="ttl_expired")
            return False
        if copy.forced_next is not None:
            target = copy.forced_next
            copy.forced_next = None
            backtrack = False
            if self.qos in _RELIABLE_CLASSES:
                copy.forwarded.setdefault(node.id, set()).add(target)
        else:
            decision = self._route(node, copy)
            if decision is None:
                self._finish_copy(copy, delivered=False, reason="no_route")
                return False
            target = decision.next_hop
            backtrack = decision.rationale is Rationale.BACKTRACK
            if backtrack or decision.rationale is Rationale.FALLBACK:
                copy.fallback_used = True
        if not self._debit(
            node,
            tx_energy(
                self.config.packet_bits,
                self.topology.distance(node.id, target),
                self.config.e_elec,
                self.config.eps_amp,
            ),
        ):
            self._finish_copy(copy, delivered=False, reason="sender_died")
            self._flush_dead_queue(node)
            return False
        node.transmitting = True
        node.tx_end = self.now + self.config.service_time
        self._schedule(node.tx_end, self._on_queue_service, node.id)
        self._schedule(
            node.tx_end,
            self._on_unicast_arrive,
            target,
            (node.id, copy, backtrack),
        )
        if self._trace_lines is not None:
            detail = f"src={copy.src} copy={copy.copy_index} ttl={copy.ttl}"
            self._trace("unicast", node.id, target, 0, detail)
        return True

    def _on_unicast_arrive(self, receiver_id: int, data: tuple) -> None:
        sender_id, copy, backtrack = data
        receiver = self.nodes[receiver_id]
        # The plain reliable class runs the link-layer acknowledgement and
        # repairs around detected failures; the delay-sensitive hybrid cannot
        # afford acknowledgement timeouts and relies on path redundancy.
        with_ack = self.qos is QosClass.RELIABLE
        if self.qos in _RELIABLE_CLASSES:
            # The header is overheard across the sender's neighbourhood and
            # feeds the path construction tables of the reliable classes:
            # one row, recorded in every alive overhearer's table.
            nodes = self.nodes
            overhearers = self.topology.neighbors(sender_id, self.active_range)
            pcts = [nodes[o].pct for o in overhearers if nodes[o].alive]
            pct_observe(pcts, sender_id, copy.src, SINK)
        received = receiver.alive and self._debit(receiver, self._rx_cost)
        if not received:
            copy.failures_seen += 1
            self._trace(
                "unicast_lost", sender_id, receiver_id, 0, "receiver_dead"
            )
            if with_ack:
                self._schedule(
                    self.now + self.config.ack_timeout,
                    self._on_ack_timeout,
                    sender_id,
                    (receiver_id, copy),
                )
            else:
                self._finish_copy(copy, delivered=False, reason="dead_next_hop")
            return
        if with_ack:
            self._schedule(self.now, self._on_ack_arrive, sender_id, receiver_id)
        if backtrack:
            copy.backtracks.append(len(copy.path))
        copy.path.append(receiver_id)
        if receiver_id == SINK:
            self._finish_copy(copy, delivered=True)
            return
        if self.qos is QosClass.RELIABLE and receiver_id != copy.src:
            copy.parent.setdefault(receiver_id, sender_id)
        copy.prev_hop = sender_id
        copy.ttl -= 1
        self._enqueue_tx(receiver, copy)

    def _on_ack_arrive(self, sender_id: int, receiver_id: int) -> None:
        self._trace("ack_arrive", receiver_id, sender_id, -1, "ok")

    def _on_ack_timeout(self, sender_id: int, data: tuple) -> None:
        failed_id, copy = data
        sender = self.nodes[sender_id]
        self._trace(
            "ack_timeout", sender_id, failed_id, 0, "neighbor_removed"
        )
        if not sender.alive:
            if not copy.done:
                self._finish_copy(copy, delivered=False, reason="sender_died")
            return
        sender.fit = remove_failed(sender.fit, failed_id)
        copy.repairs += 1
        self._enqueue_tx(sender, copy)

    def _finish_copy(
        self, copy: ReplyCopy, delivered: bool, reason: str | None = None
    ) -> None:
        assert not copy.done, "reply copy finalised twice"
        copy.done = True
        copy.delivered = delivered
        if delivered:
            assert copy.latency_epoch is not None
            copy.latency = self.now - copy.latency_epoch
        else:
            copy.drop_reason = reason
        if self._trace_lines is not None:
            if delivered:
                kind = "delivered"
                detail = f"copy={copy.copy_index} latency={copy.latency:.9f}"
            else:
                kind = "dropped"
                detail = f"copy={copy.copy_index} reason={reason}"
            self._trace(kind, copy.src, SINK, 0, detail)

    # ------------------------------------------------------------------
    # public primitives

    def run_reply_round(self, round_index: int) -> int:
        """One query-answering round without re-flooding; returns deliveries.

        Used by the lifetime experiments: sources are redrawn per round among
        the surviving non-sink nodes, energies persist across rounds.
        """
        alive = [i for i in range(1, self.config.n) if self.nodes[i].alive]
        if not alive:
            return 0
        round_sources = seeded_draw(
            [self.config.seed, _SOURCE_STREAM, round_index], alive, self.config.sources
        )
        batch = self.deliver_replies(round_sources)
        return sum(1 for c in batch if c.delivered)

    @property
    def dead_count(self) -> int:
        return sum(1 for node in self.nodes if not node.alive)

    # ------------------------------------------------------------------
    # results

    def metrics(self) -> RunMetrics:
        delivered = [c for c in self.copies if c.delivered]
        return RunMetrics(
            qos=self.qos,
            config=self.config,
            total_energy_dissipated=self.dissipated,
            replies_sent=len(self.copies),
            replies_delivered=len(delivered),
            latencies=tuple(c.latency for c in delivered),
            copies=tuple(self.copies),
            failed_nodes=self.failed_nodes,
            sources=self.sources,
            hop_counts=tuple(node.fit.self_hop for node in self.nodes),
            energy_residual=sum(node.energy for node in self.nodes),
            trace=tuple(self._trace_lines) if self._trace_lines is not None else None,
        )


def simulate_query_round(
    config: SimConfig,
    qos: QosClass,
    topology: Topology | None = None,
    collect_trace: bool = False,
    flood: FloodState | None = None,
) -> RunMetrics:
    """Build a topology, flood, inject failures, deliver replies, measure.

    Given ``flood``, what a flood of the same topology at this class's range
    left, the run starts from it instead of flooding, with the same result;
    a trace then starts after the flood.  Deterministic for a fixed ``(config, qos)``; raises
    :class:`TopologyUnconnectable` when no connected placement exists for the
    config's seed.
    """
    sim = Simulation(
        config, qos, topology=topology, collect_trace=collect_trace, flood=flood
    )
    if flood is None:
        sim.run_flood(query_id=0)
    sim.inject_failures()
    sim.deliver_replies()
    return sim.metrics()


def flood_state(config: SimConfig, qos: QosClass, topology: Topology) -> FloodState:
    """Flood ``topology`` once at ``qos``'s range; any class at that range
    and any failure fraction can start from the result."""
    sim = Simulation(config, qos, topology=topology)
    sim.run_flood(query_id=0)
    return FloodState(
        active_range=sim.active_range,
        now=sim.now,
        dissipated=sim.dissipated,
        flood_broadcasts=sim.flood_broadcasts,
        nodes=tuple(
            FloodNode(
                node.energy,
                node.alive,
                node.fit.self_hop,
                node.fit.self_energy,
                tuple(node.fit.entries.values()),
            )
            for node in sim.nodes
        ),
    )


def format_trace(trace: Iterable[tuple]) -> str:
    """Render trace tuples as tab-separated lines, one event per line."""
    lines = []
    for time, kind, src, dst, query_id, detail in trace:
        lines.append(f"{time:.9f}\t{kind}\t{src}\t{dst}\t{query_id}\t{detail}")
    return "\n".join(lines) + ("\n" if lines else "")
