"""Deterministic discrete-event engine for the query/reply protocol.

One :class:`Simulation` owns one run: a seeded random topology, per-node
state (energy, tables, transmit queue), and a single event queue processed
in strict ``(time, insertion order)`` order.  A run executes four phases:

1. query flood at the class-appropriate radio range,
2. optional failure injection (nodes marked dead after the flood),
3. reply dispatch from the chosen source nodes, routed per service class,
4. event drain, after which :meth:`Simulation.metrics` summarises the run.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from heapq import heappop, heappush
from typing import Iterable, Sequence

import numpy as np

from .protocol import (
    HOP_INF,
    DataRepHeader,
    DataReqHeader,
    Fit,
    FloodAction,
    QosClass,
    advert_from_fit,
    apply_data_req,
    fit_bootstrap,
    prune_low_energy,
    tos_encode,
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
    copies_per_query: int = 3
    sources: int = 3
    failure_fraction: float = 0.0
    ttl: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two nodes, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative: {self.seed}")
        if self.side <= 0:
            raise ValueError(f"deployment side must be positive: {self.side}")
        if not (0 < self.short_range < self.long_range):
            raise ValueError(
                f"need 0 < short_range < long_range, got "
                f"{self.short_range} / {self.long_range}"
            )
        if not (0.0 <= self.failure_fraction < 1.0):
            raise ValueError(
                f"failure fraction must be in [0, 1): {self.failure_fraction}"
            )
        for name in ("e_init", "e_threshold", "service_time", "ack_timeout"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.packet_bits <= 0:
            raise ValueError("packet_bits must be positive")
        if self.copies_per_query < 1 or self.sources < 1:
            raise ValueError("need at least one reply copy and one source")
        if self.ttl is not None and self.ttl < 0:
            raise ValueError("ttl must be non-negative")

    @property
    def effective_ttl(self) -> int:
        return self.ttl if self.ttl is not None else 4 * self.n


def seeded_draw(key: Sequence[int], pool: Sequence[int], k: int) -> tuple[int, ...]:
    """Up to ``k`` distinct members of ``pool``, sorted, drawn from the
    substream ``key``: the seed, a stream number and any further indices."""
    k = min(k, len(pool))
    if k == 0:
        return ()
    picks = np.random.default_rng(key).choice(np.asarray(pool), size=k, replace=False)
    return tuple(sorted(int(p) for p in picks))


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
    """Static node positions with unit-disk adjacency at either power level."""

    def __init__(
        self, positions: np.ndarray, short_range: float, long_range: float
    ) -> None:
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        self.short_range = float(short_range)
        self.long_range = float(long_range)
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
        topology = Topology(positions, config.short_range, config.long_range)
        if HOP_INF not in bfs_hops(topology, SINK, config.short_range):
            return topology
    raise TopologyUnconnectable(
        f"no connected placement in {_MAX_TOPOLOGY_ATTEMPTS} attempts "
        f"(n={config.n}, side={config.side}, range={config.short_range})"
    )


class EventKind(Enum):
    QUERY_START = "query_start"
    BROADCAST_ARRIVE = "broadcast_arrive"
    UNICAST_ARRIVE = "unicast_arrive"
    ACK_ARRIVE = "ack_arrive"
    ACK_TIMEOUT = "ack_timeout"
    QUEUE_SERVICE = "queue_service"


@dataclass
class ReplyCopy:
    """Runtime state of one DATA_REP copy, including its audit trail.

    ``forwarded`` maps a node id to the next hops that node has already used
    for this copy; the reliable classes never reuse such an edge, except for
    the hybrid's strictly sink-ward last resort.  ``parent`` maps a node id to
    the neighbour that node first received this copy from; the plain reliable
    class returns the copy there only once no unused edge is left (Tarry's
    traversal).  The source has no parent.
    """

    hdr: DataRepHeader
    latency_epoch: float | None
    forced_next: int | None = None
    forced_rationale: Rationale | None = None
    single_hop: bool = False
    hops: int = 0
    path: list[int] = field(default_factory=list)
    rationales: list[str] = field(default_factory=list)
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


@dataclass(frozen=True)
class CopyOutcome:
    """Immutable per-copy summary kept in :class:`RunMetrics`.

    ``rationales`` lists every transmission attempt, including those lost to
    a dead receiver, so it does not line up with ``path``.  ``backtracks``
    holds the ``path`` indices of the nodes reached by a backtrack hop.
    """

    source: int
    copy_index: int
    path_id: int
    delivered: bool
    drop_reason: str | None
    latency: float | None
    hops: int
    path: tuple[int, ...]
    rationales: tuple[str, ...]
    backtracks: tuple[int, ...]
    repairs: int
    failures_seen: int
    fallback_used: bool


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


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one run.

    ``packets_received_at_sink`` equals ``replies_delivered``; average
    dissipated energy is total dissipation over packets received.  Delivery
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
    copies: tuple[CopyOutcome, ...]
    flood_broadcasts: int
    failed_nodes: tuple[int, ...]
    sources: tuple[int, ...]
    hop_counts: tuple[int, ...]
    energy_residual: float
    trace: tuple[tuple, ...] | None = None

    @property
    def packets_received_at_sink(self) -> int:
        return self.replies_delivered

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
        dispatched = {c.source for c in self.copies}
        if not dispatched:
            return 0.0
        delivered = {c.source for c in self.copies if c.delivered}
        return len(delivered) / len(dispatched)


@dataclass
class _FloodTx:
    query_id: int


@dataclass
class _ReplyTx:
    copy: ReplyCopy


class Simulation:
    """One seeded run of one service class on one topology."""

    def __init__(
        self,
        config: SimConfig,
        qos: QosClass,
        topology: Topology | None = None,
        exempt_sources_from_failure: bool = True,
        collect_trace: bool = False,
    ) -> None:
        self.config = config
        self.qos = qos
        self.topology = topology if topology is not None else build_topology(config)
        if self.topology.n != config.n:
            raise ValueError("topology size does not match config")
        self.active_range = (
            config.long_range if qos in _DELAY_CLASSES else config.short_range
        )
        self.exempt_sources_from_failure = exempt_sources_from_failure
        self.nodes = [
            NodeState(
                id=i,
                energy=config.e_init,
                fit=fit_bootstrap(i, is_sink=(i == SINK), energy=config.e_init),
                pct=Pct(),
            )
            for i in range(config.n)
        ]
        self.now = 0.0
        self._seq = 0
        # (time, insertion order, kind, node, data); insertion order is unique,
        # so ties on time never compare the rest
        self._heap: list[tuple[float, int, EventKind, int, object]] = []
        self.dissipated = 0.0
        self.flood_broadcasts = 0
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

    def _schedule(self, time: float, kind: EventKind, node: int, data: object = None) -> None:
        assert time >= self.now, "cannot schedule into the past"
        heappush(self._heap, (time, self._seq, kind, node, data))
        self._seq += 1

    def _drain(self) -> None:
        while self._heap:
            time, _, kind, node, data = heappop(self._heap)
            assert time >= self.now, "event queue went backwards"
            self.now = time
            self._dispatch(kind, node, data)

    def _dispatch(self, kind: EventKind, node: int, data: object) -> None:
        if kind is EventKind.QUEUE_SERVICE:
            self._on_queue_service(node)
        elif kind is EventKind.BROADCAST_ARRIVE:
            self._on_broadcast_arrive(node, data)
        elif kind is EventKind.UNICAST_ARRIVE:
            self._on_unicast_arrive(node, data)
        elif kind is EventKind.ACK_ARRIVE:
            self._trace("ack_arrive", data, node, -1, "ok")
        elif kind is EventKind.ACK_TIMEOUT:
            self._on_ack_timeout(node, data)
        elif kind is EventKind.QUERY_START:
            self._trace("query_start", node, -1, data, "")
            self._enqueue_tx(self.nodes[node], _FloodTx(data))
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled event kind {kind}")

    # ------------------------------------------------------------------
    # transmit queue

    def _enqueue_tx(self, node: NodeState, job: object) -> None:
        node.tx_queue.append(job)
        if not node.transmitting:
            self._schedule(self.now, EventKind.QUEUE_SERVICE, node.id)

    def _flush_dead_queue(self, node: NodeState) -> None:
        while node.tx_queue:
            job = node.tx_queue.popleft()
            if isinstance(job, _ReplyTx) and not job.copy.done:
                self._finish_copy(job.copy, delivered=False, reason="sender_died")
        node.transmitting = False

    def _on_queue_service(self, node_id: int) -> None:
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
        if isinstance(job, _FloodTx):
            started = self._transmit_flood(node, job)
        else:
            started = self._transmit_reply(node, job.copy)
        if not node.alive:
            self._flush_dead_queue(node)
        elif not started and node.tx_queue:
            self._schedule(self.now, EventKind.QUEUE_SERVICE, node.id)

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
            fit.self_queue_len = node.queue_len
            node.has_broadcast = False
            node.flood_pending = False
        self._schedule(self.now, EventKind.QUERY_START, SINK, query_id)
        self._drain()

    def _transmit_flood(self, node: NodeState, job: _FloodTx) -> bool:
        node.flood_pending = False
        if node.fit.self_hop >= HOP_INF:
            return False
        if not self._debit(node, self._tx_cost_broadcast):
            return False
        advert = advert_from_fit(node.fit)
        hdr = DataReqHeader(
            query_id=job.query_id,
            tos=tos_encode(self.qos),
            sender_id=node.id,
            sender_energy=advert.sender_energy,
            sender_hop=advert.sender_hop,
            forwarders=advert.forwarders,
        )
        node.has_broadcast = True
        node.transmitting = True
        node.tx_end = self.now + self.config.service_time
        self._schedule(node.tx_end, EventKind.QUEUE_SERVICE, node.id)
        self.flood_broadcasts += 1
        if self._trace_lines is not None:
            self._trace(
                "broadcast",
                node.id,
                -1,
                job.query_id,
                f"hop={hdr.sender_hop} energy={hdr.sender_energy:.9f}",
            )
        self._schedule(node.tx_end, EventKind.BROADCAST_ARRIVE, node.id, hdr)
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
                self._enqueue_tx(node, _FloodTx(hdr.query_id))

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
        forced_rationale: Rationale | None,
        latency_epoch: float | None,
    ) -> ReplyCopy:
        hdr = DataRepHeader(
            src=src,
            dst=SINK,
            query_id=0,
            copy_index=copy_index,
            path_id=path_id,
            prev_hop=None,
            ttl=self.config.effective_ttl,
        )
        return ReplyCopy(
            hdr=hdr,
            latency_epoch=latency_epoch,
            forced_next=forced_next,
            forced_rationale=forced_rationale,
            path=[src],
        )

    def _dispatch_source(self, src_id: int) -> list[ReplyCopy]:
        node = self.nodes[src_id]
        copies: list[ReplyCopy] = []
        n_copies = self.config.copies_per_query

        def dead_batch() -> list[ReplyCopy]:
            for k in range(n_copies):
                copy = self._new_copy(src_id, k, 0, None, None, self.now)
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
                first_rationale = Rationale.PRIMARY_RELIABLE
            else:
                paths = paths_delay_reliable(self._queue_view(node))
                if paths is not None:
                    firsts = paths.first_hops
                first_rationale = Rationale.MIN_WAIT
            if not firsts:
                return dead_batch()
            for k in range(n_copies):
                path_id = k % len(firsts)
                rationale = (
                    first_rationale if path_id == 0 else Rationale.ALTERNATE_RELIABLE
                )
                copy = self._new_copy(
                    src_id, k, path_id, firsts[path_id], rationale, self.now
                )
                copies.append(copy)
                self._enqueue_tx(node, _ReplyTx(copy))
            for first in firsts:
                pct_observe((node.pct,), first, src_id, SINK)
        else:
            # Normal and delay-sensitive classes send their copies one after
            # another, each routed afresh when it reaches the radio.
            for k in range(n_copies):
                copy = self._new_copy(src_id, k, 0, None, None, None)
                copies.append(copy)
                self._enqueue_tx(node, _ReplyTx(copy))
        return copies

    def _queue_view(self, node: NodeState, exclude: frozenset[int] = frozenset()) -> Fit:
        """The node's FIT with every neighbour's current queue length filled in.

        Queue lengths are read from the neighbours' live state at selection
        time, which stands in for the periodic queue-occupancy broadcasts.
        They are written into the node's own rows, replacing only the rows
        whose length changed, so ``FitEntry.queue_len`` is current only right
        after this call.  With ``exclude`` non-empty the result is a filtered
        copy; otherwise it is the node's FIT itself.
        """
        nodes = self.nodes
        entries = node.fit.entries
        for nbr, entry in entries.items():
            qlen = nodes[nbr].queue_len
            if entry.queue_len != qlen:
                entries[nbr] = replace(entry, queue_len=qlen)
        if not exclude:
            return node.fit
        return replace(
            node.fit,
            entries={n: e for n, e in entries.items() if n not in exclude},
        )

    def _route(self, node: NodeState, copy: ReplyCopy) -> RouteDecision | None:
        hdr = copy.hdr
        excluded = frozenset() if hdr.prev_hop is None else frozenset({hdr.prev_hop})
        if self.qos is QosClass.NORMAL:
            return next_hop_normal(node.fit, excluded)
        if self.qos is QosClass.DELAY:
            return next_hop_delay(self._queue_view(node, excluded))
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
        """
        hdr = copy.hdr
        prev = hdr.prev_hop
        parent = copy.parent.get(node.id)
        tried = copy.forwarded.get(node.id, set())
        fit = (
            self._queue_view(node)
            if by_wait
            else prune_low_energy(node.fit, self.config.e_threshold)
        )
        self_hop = node.fit.self_hop
        backward = {
            n
            for n, e in fit.entries.items()
            if self_hop < HOP_INF and e.hop > self_hop
        }
        base = {n for n in (prev, parent) if n is not None}

        selector = (
            next_hop_delay_reliable_intermediate if by_wait else next_hop_reliable
        )
        decision, _ = selector(
            fit, node.pct, hdr.src, hdr.dst, frozenset(base | backward | tried)
        )
        if decision is None:
            if by_wait:
                decision = self._reliable_fallback(
                    node, fit, hdr, base, backward, tried
                )
            else:
                decision = self._tarry_step(node, hdr, prev, parent, tried)
        if decision is not None:
            copy.forwarded.setdefault(node.id, set()).add(decision.next_hop)
        return decision

    def _tarry_step(
        self,
        node: NodeState,
        hdr: DataRepHeader,
        prev: int | None,
        parent: int | None,
        tried: set[int],
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
        pct_observe((node.pct,), pick, hdr.src, hdr.dst)
        return RouteDecision(pick, rationale)

    def _reliable_fallback(
        self,
        node: NodeState,
        fit: Fit,
        hdr: DataRepHeader,
        base: set[int],
        backward: set[int],
        tried: set[int],
    ) -> RouteDecision | None:
        """Stages 2-4 of hybrid forwarding, by least wait: sink-ward past
        the disjointness wall (PCT ignored), then a backward escape around a
        failure hole one fresh edge at a time, then strictly sink-ward reuse,
        which cannot cycle because the hop count strictly decreases."""
        rank = lambda e: (e.queue_len, e.hop, e.neighbor)  # noqa: E731
        entries = fit.entries
        self_hop = node.fit.self_hop
        pools = (
            [e for n, e in entries.items() if n not in base | backward | tried],
            [e for n, e in entries.items() if n not in base | tried],
            [
                e
                for n, e in entries.items()
                if n not in base and e.hop < self_hop
            ],
        )
        for pool in pools:
            if pool:
                pick = min(pool, key=rank)
                pct_observe((node.pct,), pick.neighbor, hdr.src, hdr.dst)
                return RouteDecision(pick.neighbor, Rationale.FALLBACK)
        return None

    def _transmit_reply(self, node: NodeState, copy: ReplyCopy) -> bool:
        if copy.done:
            return False
        if copy.latency_epoch is None:
            copy.latency_epoch = self.now
        if copy.hdr.ttl <= 0:
            self._finish_copy(copy, delivered=False, reason="ttl_expired")
            return False
        if copy.forced_next is not None:
            target = copy.forced_next
            rationale = copy.forced_rationale or Rationale.PRIMARY_RELIABLE
            copy.forced_next = None
            copy.forced_rationale = None
            if self.qos in _RELIABLE_CLASSES:
                copy.forwarded.setdefault(node.id, set()).add(target)
        else:
            decision = self._route(node, copy)
            if decision is None:
                self._finish_copy(copy, delivered=False, reason="no_route")
                return False
            target = decision.next_hop
            rationale = decision.rationale
            if rationale in (Rationale.FALLBACK, Rationale.BACKTRACK):
                copy.fallback_used = True
        copy.rationales.append(rationale.value)
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
        self._schedule(node.tx_end, EventKind.QUEUE_SERVICE, node.id)
        # The plain reliable class runs the link-layer acknowledgement and
        # repairs around detected failures; the delay-sensitive hybrid cannot
        # afford acknowledgement timeouts and relies on path redundancy.
        with_ack = copy.single_hop or self.qos is QosClass.RELIABLE
        self._schedule(
            node.tx_end,
            EventKind.UNICAST_ARRIVE,
            target,
            (node.id, copy, with_ack, rationale is Rationale.BACKTRACK),
        )
        if self._trace_lines is not None:
            self._trace(
                "unicast",
                node.id,
                target,
                copy.hdr.query_id,
                f"src={copy.hdr.src} copy={copy.hdr.copy_index} ttl={copy.hdr.ttl}",
            )
        return True

    def _on_unicast_arrive(self, receiver_id: int, data: tuple) -> None:
        sender_id, copy, with_ack, backtrack = data
        receiver = self.nodes[receiver_id]
        if self.qos in _RELIABLE_CLASSES:
            # The header is overheard across the sender's neighbourhood and
            # feeds the path construction tables of the reliable classes:
            # one row, recorded in every alive overhearer's table.
            nodes = self.nodes
            pct_observe(
                (
                    nodes[o].pct
                    for o in self.topology.neighbors(sender_id, self.active_range)
                    if nodes[o].alive
                ),
                sender_id,
                copy.hdr.src,
                copy.hdr.dst,
            )
        received = receiver.alive and self._debit(receiver, self._rx_cost)
        if not received:
            copy.failures_seen += 1
            self._trace(
                "unicast_lost", sender_id, receiver_id, copy.hdr.query_id, "receiver_dead"
            )
            if with_ack:
                self._schedule(
                    self.now + self.config.ack_timeout,
                    EventKind.ACK_TIMEOUT,
                    sender_id,
                    (receiver_id, copy),
                )
            else:
                self._finish_copy(copy, delivered=False, reason="dead_next_hop")
            return
        if with_ack:
            self._schedule(self.now, EventKind.ACK_ARRIVE, sender_id, receiver_id)
        copy.hops += 1
        if backtrack:
            copy.backtracks.append(len(copy.path))
        copy.path.append(receiver_id)
        if copy.single_hop or receiver_id == copy.hdr.dst:
            self._finish_copy(copy, delivered=True)
            return
        if self.qos is QosClass.RELIABLE and receiver_id != copy.hdr.src:
            copy.parent.setdefault(receiver_id, sender_id)
        copy.hdr.prev_hop = sender_id
        copy.hdr.ttl -= 1
        self._enqueue_tx(receiver, _ReplyTx(copy))

    def _on_ack_timeout(self, sender_id: int, data: tuple) -> None:
        failed_id, copy = data
        sender = self.nodes[sender_id]
        self._trace(
            "ack_timeout", sender_id, failed_id, copy.hdr.query_id, "neighbor_removed"
        )
        if not sender.alive:
            if not copy.done:
                self._finish_copy(copy, delivered=False, reason="sender_died")
            return
        sender.fit = remove_failed(sender.fit, failed_id)
        if copy.single_hop:
            self._finish_copy(copy, delivered=False, reason="dead_next_hop")
            return
        copy.repairs += 1
        self._enqueue_tx(sender, _ReplyTx(copy))

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
                detail = f"copy={copy.hdr.copy_index} latency={copy.latency:.9f}"
            else:
                kind = "dropped"
                detail = f"copy={copy.hdr.copy_index} reason={reason}"
            self._trace(kind, copy.hdr.src, copy.hdr.dst, copy.hdr.query_id, detail)

    # ------------------------------------------------------------------
    # public primitives

    def unicast_with_ack(self, sender_id: int, receiver_id: int) -> ReplyCopy:
        """One acknowledged link transmission, run to resolution.

        On success the packet is enqueued at the receiver and the copy
        reports delivery with its one-hop delay (sender queue wait plus
        transmission delay).  If the receiver is dead or unreachable the
        sender times out after ``ack_timeout`` and deletes the neighbour from
        its FIT.
        """
        copy = self._new_copy(sender_id, 0, 0, receiver_id, None, self.now)
        copy.hdr = replace(copy.hdr, dst=receiver_id)
        copy.single_hop = True
        self._enqueue_tx(self.nodes[sender_id], _ReplyTx(copy))
        self._drain()
        return copy

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
        outcomes = tuple(
            CopyOutcome(
                source=c.hdr.src,
                copy_index=c.hdr.copy_index,
                path_id=c.hdr.path_id,
                delivered=c.delivered,
                drop_reason=c.drop_reason,
                latency=c.latency,
                hops=c.hops,
                path=tuple(c.path),
                rationales=tuple(c.rationales),
                backtracks=tuple(c.backtracks),
                repairs=c.repairs,
                failures_seen=c.failures_seen,
                fallback_used=c.fallback_used,
            )
            for c in self.copies
        )
        return RunMetrics(
            qos=self.qos,
            config=self.config,
            total_energy_dissipated=self.dissipated,
            replies_sent=len(self.copies),
            replies_delivered=len(delivered),
            latencies=tuple(c.latency for c in delivered),
            copies=outcomes,
            flood_broadcasts=self.flood_broadcasts,
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
) -> RunMetrics:
    """Build a topology, flood, inject failures, deliver replies, measure.

    Deterministic for a fixed ``(config, qos)``; raises
    :class:`TopologyUnconnectable` when no connected placement exists for the
    config's seed.
    """
    sim = Simulation(config, qos, topology=topology, collect_trace=collect_trace)
    sim.run_flood(query_id=0)
    sim.inject_failures()
    sim.deliver_replies()
    return sim.metrics()


def format_trace(trace: Iterable[tuple]) -> str:
    """Render trace tuples as tab-separated lines, one event per line."""
    lines = []
    for time, kind, src, dst, query_id, detail in trace:
        lines.append(f"{time:.9f}\t{kind}\t{src}\t{dst}\t{query_id}\t{detail}")
    return "\n".join(lines) + ("\n" if lines else "")
