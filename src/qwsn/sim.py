"""Deterministic discrete-event engine for the query/reply protocol.

One :class:`Simulation` owns one run: a seeded random topology, per-node
state (energy, tables, transmit queue), and a single event queue processed
in strict ``(time, insertion order)`` order.  A run executes four phases:

1. query flood at the class-appropriate radio range (or, in a sweep, the
   :class:`FloodState` one flood per topology and range left, since the
   flood reads neither the class nor the failure fraction),
2. optional failure injection (nodes marked dead after the flood),
3. reply dispatch from the chosen source nodes, routed per service class,
4. event drain, after which :meth:`Simulation.metrics` summarises the run.

Events: each heap entry is ``(time, insertion order, handler, node, data)``
and the drain calls ``handler(node, data)``.  The heap carries the reply
rounds only; the query flood is one breadth-first pass over hop levels
(see the timing model) and pushes no event.  A reply transmission is one
entry, at its end; besides it the heap holds a node's queue wake-ups,
acknowledgement timeouts and, only when a trace is kept, the trace-only
acknowledgement arrivals.  A node's transmit queue holds the
:class:`ReplyCopy` objects it has to forward, and an unfinished reply copy
is in one place: a transmit queue, in flight, or awaiting an
acknowledgement timeout.  Only the flood changes a FIT in place; afterwards
dropping a neighbour builds a new table (copy on write), so runs can share
the tables a flood left.

Path construction tables (reliable classes): every alive neighbour of a
reply's sender overhears it, a source records its dispatch's first hops,
and a node records each pick it commits to.  Rows live for one reply round,
one :meth:`Simulation.deliver_replies` call, which answers one query, so the
run keeps one table, :attr:`Simulation.pct`, and starts it empty each
round.  Overheard replies go into it once, not once per overhearer: a node
reads the table only about its neighbours, and an alive reader was alive,
and so overheard, at every earlier arrival of the round.

Timing model: every transmission (broadcast or unicast) occupies the
sender's radio for one service time, so per-hop latency is the sender's
queue wait plus the transmission delay.  A reply transmission ends in one
event: the sender's radio frees and serves its queue, and then the copy
reaches the receiver.  The flood runs alone and a node broadcasts the query
once, on the reception that first gives it a hop count, so it goes in
waves: the hop-h nodes broadcast at one instant, in the order their first
receptions came, and every broadcast of a wave arrives one service time
later.  A broadcast is delivered to the sender's alive neighbours in
ascending id order, so its receptions form one block at the wave's arrival
time.  A reception changes only its receiver's battery and table, so the
engine settles a wave per receiver, once, in the order of first receptions;
the effects the receivers share keep reception order: the next wave's
senders are the nodes the wave gave a hop, in the order it gave it, and the
wave's charges to the run's dissipation and its trace lines go in reception
order.
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
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .protocol import (
    HOP_INF,
    Fit,
    FitEntry,
    FloodAction,
    QosClass,
    advert_from_fit,
    apply_data_req,
    fit_bootstrap,
    prune_low_energy,
    remove_failed,
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
        # One coordinate at a time: dx*dx + dy*dy is bitwise what squaring
        # an (n, n, 2) difference array and summing its last axis gives.
        x, y = self.positions.T
        dist = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        dist *= dist
        dy *= dy
        dist += dy
        self._dist = np.sqrt(dist, out=dist)
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
            # One nonzero lists the pairs row by row; each row ends where
            # bisection over the row ids finds it (np.searchsorted in its
            # place raised peak memory by about 0.1 MB).
            rows, cols = (index.tolist() for index in np.nonzero(within))
            ends = [bisect_left(rows, node) for node in range(1, self.n + 1)]
            table = [tuple(cols[start:end]) for start, end in zip([0, *ends], ends)]
            self._neighbors[range_m] = table
        return table[node]

    def connected(self, range_m: float) -> bool:
        """Whether every node is reachable from the sink at ``range_m``.

        Expands the reached set one hop level at a time over the boolean
        adjacency matrix, so no neighbour table is built.
        """
        within = self._dist <= range_m
        reached = frontier = within[SINK].copy()
        while frontier.any():
            frontier = within[frontier].any(axis=0) & ~reached
            reached |= frontier
        return bool(reached.all())


def build_topology(config: SimConfig, range_m: float | None = None) -> Topology:
    """Seeded uniform placement, redrawn until connected at ``range_m``,
    by default the short range.

    Connectivity at the short range implies connectivity at the long range,
    so one placement serves all four service classes; a run that uses one
    range only may ask for that one.  A draw is tested by
    :meth:`Topology.connected`, a hop-by-hop expansion from the sink over the
    distance matrix, so a rejected draw builds no neighbour table; the kept
    placement builds its tables on first use.  Each rejection draws from a
    fresh substream; after 100 rejections the configuration is deemed
    unconnectable.
    """
    if range_m is None:
        range_m = config.short_range
    for attempt in range(_MAX_TOPOLOGY_ATTEMPTS):
        rng = np.random.default_rng([config.seed, _TOPO_STREAM, attempt])
        positions = rng.uniform(0.0, config.side, size=(config.n, 2))
        topology = Topology(positions)
        if topology.connected(range_m):
            return topology
    raise TopologyUnconnectable(
        f"no connected placement in {_MAX_TOPOLOGY_ATTEMPTS} attempts "
        f"(n={config.n}, side={config.side}, range={range_m})"
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
    for this copy, written as the copy leaves; the reliable classes never
    reuse such an edge.  ``parent`` maps a node id to the neighbour that
    node first received this copy from; the plain reliable class returns
    the copy there only once no unused edge is left (Tarry's traversal).
    The source has no parent.

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
    alive: bool = True
    tx_queue: deque = field(default_factory=deque)
    transmitting: bool = False
    tx_end: float = 0.0

    @property
    def queue_len(self) -> int:
        return len(self.tx_queue) + (1 if self.transmitting else 0)


class FloodNode(NamedTuple):
    """One node as a query flood left it.  ``fit`` is the flood's own table,
    which every run restored from the state shares."""

    energy: float
    alive: bool
    fit: Fit


class FloodState(NamedTuple):
    """What one query flood leaves, as :func:`flood_state` takes it.

    The flood reads the topology, the battery and radio parameters and the
    radio range, and nothing else of the run: not the service class, and not
    the failure fraction, because failures are injected after it.  So every
    run on one topology at one range can start from the same flood state.

    Its runs share its tables as they are: a restored run cannot flood, and
    :func:`remove_failed` and :func:`prune_low_energy` return copies.
    """

    active_range: float
    now: float
    dissipated: float
    flood_broadcasts: int
    nodes: tuple[FloodNode, ...]


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one run.

    ``copies`` holds the finished reply copies of the run's last reply round,
    which the reply counts and latencies are read from.  Average energy is
    total dissipation over replies delivered.  Delivery probability is per
    source: the fraction of query sources whose response survived to the
    sink in at least one copy, which is what the redundant copies exist to
    ensure.
    """

    qos: QosClass
    config: SimConfig
    total_energy_dissipated: float
    copies: tuple[ReplyCopy, ...]
    failed_nodes: tuple[int, ...]
    sources: tuple[int, ...]
    hop_counts: tuple[int, ...]
    energy_residual: float
    trace: tuple[tuple, ...] | None = None

    @property
    def replies_sent(self) -> int:
        return len(self.copies)

    @property
    def replies_delivered(self) -> int:
        return sum(1 for c in self.copies if c.delivered)

    @property
    def latencies(self) -> tuple[float, ...]:
        return tuple(c.latency for c in self.copies if c.delivered)

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
                NodeState(id=i, energy=config.e_init, fit=fit_bootstrap(i, i == SINK))
                for i in range(config.n)
            ]
        else:
            if flood.active_range != self.active_range or len(flood.nodes) != config.n:
                raise ValueError("flood state is for another radio range or size")
            self.now = flood.now
            self.dissipated = flood.dissipated
            self.flood_broadcasts = flood.flood_broadcasts
            self.nodes = [
                NodeState(id=i, energy=saved.energy, fit=saved.fit, alive=saved.alive)
                for i, saved in enumerate(flood.nodes)
            ]
        self._seq = 0
        # (time, insertion order, handler, node, data); insertion order is
        # unique, so ties on time never compare the rest
        self._heap: list[tuple[float, int, Callable, int, object]] = []
        self.copies: list[ReplyCopy] = []
        self.failed_nodes: tuple[int, ...] = ()
        # the current reply round's path construction table
        self.pct = Pct()
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

    def _kill(self, node: NodeState, reason: str) -> None:
        node.alive = False
        self._trace("node_died", node.id, -1, -1, reason)

    def _debit(
        self,
        node: NodeState,
        amount: float,
        times: int = 1,
        partial: dict[int, float] | None = None,
    ) -> int:
        """The one battery rule: charge an alive node ``amount`` up to
        ``times`` times, one subtraction at a time, adding each charge to
        ``dissipated``; returns the number of completed charges.

        The sink is externally powered and never charged.  A charge the node
        can afford is subtracted, and a node left at 0 dies after that charge
        completes.  A charge it cannot afford spends what remains, and the
        node dies without completing it, keeping dissipation equal to the
        sum of all individual charges; ``partial``, if given, records what
        such a charge spent under the node's id.  A death is traced at once.
        """
        if node.id == SINK:
            return times
        energy = node.energy
        dissipated = self.dissipated
        done = 0
        while done < times:
            if energy < amount:
                if partial is not None:
                    partial[node.id] = energy
                dissipated += energy
                energy = 0.0
                break
            energy -= amount
            dissipated += amount
            done += 1
            if energy <= 0.0:
                break
        node.energy = energy
        self.dissipated = dissipated
        if energy <= 0.0:
            self._kill(node, "energy_exhausted")
        return done

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

    def _enqueue_tx(self, node: NodeState, copy: ReplyCopy) -> None:
        """Queue a reply copy for the node to forward.

        An idle node gets one wake-up at this instant per copy queued, and
        the spare ones stay: when the head copy does not start
        (``ttl_expired``, ``no_route``), the next wake-up serves the queue
        in its own turn, before the wake-ups of copies queued after it at
        other nodes.  One wake-up per node would put the rest of the queue
        behind those, so a dispatch would interleave its sources' copies.
        """
        node.tx_queue.append(copy)
        if not node.transmitting:
            self._schedule(self.now, self._on_queue_service, node.id)

    def _flush_dead_queue(self, node: NodeState) -> None:
        while node.tx_queue:
            copy = node.tx_queue.popleft()
            self._finish_copy(copy, delivered=False, reason="sender_died")
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
        started = self._transmit_reply(node, node.tx_queue.popleft())
        if not node.alive:
            self._flush_dead_queue(node)
        elif not started and node.tx_queue:
            self._schedule(self.now, self._on_queue_service, node.id)

    # ------------------------------------------------------------------
    # query flood

    def run_flood(self) -> None:
        """Flood the run's one query (id 0) from the sink, wave by wave.

        A wave's senders broadcast at one instant, in the order they were
        queued; one service time later each broadcast reaches the sender's
        alive neighbours in ascending id order.  Every advert of a wave
        carries the same hop count, so only a node's first reception can
        lower its hop, and such a reception queues the node for the next
        wave.  A sender that died since it was queued, or cannot pay for the
        broadcast, sends nothing, and the flood ends with a wave that sends
        nothing.

        A wave's receptions are settled per receiver, in the order of first
        receptions: one battery pass over the receiver's receptions
        (:meth:`_debit`) and one :func:`apply_data_req` call with the rows
        it completed.  A reception touches only its receiver's battery and
        table, so every node ends as handling the receptions one at a time
        would.  Every completed reception adds the same charge to
        ``dissipated``, so their order does not change the sum; a wave in
        which a battery ran out, or whose trace is kept, is walked once more
        in reception order (:meth:`_replay_wave`), which adds its charges
        and writes its trace lines in that order.

        A run floods once, on fresh tables, so every advert carries the
        initial battery level; a run that has flooded, or was restored from a
        :class:`FloodState` whose tables it shares, is refused.
        """
        if self.flood_broadcasts > 0:
            raise RuntimeError("a run floods its query once")
        self._trace("query_start", SINK, -1, 0, "")
        nodes = self.nodes
        tx_cost, rx_cost = self._tx_cost_broadcast, self._rx_cost
        tracing = self._trace_lines is not None
        neighbors, active_range = self.topology.neighbors, self.active_range
        updated = FloodAction.UPDATED_AND_REBROADCAST
        senders = [nodes[SINK]]
        while senders:
            adverts = []
            for node in senders:
                if not node.alive or not self._debit(node, tx_cost):
                    continue
                row = advert_from_fit(node.fit, self.config.e_init)
                adverts.append(row)
                self.flood_broadcasts += 1
                if tracing:
                    detail = f"hop={row.hop} energy={row.energy:.9f}"
                    self._trace("broadcast", node.id, -1, 0, detail)
            if not adverts:
                break
            self.now = self.now + self.config.service_time
            # each receiver's rows, receivers in the order of first reception
            heard: defaultdict[int, list[FitEntry]] = defaultdict(list)
            for row in adverts:
                for node_id in neighbors(row.neighbor, active_range):
                    heard[node_id].append(row)
            dissipated = self.dissipated
            lines = len(self._trace_lines) if tracing else 0
            settled: dict[int, tuple[int, FloodAction | None]] = {}
            partial: dict[int, float] = {}
            senders = []
            for node_id, rows in heard.items():
                node = nodes[node_id]
                if not node.alive:
                    continue
                done = self._debit(node, rx_cost, len(rows), partial)
                action = None
                if done:
                    old_hop = node.fit.self_hop
                    if done < len(rows):
                        rows = rows[:done]
                    node.fit, action = apply_data_req(node.fit, *rows)
                    assert node.fit.self_hop <= old_hop, "hop estimate must never worsen"
                    if action is updated:
                        senders.append(node)
                settled[node_id] = (done, action)
            if partial or tracing:
                self.dissipated = dissipated
                if tracing:
                    del self._trace_lines[lines:]  # the death lines, in receiver order
                self._replay_wave(adverts, settled, partial)

    def _replay_wave(
        self,
        adverts: list[FitEntry],
        settled: dict[int, tuple[int, FloodAction | None]],
        partial: dict[int, float],
    ) -> None:
        """Walk a settled wave's receptions in order: add each charge to
        ``dissipated`` at its place and trace its death and ``flood_rx`` line.

        ``settled`` maps each receiver alive when the wave arrived to its
        completed receptions and the first one's action, and ``partial``
        each receiver that could not afford a reception to what it spent.
        """
        nodes = self.nodes
        rx_cost = self._rx_cost
        seen: Counter[int] = Counter()  # each receiver's receptions so far
        for row in adverts:
            sender_id = row.neighbor
            for node_id in self.topology.neighbors(sender_id, self.active_range):
                outcome = settled.get(node_id)
                if outcome is None:
                    continue  # dead when the wave arrived
                done, action = outcome
                index = seen[node_id]
                seen[node_id] = index + 1
                if index < done:
                    if node_id != SINK:
                        self.dissipated += rx_cost
                    last = index == done - 1
                    if last and node_id not in partial and not nodes[node_id].alive:
                        self._trace("node_died", node_id, -1, -1, "energy_exhausted")
                    if index > 0 and action is not FloodAction.DROPPED:
                        action = FloodAction.RECORDED
                    self._trace("flood_rx", sender_id, node_id, 0, action.value)
                elif index == done and node_id in partial:
                    self.dissipated += partial[node_id]
                    self._trace("node_died", node_id, -1, -1, "energy_exhausted")

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
            self._kill(self.nodes[node_id], "injected_failure")
        self.failed_nodes = failed
        return failed

    # ------------------------------------------------------------------
    # replies

    def deliver_replies(self, sources: Iterable[int] | None = None) -> list[ReplyCopy]:
        """Answer one query: dispatch every source's reply copies and run to
        quiescence, with path construction rows from this round only."""
        self.pct = Pct()
        batch: list[ReplyCopy] = []
        for src in sources if sources is not None else self.sources:
            batch.extend(self._dispatch_source(src))
        self.copies = batch
        self._drain()
        assert all(copy.done for copy in batch), "every reply copy must resolve"
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
                pct_observe(self.pct, first, src_id, src_id)
        else:
            # Normal and delay-sensitive classes send their copies one after
            # another, each routed afresh when it reaches the radio.
            for k in range(n_copies):
                copy = self._new_copy(src_id, k, 0, None, None)
                copies.append(copy)
                self._enqueue_tx(node, copy)
        return copies

    def _route(self, node: NodeState, copy: ReplyCopy) -> RouteDecision | None:
        """The next hop of a copy without a forced one.  For the reliable
        classes the staged selectors of :mod:`qwsn.routing` choose, and the
        pick is recorded here as the node's own row of the round's PCT.

        A node never forwards the same copy to the same neighbour twice (the
        copy's ``forwarded`` memory), which makes repair walks
        edge-self-avoiding and therefore finite.  The plain class's stages
        make up Tarry's traversal (G. Tarry, 1895), and acks remove dead
        neighbours from the table, so on the alive graph a copy can run out
        of edges only at its source, after it has used every edge of the
        source's component in both directions: it reaches the sink whenever
        the source is still connected to it.  The hybrid sends without acks
        and does not backtrack.
        """
        prev = copy.prev_hop
        if self.qos not in _RELIABLE_CLASSES:
            excluded = frozenset() if prev is None else frozenset({prev})
            if self.qos is QosClass.NORMAL:
                return next_hop_normal(node.fit, excluded)
            return next_hop_delay(node.fit, self._wait, excluded)
        parent = copy.parent.get(node.id)
        tried = copy.forwarded.get(node.id, frozenset())
        if self.qos is QosClass.DELAY_RELIABLE:
            decision, _ = next_hop_delay_reliable_intermediate(
                node.fit, self.pct, copy.src, prev, tried, parent, wait=self._wait
            )
        else:
            threshold = self.config.e_threshold
            decision, _ = next_hop_reliable(
                node.fit, self.pct, copy.src, prev, tried, parent, e_threshold=threshold
            )
        if decision is not None:
            pct_observe(self.pct, decision.next_hop, copy.src, node.id)
        return decision

    def _transmit_reply(self, node: NodeState, copy: ReplyCopy) -> bool:
        if copy.latency_epoch is None:
            copy.latency_epoch = self.now
        if copy.ttl <= 0:
            self._finish_copy(copy, delivered=False, reason="ttl_expired")
            return False
        if copy.forced_next is not None:
            target = copy.forced_next
            copy.forced_next = None
            backtrack = False
        else:
            decision = self._route(node, copy)
            if decision is None:
                self._finish_copy(copy, delivered=False, reason="no_route")
                return False
            target = decision.next_hop
            backtrack = decision.rationale is Rationale.BACKTRACK
            if backtrack or decision.rationale is Rationale.FALLBACK:
                copy.fallback_used = True
        if self.qos in _RELIABLE_CLASSES:
            copy.forwarded.setdefault(node.id, set()).add(target)
        if not self._debit(
            node,
            tx_energy(
                self.config.packet_bits,
                self.topology.distance(node.id, target),
                self.config.e_elec,
                self.config.eps_amp,
            ),
        ):
            # _on_queue_service flushes the rest of the dead sender's queue
            self._finish_copy(copy, delivered=False, reason="sender_died")
            return False
        node.transmitting = True
        node.tx_end = self.now + self.config.service_time
        self._schedule(node.tx_end, self._on_tx_end, node.id, (target, copy, backtrack))
        if self._trace_lines is not None:
            detail = f"src={copy.src} copy={copy.copy_index} ttl={copy.ttl}"
            self._trace("unicast", node.id, target, 0, detail)
        return True

    def _on_tx_end(self, sender_id: int, data: tuple) -> None:
        """The end of one transmission: the sender's radio frees and serves
        its queue, and then the copy reaches the receiver."""
        receiver_id, copy, backtrack = data
        self._on_queue_service(sender_id, None)
        receiver = self.nodes[receiver_id]
        # The plain reliable class runs the link-layer acknowledgement and
        # repairs around detected failures; the delay-sensitive hybrid cannot
        # afford acknowledgement timeouts and relies on path redundancy.
        with_ack = self.qos is QosClass.RELIABLE
        if self.qos in _RELIABLE_CLASSES:
            # The header is overheard across the sender's neighbourhood and
            # feeds the path construction table of the reliable classes.
            pct_observe(self.pct, sender_id, copy.src)
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
        if with_ack and self._trace_lines is not None:
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
        """Trace-only: pushed only when a trace is kept."""
        self._trace("ack_arrive", receiver_id, sender_id, -1, "ok")

    def _on_ack_timeout(self, sender_id: int, data: tuple) -> None:
        failed_id, copy = data
        sender = self.nodes[sender_id]
        self._trace(
            "ack_timeout", sender_id, failed_id, 0, "neighbor_removed"
        )
        if not sender.alive:
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
        return RunMetrics(
            qos=self.qos,
            config=self.config,
            total_energy_dissipated=self.dissipated,
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
        sim.run_flood()
    sim.inject_failures()
    sim.deliver_replies()
    return sim.metrics()


def flood_state(config: SimConfig, qos: QosClass, topology: Topology) -> FloodState:
    """Flood ``topology`` once at ``qos``'s range; any class at that range
    and any failure fraction can start from the result."""
    sim = Simulation(config, qos, topology=topology)
    sim.run_flood()
    return FloodState(
        active_range=sim.active_range,
        now=sim.now,
        dissipated=sim.dissipated,
        flood_broadcasts=sim.flood_broadcasts,
        nodes=tuple(FloodNode(node.energy, node.alive, node.fit) for node in sim.nodes),
    )


def format_trace(trace: Iterable[tuple]) -> str:
    """Render trace tuples as tab-separated lines, one event per line."""
    lines = []
    for time, kind, src, dst, query_id, detail in trace:
        lines.append(f"{time:.9f}\t{kind}\t{src}\t{dst}\t{query_id}\t{detail}")
    return "\n".join(lines) + ("\n" if lines else "")
