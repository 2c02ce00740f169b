"""Independent reference selectors used to cross-check the routing engines.

Each function re-derives a selection rule as a direct, step-by-step
translation of the selection procedure, written without reference to the
package implementation.  They are deliberately naive (explicit loops,
re-sorting at every step) so that agreement with the optimized selectors on
exhaustively enumerated tables is meaningful evidence.

:func:`reference_flood` is the query flood as a discrete-event run, every
broadcast a queued job with its own radio service and arrival events; the
engine's breadth-first pass must leave exactly what it leaves.

:func:`bfs_hops` and :func:`reference_distances` are the placement oracles:
hop distances by a plain breadth-first search over the neighbour lists, and
the distance matrix as one ``(n, n, 2)`` difference array.
:func:`reference_chain` builds the chain baseline's greedy chain one
``np.linalg.norm`` at a time.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import combinations, count, product

import numpy as np

from qwsn.protocol import (
    HOP_INF,
    FloodAction,
    Fit,
    FitEntry,
    advert_from_fit,
    apply_data_req,
)
from qwsn.sim import SINK


def make_fit(entries, self_id=99, self_hop=5):
    table = {}
    for e in entries:
        table[e.neighbor] = e
    return Fit(self_id=self_id, self_hop=self_hop, entries=table)


def entry(neighbor, hop=1, energy=1.0, forwarders=()):
    return FitEntry(
        neighbor=neighbor, energy=energy, hop=hop, forwarders=tuple(forwarders)
    )


def _three_least_hop(entries):
    ranked = sorted(entries, key=lambda e: (e.hop, e.neighbor))
    return ranked[:3]


def oracle_next_hop_normal(fit, excluded=frozenset()):
    """Step list: shortlist three least-hop, take max energy, veto the pick
    when any of its forwarders is a neighbour of the selecting node, exclude
    and retry on veto, final pick after exhaustion ignores the veto."""
    pool = {n: e for n, e in fit.entries.items() if n not in excluded}
    if not pool:
        return None
    neighborhood = set(fit.entries)
    live = dict(pool)
    while live:
        shortlist = _three_least_hop(live.values())
        best = None
        for cand in shortlist:
            if best is None:
                best = cand
            elif cand.energy > best.energy:
                best = cand
            elif cand.energy == best.energy and (cand.hop, cand.neighbor) < (
                best.hop,
                best.neighbor,
            ):
                best = cand
        overlap = False
        for f in best.forwarders:
            if f in neighborhood:
                overlap = True
        if not overlap:
            return best.neighbor, "checked"
        del live[best.neighbor]
    shortlist = _three_least_hop(pool.values())
    best = None
    for cand in shortlist:
        if best is None:
            best = cand
        elif cand.energy > best.energy:
            best = cand
        elif cand.energy == best.energy and (cand.hop, cand.neighbor) < (
            best.hop,
            best.neighbor,
        ):
            best = cand
    return best.neighbor, "fallback"


def oracle_primary_reliable(fit, e_threshold):
    eligible = [e for e in fit.entries.values() if e.energy >= e_threshold]
    if not eligible:
        return None
    best = eligible[0]
    for cand in eligible[1:]:
        if (cand.hop, cand.neighbor) < (best.hop, best.neighbor):
            best = cand
    return best.neighbor


def oracle_alternates_reliable(fit, primary):
    rest = [e for e in fit.entries.values() if e.neighbor != primary]
    rest.sort(key=lambda e: (e.hop, e.neighbor))
    return tuple(e.neighbor for e in rest[:2])


def oracle_next_hop_delay(fit, queues, excluded=frozenset()):
    """``queues`` maps each neighbour id to its queue length."""
    live = [e for e in fit.entries.values() if e.neighbor not in excluded]
    if not live:
        return None
    shortlist = _three_least_hop(live)
    best = shortlist[0]
    for cand in shortlist[1:]:
        if (queues[cand.neighbor], cand.hop, cand.neighbor) < (
            queues[best.neighbor],
            best.hop,
            best.neighbor,
        ):
            best = cand
    return best.neighbor


def oracle_paths_delay_reliable(fit, queues):
    if not fit.entries:
        return None
    shortlist = _three_least_hop(fit.entries.values())
    ranked = sorted(shortlist, key=lambda e: (queues[e.neighbor], e.hop, e.neighbor))
    primary = ranked[0].neighbor
    alternates = tuple(e.neighbor for e in ranked[1:2])
    return primary, alternates


def node_pct_rows(fit, heard, own):
    """The ``(forwarder, src)`` rows the selecting node's own table would
    hold: every overheard pair, and the ``(node, forwarder, src)`` rows that
    name this node; other nodes' own rows are not its business."""
    rows = list(heard)
    for node, forwarder, src in own:
        if node == fit.self_id:
            rows.append((forwarder, src))
    return rows


def _least(rows, key):
    best = None
    for cand in rows:
        if best is None or key(cand) < key(best):
            best = cand
    return best


def _oracle_staged(
    fit, pct_rows, src, prev, tried, parent, key, e_threshold, first, backtrack
):
    """Step list of one reliable-class decision at a relay.

    Fresh rows are those other than ``prev``, ``parent`` and the ``tried``
    ones; near rows are the fresh rows whose hop count is at most the
    node's.  Stage 1: the best near row whose energy clears ``e_threshold``
    (``None``: no threshold) and that no PCT row names for ``src``; the
    rationale turns to alternate once a blocked row was passed over.
    Stage 2: the best near row.  Stage 3: the best fresh row.  Stage 4, only
    with ``backtrack``: ``prev``, then ``parent``, when it is in the table
    and not tried.  Returns ``(neighbour, rationale value)``.
    """
    fresh = []
    for n, e in fit.entries.items():
        if n != prev and n != parent and n not in tried:
            fresh.append(e)
    near = [e for e in fresh if e.hop <= fit.self_hop]
    live = [e for e in near if e_threshold is None or e.energy >= e_threshold]
    rationale = first
    while live:
        best = _least(live, key)
        if (best.neighbor, src) in pct_rows:
            rationale = "alternate_reliable"
            live.remove(best)
            continue
        return best.neighbor, rationale
    if near:
        return _least(near, key).neighbor, "fallback"
    if fresh:
        return _least(fresh, key).neighbor, "fallback"
    if backtrack:
        for back in (prev, parent):
            if back is not None and back in fit.entries and back not in tried:
                return back, "backtrack"
    return None


def oracle_next_hop_reliable(
    fit, pct_rows, src, prev=None, tried=frozenset(), parent=None, e_threshold=0.0
):
    """Plain class: least ``(hop, id)`` first, the threshold in stage 1, and
    backtracks once every other edge is used."""
    return _oracle_staged(
        fit,
        pct_rows,
        src,
        prev,
        tried,
        parent,
        key=lambda e: (e.hop, e.neighbor),
        e_threshold=e_threshold,
        first="primary_reliable",
        backtrack=True,
    )


def oracle_next_hop_delay_reliable(
    fit, queues, pct_rows, src, prev=None, tried=frozenset(), parent=None
):
    """Hybrid class: least ``(queue, hop, id)`` first, no threshold and no
    backtracks."""
    return _oracle_staged(
        fit,
        pct_rows,
        src,
        prev,
        tried,
        parent,
        key=lambda e: (queues[e.neighbor], e.hop, e.neighbor),
        e_threshold=None,
        first="min_wait",
        backtrack=False,
    )


def reference_pct_observe(rows, forwarder, src):
    """Value-semantics path table of one node: a new tuple of
    ``(forwarder, src)`` rows per new row; duplicates leave it unchanged."""
    row = (forwarder, src)
    if row in rows:
        return rows
    return rows + (row,)


def enumerate_tables(max_size, hop_values, energy_values, queue_values, forwarder_pools):
    """Yield ``(fit, queues)`` over ids 1..max_size with every attribute
    combination; ``queues`` maps each neighbour id to its queue length.

    ``forwarder_pools`` is a function id -> candidate forwarder tuples for
    that entry (kept small by callers to bound the product).
    """
    ids = list(range(1, max_size + 1))
    for size in range(1, max_size + 1):
        chosen = ids[:size]

        def expand(idx, acc, queues):
            if idx == len(chosen):
                yield make_fit(list(acc)), dict(queues)
                return
            nid = chosen[idx]
            for hop in hop_values:
                for energy in energy_values:
                    for queue in queue_values:
                        for fwd in forwarder_pools(nid, chosen):
                            acc.append(
                                entry(nid, hop=hop, energy=energy, forwarders=fwd)
                            )
                            queues[nid] = queue
                            yield from expand(idx + 1, acc, queues)
                            acc.pop()
                            del queues[nid]

        yield from expand(0, [], {})


def all_pct_row_sets(ids, node, other_node, src, other_src, max_rows=2):
    """Small universe of round tables touching the given ids, as
    ``(heard, own)`` row tuples: per id, the overheard pair and ``node``'s
    own row for ``src``, which both block, and ``other_node``'s own row for
    ``src``, which does not; for the least id also the overheard pair and
    ``node``'s own row for ``other_src``, which do not block either."""
    universe = [("heard", (ids[0], other_src)), ("own", (node, ids[0], other_src))]
    for i in ids:
        universe += [
            ("heard", (i, src)),
            ("own", (node, i, src)),
            ("own", (other_node, i, src)),
        ]
    for k in range(max_rows + 1):
        for combo in combinations(universe, k):
            heard = tuple(row for part, row in combo if part == "heard")
            own = tuple(row for part, row in combo if part == "own")
            yield heard, own


# ---------------------------------------------------------------------------
# exhaustive equivalence drivers (shared by the unit and acceptance suites)

_SRC, _OTHER = 77, 78


def check_next_hop_normal_equivalence(max_size=4):
    from qwsn.routing import Rationale, next_hop_normal

    def forwarder_pool(nid, chosen):
        other = next((c for c in chosen if c != nid), None)
        pools = [(), (9,)]
        if other is not None:
            pools.append((other,))
        return pools

    count = 0
    for fit, _ in enumerate_tables(
        max_size,
        hop_values=(1, 2),
        energy_values=(0.25, 1.0),
        queue_values=(0,),
        forwarder_pools=forwarder_pool,
    ):
        for excluded in (frozenset(), frozenset({1})):
            got = next_hop_normal(fit, excluded)
            expected = oracle_next_hop_normal(fit, excluded)
            if expected is None:
                assert got is None
            else:
                assert got.next_hop == expected[0], (fit, excluded)
                assert (got.rationale is Rationale.FALLBACK) == (
                    expected[1] == "fallback"
                ), (fit, excluded)
            count += 1
    return count


def check_reliable_selector_equivalence(max_size=4):
    from qwsn.routing import alternates_reliable, primary_reliable

    count = 0
    for fit, _ in enumerate_tables(
        max_size,
        hop_values=(1, 2, 3),
        energy_values=(0.005, 1.0),
        queue_values=(0,),
        forwarder_pools=lambda nid, chosen: [()],
    ):
        decision = primary_reliable(fit, 0.01)
        assert (
            decision.next_hop if decision else None
        ) == oracle_primary_reliable(fit, 0.01), fit
        if decision is not None:
            assert alternates_reliable(fit, decision.next_hop) == (
                oracle_alternates_reliable(fit, decision.next_hop)
            ), fit
        count += 1
    return count


def check_delay_selector_equivalence(max_size=4):
    from qwsn.routing import next_hop_delay, paths_delay_reliable

    count = 0
    for fit, queues in enumerate_tables(
        max_size,
        hop_values=(1, 2),
        energy_values=(1.0,),
        queue_values=(0, 1, 2),
        forwarder_pools=lambda nid, chosen: [()],
    ):
        wait = queues.__getitem__
        for excluded in (frozenset(), frozenset({1})):
            got = next_hop_delay(fit, wait, excluded)
            expected = oracle_next_hop_delay(fit, queues, excluded)
            assert (got.next_hop if got else None) == expected, (fit, queues, excluded)
        paths = paths_delay_reliable(fit, wait)
        expected = oracle_paths_delay_reliable(fit, queues)
        if expected is None:
            assert paths is None
        else:
            assert (paths[0], paths[1:]) == expected, (fit, queues)
        count += 1
    return count


def walk_memories(ids, absent=9):
    """``(prev, tried, parent)`` walk states over a table's ids.

    The first three leave candidates for the PCT to block: no memory at
    all, ``prev`` and ``parent`` excluded, and one tried edge.  The last
    three leave none: the way back to ``prev``, the way back to ``parent``,
    and a ``prev`` no longer in the table with every edge used.
    """
    first, last, every = ids[0], ids[-1], frozenset(ids)
    explore = [
        (None, frozenset(), None),
        (first, frozenset(), last),
        (last, frozenset({first}), None),
    ]
    exhaust = [
        (first, every - {first}, last),
        (first, every - {last}, last),
        (absent, every, None),
    ]
    return explore, exhaust


def check_pct_selector_equivalence(max_size=3, e_threshold=0.01):
    from qwsn.routing import (
        Pct,
        next_hop_delay_reliable_intermediate,
        next_hop_reliable,
        pct_observe,
    )

    count = 0
    for fit, queues in enumerate_tables(
        max_size,
        hop_values=(1, 2),
        energy_values=(0.005, 1.0),
        queue_values=(0, 1),
        forwarder_pools=lambda nid, chosen: [()],
    ):
        # queue lengths do not rank the plain class, nor energy the hybrid
        plain = not any(queues.values())
        hybrid = plain or all(e.energy == 1.0 for e in fit.entries.values())
        if not hybrid:
            continue
        wait = queues.__getitem__
        ids = sorted(fit.entries)
        other_node = ids[0]  # a neighbour's own rows are not this node's
        explore, exhaust = walk_memories(ids)
        for heard, own in all_pct_row_sets(ids, fit.self_id, other_node, _SRC, _OTHER):
            pct = Pct()
            for forwarder, src in heard:
                pct_observe(pct, forwarder, src)
            for node, forwarder, src in own:
                pct_observe(pct, forwarder, src, node)
            rows = node_pct_rows(fit, heard, own)
            # the PCT matters only while candidates are left
            memories = explore if heard or own else explore + exhaust
            # rows of hop 2 are farther from the sink than a node of hop 1
            # and level with one of hop 2, and rows of hop 1 are closer
            for self_hop, (prev, tried, parent) in product((1, 2), memories):
                fit.self_hop = self_hop
                where = (fit, heard, own, prev, tried, parent)
                if plain:
                    got, _ = next_hop_reliable(
                        fit, pct, _SRC, prev, tried, parent, e_threshold=e_threshold
                    )
                    expected = oracle_next_hop_reliable(
                        fit, rows, _SRC, prev, tried, parent, e_threshold
                    )
                    assert _outcome(got) == expected, where
                got, _ = next_hop_delay_reliable_intermediate(
                    fit, pct, _SRC, prev, tried, parent, wait=wait
                )
                expected = oracle_next_hop_delay_reliable(
                    fit, queues, rows, _SRC, prev, tried, parent
                )
                assert _outcome(got) == expected, where
                count += 1
            # selectors only read the table
            assert (pct.heard, pct.own) == (set(heard), set(own)), (fit, heard, own)
    return count


def _outcome(decision):
    return None if decision is None else (decision.next_hop, decision.rationale.value)


def reference_flood(sim):
    """Flood ``sim``'s query as discrete events on the run's own state.

    Events are ``(time, insertion order, handler, node, data)`` and pop in
    that order.  A node queues its broadcast when a reception lowers its hop
    count and none is queued; the queue service sends it, occupying the
    radio for one service time, at whose end a radio-service event and the
    broadcast's arrival event fall.  The arrival delivers the advert to the
    sender's alive neighbours in ascending id order.  A dead node's queue is
    flushed unsent.  Charges, kills and trace lines go through ``sim``.
    """
    heap, order = [], count()
    queued = [0] * len(sim.nodes)
    pending = [False] * len(sim.nodes)
    transmitting = [False] * len(sim.nodes)
    tx_end = [0.0] * len(sim.nodes)
    service_time = sim.config.service_time

    def schedule(time, handler, node_id, data=None):
        assert time >= sim.now
        heapq.heappush(heap, (time, next(order), handler, node_id, data))

    def enqueue(node_id):
        queued[node_id] += 1
        if not transmitting[node_id]:
            schedule(sim.now, on_queue_service, node_id)

    def transmit(node):
        pending[node.id] = False
        if not sim._debit(node, sim._tx_cost_broadcast):
            return False
        row = advert_from_fit(node.fit, sim.config.e_init)
        transmitting[node.id] = True
        tx_end[node.id] = sim.now + service_time
        schedule(tx_end[node.id], on_queue_service, node.id)
        sim.flood_broadcasts += 1
        detail = f"hop={row.hop} energy={row.energy:.9f}"
        sim._trace("broadcast", node.id, -1, 0, detail)
        schedule(tx_end[node.id], on_arrive, node.id, row)
        return True

    def on_queue_service(node_id, _data):
        node = sim.nodes[node_id]
        if not node.alive:
            queued[node_id] = 0
            transmitting[node_id] = False
            return
        if transmitting[node_id]:
            if sim.now < tx_end[node_id]:
                return
            transmitting[node_id] = False
        if not queued[node_id]:
            return
        queued[node_id] -= 1
        started = transmit(node)
        if not node.alive:
            queued[node_id] = 0
            transmitting[node_id] = False
        elif not started and queued[node_id]:
            schedule(sim.now, on_queue_service, node_id)

    def on_arrive(sender_id, row):
        for node_id in sim.topology.neighbors(sender_id, sim.active_range):
            node = sim.nodes[node_id]
            if not node.alive or not sim._debit(node, sim._rx_cost):
                continue
            old_hop = node.fit.self_hop
            node.fit, action = apply_data_req(node.fit, row)
            assert node.fit.self_hop <= old_hop
            sim._trace("flood_rx", sender_id, node_id, 0, action.value)
            if action is FloodAction.UPDATED_AND_REBROADCAST and not pending[node_id]:
                pending[node_id] = True
                enqueue(node_id)

    sim._trace("query_start", SINK, -1, 0, "")
    enqueue(SINK)
    while heap:
        time, _, handler, node_id, data = heapq.heappop(heap)
        assert time >= sim.now
        sim.now = time
        handler(node_id, data)


def bfs_hops(topology, sink, range_m, alive=None):
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


def reference_distances(positions):
    """Pairwise Euclidean distances through one ``(n, n, 2)`` difference
    array, squared and summed over its last axis."""
    positions = np.asarray(positions, dtype=float)
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def reference_chain(positions, alive, bs_position):
    """The greedy chain: start at the alive node farthest from the base
    station (ties to the larger id), then append the nearest unchained alive
    node to the tail (ties to the smaller id), lengths by ``np.linalg.norm``."""
    bs = np.asarray(bs_position, dtype=float)
    remaining = [i for i in range(len(positions)) if alive[i]]
    farthest = max(
        remaining, key=lambda i: (float(np.linalg.norm(positions[i] - bs)), i)
    )
    chain = [farthest]
    remaining.remove(chain[0])
    while remaining:
        tail = positions[chain[-1]]
        nearest = min(
            remaining, key=lambda i: (float(np.linalg.norm(positions[i] - tail)), i)
        )
        chain.append(nearest)
        remaining.remove(nearest)
    return chain
