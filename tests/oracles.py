"""Independent reference selectors used to cross-check the routing engines.

Each function re-derives a selection rule as a direct, step-by-step
translation of the selection procedure, written without reference to the
package implementation.  They are deliberately naive (explicit loops,
re-sorting at every step) so that agreement with the optimized selectors on
exhaustively enumerated tables is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations

from qwsn.protocol import Fit, FitEntry


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


def _sink_ward(fit, excluded):
    """The rows not in ``excluded`` whose hop count is at most the node's."""
    live = {}
    for n, e in fit.entries.items():
        if n not in excluded and e.hop <= fit.self_hop:
            live[n] = e
    return live


def oracle_next_hop_reliable(fit, pct_rows, src, excluded=frozenset()):
    """Step list: drop rows farther from the sink than the node; least-hop
    candidate; blocked when the table has a row naming it for this very
    source; rows for other sources do not block."""
    live = _sink_ward(fit, excluded)
    while live:
        best = None
        for cand in live.values():
            if best is None or (cand.hop, cand.neighbor) < (best.hop, best.neighbor):
                best = cand
        blocked = False
        for row in pct_rows:
            if row == (best.neighbor, src):
                blocked = True
        if blocked:
            del live[best.neighbor]
            continue
        return best.neighbor
    return None


def oracle_next_hop_delay_reliable(fit, queues, pct_rows, src, excluded=frozenset()):
    """As :func:`oracle_next_hop_reliable`, least queue length first."""
    live = _sink_ward(fit, excluded)
    while live:
        best = None
        for cand in live.values():
            if best is None or (queues[cand.neighbor], cand.hop, cand.neighbor) < (
                queues[best.neighbor],
                best.hop,
                best.neighbor,
            ):
                best = cand
        if (best.neighbor, src) in pct_rows:
            del live[best.neighbor]
            continue
        return best.neighbor
    return None


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


def check_pct_selector_equivalence(max_size=4):
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
        energy_values=(1.0,),
        queue_values=(0, 1),
        forwarder_pools=lambda nid, chosen: [()],
    ):
        ids = sorted(fit.entries)
        other_node = ids[0]  # a neighbour's own rows are not this node's
        for heard, own in all_pct_row_sets(ids, fit.self_id, other_node, _SRC, _OTHER):
            pct = Pct()
            for forwarder, src in heard:
                pct_observe(pct, forwarder, src)
            for node, forwarder, src in own:
                pct_observe(pct, forwarder, src, node)
            rows = node_pct_rows(fit, heard, own)
            # rows of hop 2 are farther from the sink than a node of hop 1
            # and level with one of hop 2, and rows of hop 1 are closer
            for self_hop in (1, 2):
                fit.self_hop = self_hop
                where = (fit, heard, own)
                # queue lengths do not rank the plain class, so one
                # assignment of them covers it
                if not any(queues.values()):
                    got, _ = next_hop_reliable(fit, pct, _SRC)
                    expected = oracle_next_hop_reliable(fit, rows, _SRC)
                    assert (got.next_hop if got else None) == expected, where
                got, _ = next_hop_delay_reliable_intermediate(
                    fit, pct, _SRC, wait=queues.__getitem__
                )
                expected = oracle_next_hop_delay_reliable(fit, queues, rows, _SRC)
                assert (got.next_hop if got else None) == expected, where
            # selectors only read the table
            assert (pct.heard, pct.own) == (set(heard), set(own)), (fit, heard, own)
            count += 1
    return count
