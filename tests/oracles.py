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


def entry(neighbor, hop=1, energy=1.0, forwarders=(), queue_len=0):
    return FitEntry(
        neighbor=neighbor,
        energy=energy,
        hop=hop,
        forwarders=tuple(forwarders),
        queue_len=queue_len,
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


def oracle_next_hop_delay(fit):
    if not fit.entries:
        return None
    shortlist = _three_least_hop(fit.entries.values())
    best = shortlist[0]
    for cand in shortlist[1:]:
        if (cand.queue_len, cand.hop, cand.neighbor) < (
            best.queue_len,
            best.hop,
            best.neighbor,
        ):
            best = cand
    return best.neighbor


def oracle_paths_delay_reliable(fit):
    if not fit.entries:
        return None
    shortlist = _three_least_hop(fit.entries.values())
    ranked = sorted(shortlist, key=lambda e: (e.queue_len, e.hop, e.neighbor))
    primary = ranked[0].neighbor
    alternates = tuple(e.neighbor for e in ranked[1:2])
    return primary, alternates


def oracle_next_hop_reliable(fit, pct_rows, src, dst, excluded=frozenset()):
    """Step list: least-hop candidate; blocked when the table has a row
    naming it for this very pair; excluded rows for other pairs do not
    block."""
    live = {n: e for n, e in fit.entries.items() if n not in excluded}
    while live:
        best = None
        for cand in live.values():
            if best is None or (cand.hop, cand.neighbor) < (best.hop, best.neighbor):
                best = cand
        blocked = False
        for row in pct_rows:
            if row == (best.neighbor, src, dst):
                blocked = True
        if blocked:
            del live[best.neighbor]
            continue
        return best.neighbor
    return None


def oracle_next_hop_delay_reliable(fit, pct_rows, src, dst, excluded=frozenset()):
    live = {n: e for n, e in fit.entries.items() if n not in excluded}
    while live:
        best = None
        for cand in live.values():
            if best is None or (cand.queue_len, cand.hop, cand.neighbor) < (
                best.queue_len,
                best.hop,
                best.neighbor,
            ):
                best = cand
        if (best.neighbor, src, dst) in pct_rows:
            del live[best.neighbor]
            continue
        return best.neighbor
    return None


def reference_pct_observe(rows, overheard_forwarder, src, dst, capacity):
    """Value-semantics path table: a new tuple of rows per new row.

    Duplicates leave the rows unchanged; past ``capacity`` only the newest
    ``capacity`` rows are kept.
    """
    row = (overheard_forwarder, src, dst)
    if row in rows:
        return rows
    rows = rows + (row,)
    if len(rows) > capacity:
        rows = rows[len(rows) - capacity :]
    return rows


def enumerate_tables(max_size, hop_values, energy_values, queue_values, forwarder_pools):
    """Yield fits over ids 1..max_size with every attribute combination.

    ``forwarder_pools`` is a function id -> candidate forwarder tuples for
    that entry (kept small by callers to bound the product).
    """
    ids = list(range(1, max_size + 1))
    for size in range(1, max_size + 1):
        chosen = ids[:size]

        def expand(idx, acc):
            if idx == len(chosen):
                yield make_fit(list(acc))
                return
            nid = chosen[idx]
            for hop in hop_values:
                for energy in energy_values:
                    for queue in queue_values:
                        for fwd in forwarder_pools(nid, chosen):
                            acc.append(
                                entry(
                                    nid,
                                    hop=hop,
                                    energy=energy,
                                    forwarders=fwd,
                                    queue_len=queue,
                                )
                            )
                            yield from expand(idx + 1, acc)
                            acc.pop()

        yield from expand(0, [])


def all_pct_row_sets(ids, src, dst, other_src, max_rows=2):
    """Small universe of path-table row sets touching the given ids."""
    universe = [(i, src, dst) for i in ids] + [(i, other_src, dst) for i in ids]
    yield ()
    for k in range(1, max_rows + 1):
        for combo in combinations(universe, k):
            yield combo


# ---------------------------------------------------------------------------
# exhaustive equivalence drivers (shared by the unit and acceptance suites)

_SRC, _DST, _OTHER = 77, 0, 78


def check_next_hop_normal_equivalence(max_size=4):
    from qwsn.routing import Rationale, next_hop_normal

    def forwarder_pool(nid, chosen):
        other = next((c for c in chosen if c != nid), None)
        pools = [(), (9,)]
        if other is not None:
            pools.append((other,))
        return pools

    count = 0
    for fit in enumerate_tables(
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
    for fit in enumerate_tables(
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
    for fit in enumerate_tables(
        max_size,
        hop_values=(1, 2),
        energy_values=(1.0,),
        queue_values=(0, 1, 2),
        forwarder_pools=lambda nid, chosen: [()],
    ):
        got = next_hop_delay(fit)
        assert (got.next_hop if got else None) == oracle_next_hop_delay(fit), fit
        paths = paths_delay_reliable(fit)
        expected = oracle_paths_delay_reliable(fit)
        if expected is None:
            assert paths is None
        else:
            assert (paths.primary, paths.alternates) == expected, fit
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
    for fit in enumerate_tables(
        max_size,
        hop_values=(1, 2),
        energy_values=(1.0,),
        queue_values=(0, 1),
        forwarder_pools=lambda nid, chosen: [()],
    ):
        ids = sorted(fit.entries)
        for rows in all_pct_row_sets(ids, _SRC, _DST, _OTHER):

            def fresh_pct():
                # a selector records its pick in the table it is given
                pct = Pct()
                for node_id, s, d in rows:
                    pct_observe((pct,), node_id, s, d)
                return pct

            got, _ = next_hop_reliable(fit, fresh_pct(), _SRC, _DST)
            expected = oracle_next_hop_reliable(fit, rows, _SRC, _DST)
            assert (got.next_hop if got else None) == expected, (fit, rows)
            got, _ = next_hop_delay_reliable_intermediate(fit, fresh_pct(), _SRC, _DST)
            expected = oracle_next_hop_delay_reliable(fit, rows, _SRC, _DST)
            assert (got.next_hop if got else None) == expected, (fit, rows)
            count += 1
    return count
