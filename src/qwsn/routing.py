"""Next-hop and path selection for the four service classes.

Selectors read the caller's tables and never change them: neither the
forwarding table nor the path construction table (PCT).  They return
``None`` when no usable neighbour remains ("no route").  The PCT has one
insert/evict rule, :func:`pct_observe`, which only the engine calls: it
records the pick a node commits to, since choosing a forwarder puts it on
the path for that source/destination pair, as well as the first hops of a
dispatch and every overheard reply.  The wait-ranked selectors of the
delay-sensitive classes take a lookup ``wait(node_id)`` that returns a
neighbour's current transmit-queue length; the table stores no queue
lengths.

Tie-breaking is deterministic throughout: candidates compare by
``(ranking key..., hop, node id)`` so identical tables always yield
identical decisions regardless of insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable

from .protocol import Fit, FitEntry

# Looks up a neighbour's current transmit-queue length by node id.
Wait = Callable[[int], int]

# Path construction tables live on memory-constrained sensors; rows beyond
# this bound evict oldest-first.
PCT_CAPACITY = 64

_CANDIDATES = 3  # selectors shortlist the three least-hop neighbours


@dataclass
class Pct:
    """Path construction table: (forwarder, source, destination) rows.

    ``rows`` is an insertion-ordered dict used as a set, keyed by
    ``(node_id, src, dst)`` tuples, each the overheard fact that ``node_id``
    forwards traffic from src to dst.  Membership is O(1) and capacity
    eviction is oldest-first.
    """

    rows: dict[tuple[int, int, int], None] = field(default_factory=dict)
    capacity: int = PCT_CAPACITY


def pct_observe(
    tables: Iterable[Pct], overheard_forwarder: int, src: int, dst: int
) -> None:
    """Record one forwarding event in every given table, in place.

    One transmission is overheard by many nodes, so the row is built once
    and each table applies the same rule: a duplicate is a no-op, and a new
    row past capacity evicts the table's oldest one.
    """
    row = (overheard_forwarder, src, dst)
    for pct in tables:
        rows = pct.rows
        if row not in rows:
            rows[row] = None
            if len(rows) > pct.capacity:
                del rows[next(iter(rows))]


def _pct_blocks(pct: Pct, node_id: int, src: int, dst: int) -> bool:
    """True when the PCT already places ``node_id`` on the (src, dst) path."""
    return (node_id, src, dst) in pct.rows


class Rationale(Enum):
    MIN_HOP_MAX_ENERGY = "min_hop_max_energy"
    PRIMARY_RELIABLE = "primary_reliable"
    ALTERNATE_RELIABLE = "alternate_reliable"
    MIN_WAIT = "min_wait"
    FALLBACK = "fallback"
    BACKTRACK = "backtrack"


@dataclass(frozen=True)
class RouteDecision:
    next_hop: int
    rationale: Rationale


def _by_hop_id(entry: FitEntry) -> tuple[int, int]:
    return (entry.hop, entry.neighbor)


def _by_energy_hop_id(entry: FitEntry) -> tuple[float, int, int]:
    # Max energy first; hop then id break exact energy ties so that equally
    # charged neighbours resolve toward the sink.
    return (-entry.energy, entry.hop, entry.neighbor)


def _by_wait_hop_id(wait: Wait) -> Callable[[FitEntry], tuple[int, int, int]]:
    # Queue length orders waiting time for a fixed per-packet service time.
    return lambda entry: (wait(entry.neighbor), entry.hop, entry.neighbor)


def _hop_shortlist(fit: Fit, excluded: frozenset[int] | set[int]) -> list[FitEntry]:
    """The three least-hop rows not in ``excluded``, in ``(hop, id)`` order."""
    shortlist = []
    for e in fit.by_hop:
        if e.neighbor not in excluded:
            shortlist.append(e)
            if len(shortlist) == _CANDIDATES:
                break
    return shortlist


def next_hop_normal(
    fit: Fit, excluded: frozenset[int] | set[int] = frozenset()
) -> RouteDecision | None:
    """Energy-aware least-hop selection for the normal class.

    Shortlist the three least-hop neighbours, pick the one with the most
    energy, and accept it unless one of its advertised forwarders is itself a
    neighbour of the selecting node (in which case the packet could have been
    sent a hop closer directly, so the pick is discarded and the selection
    repeats).  When every neighbour is discarded this way, fall back to the
    plain least-hop/max-energy pick so that delivery never fails on a
    connected table.
    """
    pool = [e for e in fit.by_hop if e.neighbor not in excluded]
    if not pool:
        return None
    neighborhood = fit.entries.keys()
    remaining = list(pool)  # stays in (hop, id) order as picks are dropped
    while remaining:
        pick = min(remaining[:_CANDIDATES], key=_by_energy_hop_id)
        if not set(pick.forwarders) & neighborhood:
            return RouteDecision(pick.neighbor, Rationale.MIN_HOP_MAX_ENERGY)
        remaining.remove(pick)
    pick = min(pool[:_CANDIDATES], key=_by_energy_hop_id)
    return RouteDecision(pick.neighbor, Rationale.FALLBACK)


def primary_reliable(fit: Fit, e_threshold: float) -> RouteDecision | None:
    """Least-hop neighbour whose energy clears the forwarding threshold."""
    for e in fit.by_hop:
        if e.energy >= e_threshold:
            return RouteDecision(e.neighbor, Rationale.PRIMARY_RELIABLE)
    return None


def alternates_reliable(fit: Fit, primary: int) -> tuple[int, ...]:
    """Up to two alternate first hops: least-hop neighbours besides the primary."""
    return tuple(e.neighbor for e in _hop_shortlist(fit, {primary})[:2])


def next_hop_delay(
    fit: Fit, wait: Wait, excluded: frozenset[int] | set[int] = frozenset()
) -> RouteDecision | None:
    """Minimum-waiting-time pick among the three least-hop neighbours.

    Waiting time is estimated from the queue length ``wait`` reports; ties
    resolve to the least-hop then least-id candidate.
    """
    shortlist = _hop_shortlist(fit, excluded)
    if not shortlist:
        return None
    pick = min(shortlist, key=_by_wait_hop_id(wait))
    return RouteDecision(pick.neighbor, Rationale.MIN_WAIT)


def paths_delay_reliable(fit: Fit, wait: Wait) -> tuple[int, ...] | None:
    """Distinct first hops for the hybrid class: primary, then at most one
    alternate.

    The primary is the minimum-waiting-time pick; the alternate is the
    next-least-waiting-time candidate among the remaining least-hop
    shortlist.
    """
    shortlist = _hop_shortlist(fit, frozenset())
    if not shortlist:
        return None
    rank = _by_wait_hop_id(wait)
    primary = min(shortlist, key=rank)
    rest = [e for e in shortlist if e.neighbor != primary.neighbor]
    if not rest:
        return (primary.neighbor,)
    return (primary.neighbor, min(rest, key=rank).neighbor)


def _next_hop_pct_checked(
    fit: Fit,
    pct: Pct,
    src: int,
    dst: int,
    excluded: frozenset[int] | set[int] = frozenset(),
    *,
    rank: Callable[[FitEntry], tuple],
    first: Rationale,
) -> tuple[RouteDecision | None, Pct]:
    """PCT-checked selection used at reliable-class intermediates.

    The best-ranked neighbour is taken unless the local PCT already records
    it on the path of this very (src, dst) pair, in which case it is excluded
    and the search repeats; appearing on other pairs' paths is fine.  The
    pick's rationale is ``first`` if no neighbour was skipped, else
    ``ALTERNATE_RELIABLE``.  The PCT is only read: the engine records the
    pick once it commits to it.

    Returns ``(decision, pct)`` with the given table unchanged, a shape the
    benchmark's tracer relies on (it reads the decision as ``result[0]``).
    """
    remaining = {n: e for n, e in fit.entries.items() if n not in excluded}
    skipped = False
    while remaining:
        pick = min(remaining.values(), key=rank)
        if _pct_blocks(pct, pick.neighbor, src, dst):
            del remaining[pick.neighbor]
            skipped = True
            continue
        rationale = Rationale.ALTERNATE_RELIABLE if skipped else first
        return RouteDecision(pick.neighbor, rationale), pct
    return None, pct


# Plain reliable class: least hop first; returns ``(decision, pct)``.
next_hop_reliable = partial(
    _next_hop_pct_checked, rank=_by_hop_id, first=Rationale.PRIMARY_RELIABLE
)


def next_hop_delay_reliable_intermediate(
    fit: Fit,
    pct: Pct,
    src: int,
    dst: int,
    excluded: frozenset[int] | set[int] = frozenset(),
    *,
    wait: Wait,
) -> tuple[RouteDecision | None, Pct]:
    """Hybrid class: least waiting time first; hop count and id break ties.
    Returns ``(decision, pct)`` like :func:`next_hop_reliable`."""
    rank = _by_wait_hop_id(wait)
    return _next_hop_pct_checked(
        fit, pct, src, dst, excluded, rank=rank, first=Rationale.MIN_WAIT
    )


def remove_failed(fit: Fit, neighbor: int) -> Fit:
    """Delete a neighbour detected as failed; absent neighbours are no-ops."""
    if neighbor not in fit.entries:
        return fit
    entries = dict(fit.entries)
    del entries[neighbor]
    return replace(fit, entries=entries)
