"""Next-hop and path selection for the four service classes.

Selectors read the caller's forwarding table and never change it.  They
return ``None`` when no usable neighbour remains ("no route").  The
reliable-class selectors also record their pick in the caller's path
construction table, in place, since choosing a forwarder puts it on the
path for that source/destination pair; they return that same table next to
the decision.

Tie-breaking is deterministic throughout: candidates compare by
``(ranking key..., hop, node id)`` so identical tables always yield
identical decisions regardless of insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable, NamedTuple

from .protocol import Fit, FitEntry

# Path construction tables live on memory-constrained sensors; rows beyond
# this bound evict oldest-first.
PCT_CAPACITY = 64

_CANDIDATES = 3  # selectors shortlist the three least-hop neighbours


class PctEntry(NamedTuple):
    """One overheard fact: ``node_id`` forwards traffic from src to dst."""

    node_id: int
    src: int
    dst: int


@dataclass
class Pct:
    """Path construction table: (forwarder, source, destination) rows.

    ``rows`` is an insertion-ordered dict used as a set, keyed by plain
    ``(node_id, src, dst)`` tuples (:class:`PctEntry` compares equal to
    them), so membership is O(1) and capacity eviction is oldest-first.
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


@dataclass(frozen=True)
class PathSet:
    """First hops of a multipath dispatch: one primary, up to two alternates."""

    primary: int
    alternates: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        hops = (self.primary, *self.alternates)
        if len(set(hops)) != len(hops):
            raise ValueError(f"first hops must be pairwise distinct: {hops}")

    @property
    def first_hops(self) -> tuple[int, ...]:
        return (self.primary, *self.alternates)


def _by_hop_id(entry: FitEntry) -> tuple[int, int]:
    return (entry.hop, entry.neighbor)


def _by_energy_hop_id(entry: FitEntry) -> tuple[float, int, int]:
    # Max energy first; hop then id break exact energy ties so that equally
    # charged neighbours resolve toward the sink.
    return (-entry.energy, entry.hop, entry.neighbor)


def _by_wait_hop_id(entry: FitEntry) -> tuple[int, int, int]:
    # Queue length orders waiting time for a fixed per-packet service time.
    return (entry.queue_len, entry.hop, entry.neighbor)


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
    pool = {n: e for n, e in fit.entries.items() if n not in excluded}
    if not pool:
        return None
    neighborhood = fit.entries.keys()
    remaining = dict(pool)
    while remaining:
        shortlist = sorted(remaining.values(), key=_by_hop_id)[:_CANDIDATES]
        pick = min(shortlist, key=_by_energy_hop_id)
        if not set(pick.forwarders) & neighborhood:
            return RouteDecision(pick.neighbor, Rationale.MIN_HOP_MAX_ENERGY)
        del remaining[pick.neighbor]
    shortlist = sorted(pool.values(), key=_by_hop_id)[:_CANDIDATES]
    pick = min(shortlist, key=_by_energy_hop_id)
    return RouteDecision(pick.neighbor, Rationale.FALLBACK)


def primary_reliable(fit: Fit, e_threshold: float) -> RouteDecision | None:
    """Least-hop neighbour whose energy clears the forwarding threshold."""
    survivors = [e for e in fit.entries.values() if e.energy >= e_threshold]
    if not survivors:
        return None
    pick = min(survivors, key=_by_hop_id)
    return RouteDecision(pick.neighbor, Rationale.PRIMARY_RELIABLE)


def alternates_reliable(fit: Fit, primary: int) -> tuple[int, ...]:
    """Up to two alternate first hops: least-hop neighbours besides the primary."""
    others = sorted(
        (e for e in fit.entries.values() if e.neighbor != primary), key=_by_hop_id
    )
    return tuple(e.neighbor for e in others[:2])


def next_hop_delay(fit: Fit) -> RouteDecision | None:
    """Minimum-waiting-time pick among the three least-hop neighbours.

    Waiting time is estimated from the advertised queue length; ties resolve
    to the least-hop then least-id candidate.
    """
    if not fit.entries:
        return None
    shortlist = sorted(fit.entries.values(), key=_by_hop_id)[:_CANDIDATES]
    pick = min(shortlist, key=_by_wait_hop_id)
    return RouteDecision(pick.neighbor, Rationale.MIN_WAIT)


def paths_delay_reliable(fit: Fit) -> PathSet | None:
    """Primary plus at most one alternate first hop for the hybrid class.

    The primary is the minimum-waiting-time pick; the alternate is the
    next-least-waiting-time candidate among the remaining least-hop
    shortlist.
    """
    if not fit.entries:
        return None
    shortlist = sorted(fit.entries.values(), key=_by_hop_id)[:_CANDIDATES]
    primary = min(shortlist, key=_by_wait_hop_id)
    rest = [e for e in shortlist if e.neighbor != primary.neighbor]
    if not rest:
        return PathSet(primary.neighbor)
    alternate = min(rest, key=_by_wait_hop_id)
    return PathSet(primary.neighbor, (alternate.neighbor,))


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
    ``ALTERNATE_RELIABLE``.  The chosen forwarder is recorded in the PCT
    before returning.
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
        pct_observe((pct,), pick.neighbor, src, dst)
        return RouteDecision(pick.neighbor, rationale), pct
    return None, pct


# Plain reliable class: least hop first.
next_hop_reliable = partial(
    _next_hop_pct_checked, rank=_by_hop_id, first=Rationale.PRIMARY_RELIABLE
)
# Hybrid class: least waiting time first; hop count and id break ties.
next_hop_delay_reliable_intermediate = partial(
    _next_hop_pct_checked, rank=_by_wait_hop_id, first=Rationale.MIN_WAIT
)


def remove_failed(fit: Fit, neighbor: int) -> Fit:
    """Delete a neighbour detected as failed; absent neighbours are no-ops."""
    if neighbor not in fit.entries:
        return fit
    entries = dict(fit.entries)
    del entries[neighbor]
    return replace(fit, entries=entries)
