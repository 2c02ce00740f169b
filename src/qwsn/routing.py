"""Next-hop and path selection for the four service classes.

Selectors read the caller's tables and never change them: neither the
forwarding table nor the path construction table (PCT).  They return
``None`` when no usable neighbour remains ("no route").  The PCT holds one
reply round's rows and has one insert rule, :func:`pct_observe`, which only
the engine calls: it records every reply a node sends, which the sender's
neighbours overhear, the first hops of a dispatch and the pick a node
commits to, since choosing a forwarder puts it on the path for that
source.  The wait-ranked selectors of the delay-sensitive classes take a
lookup ``wait(node_id)`` that returns a neighbour's current transmit-queue
length; the table stores no queue lengths.  The staged selectors of the
reliable classes are the whole per-hop policy of those classes.  Their
sink-ward rule binds stages 1 and 2 only: a neighbour farther from the sink
than the selecting node is picked only when no candidate at most as far from
the sink is left.

Tie-breaking is deterministic throughout: candidates compare by
``(ranking key..., hop, node id)`` so identical tables always yield
identical decisions regardless of insertion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from .protocol import Fit, FitEntry

# Looks up a neighbour's current transmit-queue length by node id.
Wait = Callable[[int], int]

_CANDIDATES = 3  # selectors shortlist the three least-hop neighbours


@dataclass
class Pct:
    """Path construction table of one reply round.

    Every reply copy goes to the sink, so a row is a ``(forwarder, src)``
    pair: ``forwarder`` carries source ``src``'s reply.  ``heard`` holds the
    pairs of the replies sent this round; each sender's neighbours overhear
    them.  ``own`` holds ``(node, forwarder, src)`` rows a node wrote
    itself: the first hops it dispatched as a source and the picks it
    committed to as a relay.
    """

    heard: set[tuple[int, int]] = field(default_factory=set)
    own: set[tuple[int, int, int]] = field(default_factory=set)


def pct_observe(
    pct: Pct, forwarder: int, src: int, node: int | None = None
) -> None:
    """Record that ``forwarder`` carries ``src``'s reply this round.

    With ``node`` the row is that node's own, a dispatch first hop or a
    committed pick; without, it is a sent reply every neighbour of its
    sender overhears.  A duplicate is a no-op.
    """
    if node is None:
        pct.heard.add((forwarder, src))
    else:
        pct.own.add((node, forwarder, src))


def _pct_blocks(pct: Pct, node_id: int, candidate: int, src: int) -> bool:
    """True when ``node_id``'s view of the PCT already places ``candidate``
    on ``src``'s path this round.

    ``candidate`` is ``node_id``'s neighbour and a reading node is alive, so
    it overheard every reply ``candidate`` sent this round.
    """
    return (candidate, src) in pct.heard or (node_id, candidate, src) in pct.own


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


def _next_hop_staged(
    fit: Fit,
    pct: Pct,
    src: int,
    prev: int | None = None,
    tried: frozenset[int] | set[int] = frozenset(),
    parent: int | None = None,
    *,
    rank: Callable[[FitEntry], tuple] | None,
    first: Rationale,
    backtrack: bool,
    e_threshold: float = -math.inf,
) -> tuple[RouteDecision | None, Pct]:
    """One reliable-class forwarding decision at a relay.

    ``prev`` is the node the copy came from, ``tried`` the neighbours this
    node already sent the copy to and ``parent`` the node it first came
    from; none of them is a candidate.  Candidates are ranked by ``rank``,
    or else in ``(hop, id)`` order, and the stages run in turn:

    1. a candidate no farther from the sink than the node, unless its
       energy is below ``e_threshold`` or the PCT already places it on this
       very source's path (appearing on other sources' paths is fine); the
       rationale is ``first`` if the PCT blocked no better-ranked
       candidate, else ``ALTERNATE_RELIABLE``;
    2. a candidate no farther from the sink, whatever its energy and the PCT;
    3. any candidate: a detour away from the sink, around a failure hole;
    4. with ``backtrack``, back to ``prev``, then to ``parent``, if that
       edge is unused.

    Stages 2 and 3 are ``FALLBACK``, stage 4 is ``BACKTRACK``.  The PCT is
    only read: the engine records the pick once it commits to it.

    Returns ``(decision, pct)`` with the given table unchanged, a shape the
    benchmark's tracer relies on (it reads the decision as ``result[0]``).
    """
    self_hop = fit.self_hop
    skip = {prev, parent, *tried}
    rows = [e for e in fit.by_hop if e.hop <= self_hop and e.neighbor not in skip]
    rationale = first
    while rows:
        pick = rows[0] if rank is None else min(rows, key=rank)
        if pick.energy >= e_threshold:
            if not _pct_blocks(pct, fit.self_id, pick.neighbor, src):
                return RouteDecision(pick.neighbor, rationale), pct
            rationale = Rationale.ALTERNATE_RELIABLE
        rows.remove(pick)
    rows = [e for e in fit.by_hop if e.neighbor not in skip]
    pool = [e for e in rows if e.hop <= self_hop] or rows
    if pool:
        pick = pool[0] if rank is None else min(pool, key=rank)
        return RouteDecision(pick.neighbor, Rationale.FALLBACK), pct
    if backtrack:
        for back in (prev, parent):
            if back in fit.entries and back not in tried:
                return RouteDecision(back, Rationale.BACKTRACK), pct
    return None, pct


# Plain reliable class: least hop first, the energy threshold in stage 1,
# and Tarry's backtracks in stage 4; returns ``(decision, pct)``.
next_hop_reliable = partial(
    _next_hop_staged, rank=None, first=Rationale.PRIMARY_RELIABLE, backtrack=True
)


def next_hop_delay_reliable_intermediate(
    fit: Fit,
    pct: Pct,
    src: int,
    prev: int | None = None,
    tried: frozenset[int] | set[int] = frozenset(),
    parent: int | None = None,
    *,
    wait: Wait,
) -> tuple[RouteDecision | None, Pct]:
    """Hybrid class: least waiting time first, hop count and id break ties;
    no energy threshold and no backtracks.  Returns ``(decision, pct)`` like
    :func:`next_hop_reliable`."""
    return _next_hop_staged(
        fit,
        pct,
        src,
        prev,
        tried,
        parent,
        rank=_by_wait_hop_id(wait),
        first=Rationale.MIN_WAIT,
        backtrack=False,
    )
