"""FIT rows and per-node forwarding state for query-driven routing.

A sink node floods the network with a query (DATA_REQ); every node builds a
forwarding information table (FIT) from what it hears.  A DATA_REQ
advertises a FIT row, :class:`FitEntry`: the sender's energy, its hop count
to the sink and up to three of its least-hop neighbours ("forwarders").
Every receiver stores that row for the sender, and a node rebroadcasts the
row :func:`advert_from_fit` builds from its own table.  Replies (DATA_REP)
are then routed back to the sink using only this table plus, for the
reliable classes, a small path construction table maintained in
:mod:`qwsn.routing`; the delay-sensitive classes also rank neighbours by
their current transmit-queue length, which the engine looks up live and the
table does not store.  A reply's own fields travel on the engine's one
record of each reply copy, :class:`qwsn.sim.ReplyCopy`.

Rows are frozen values.  A FIT itself is a node's own mutable table:
:func:`apply_data_req` updates it in place, because every flood wave's
receptions at a node go through it, and resets the table's cached hop
order.  No other function changes a table: :func:`remove_failed` and
:func:`prune_low_energy` return a copy only when they drop a row, and
otherwise their argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter

# Hop counts travel in a 16-bit advert field; this sentinel is the largest
# encodable value and exceeds any achievable hop count at supported network
# sizes, so it doubles as "distance unknown / unreachable".
HOP_INF = 0xFFFF

MAX_FORWARDERS = 3

_ID_LIMIT = 2**32  # node identifiers are 32-bit on the wire


class QosClass(Enum):
    """The four service classes selectable per query."""

    NORMAL = "normal"
    RELIABLE = "reliable"
    DELAY = "delay"
    DELAY_RELIABLE = "delay_reliable"


def _check_node_id(node_id: int, what: str = "node id") -> None:
    if not (0 <= node_id < _ID_LIMIT):
        raise ValueError(f"{what} out of 32-bit range: {node_id}")


@dataclass(frozen=True)
class FitEntry:
    """One FIT row: what a node knows about one neighbour.

    It is also what a DATA_REQ advertises: the sender's id, energy, hop
    count from the sink and the identifiers of up to three of its
    neighbours with the least hop counts, which receivers store as they
    are.  It carries no service class: the flood, and the tables it builds,
    are the same for every class at one radio range.
    """

    neighbor: int
    energy: float
    hop: int
    forwarders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_node_id(self.neighbor, "neighbour id")
        if not (0 <= self.hop <= HOP_INF):
            raise ValueError(f"hop out of range: {self.hop}")
        forwarders = self.forwarders
        if len(forwarders) > MAX_FORWARDERS:
            raise ValueError(f"at most {MAX_FORWARDERS} forwarders: {forwarders}")
        if len(set(forwarders)) != len(forwarders):
            raise ValueError(f"forwarders must be pairwise distinct: {forwarders}")
        if self.neighbor in forwarders:
            raise ValueError("forwarders may not include the neighbour itself")
        for f in forwarders:
            _check_node_id(f, "forwarder id")


_HOP_ORDER = attrgetter("hop", "neighbor")


@dataclass
class Fit:
    """Forwarding information table: neighbour rows plus the node's hop count.

    ``entries`` is keyed by neighbour id, so there is at most one row per
    neighbour by construction.  Only :func:`apply_data_req` changes it in
    place; every other update builds a new table.
    """

    self_id: int
    self_hop: int
    entries: dict[int, FitEntry] = field(default_factory=dict)
    # Not an __init__ field, so a copy made by dataclasses.replace starts
    # without its parent's order.
    _by_hop: tuple[FitEntry, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def by_hop(self) -> tuple[FitEntry, ...]:
        """The rows in ``(hop, neighbour id)`` order, sorted on first use."""
        order = self._by_hop
        if order is None:
            order = self._by_hop = tuple(
                sorted(self.entries.values(), key=_HOP_ORDER)
            )
        return order


class FloodAction(Enum):
    """What a node did with one received DATA_REQ.  Only an update queues a
    rebroadcast: a node has already queued or sent its broadcast at the hop
    count a ``RECORDED`` reception records."""

    UPDATED_AND_REBROADCAST = "updated_and_rebroadcast"
    RECORDED = "recorded"
    DROPPED = "dropped"


# The members as module constants: reading one from the Enum class is a
# slow lookup, and the flood settles every receiver through this module.
_UPDATED = FloodAction.UPDATED_AND_REBROADCAST
_RECORDED = FloodAction.RECORDED
_DROPPED = FloodAction.DROPPED


def fit_bootstrap(self_id: int, is_sink: bool = False) -> Fit:
    """Fresh FIT for a node that has heard nothing yet.

    The sink knows it is zero hops from itself; every other node starts with
    the unreachable sentinel until the first query flood teaches it better.
    """
    _check_node_id(self_id)
    return Fit(self_id=self_id, self_hop=0 if is_sink else HOP_INF, entries={})


def apply_data_req(fit: Fit, *rows: FitEntry) -> tuple[Fit, FloodAction]:
    """Apply one or more received DATA_REQs (the senders' rows) in place;
    returns ``fit``.

    Let the first row's advertised hop count be L and the node's own be H.
    Every row is upserted unconditionally, in order (energy, hop and
    forwarders refreshed), so the node always knows its full neighbour set.
    The stored row is the advertised object itself, and the table's hop
    order is reset once.  The returned action is the first row's:

    * L+1 < H: the node found a shorter route; H becomes L+1 and the packet
      is rebroadcast.
    * L+1 = H: an equally good route is recorded; the node has already
      queued or sent its broadcast at hop H, so nothing more is sent.
    * L+1 > H: the sender is further from the sink, so the packet is dropped.

    Several rows are one node's receptions in one flood wave, and must carry
    one hop count, as a wave's adverts do.  Each later row is then
    ``RECORDED``, or ``DROPPED`` when the first was, and the call leaves the
    table as one call per row, in order, would.  A row with the node's own
    id or another hop count raises ``ValueError``; the rows before it stay
    stored.
    """
    self_id = fit.self_id
    entries = fit.entries
    hop = rows[0].hop
    for row in rows:
        if row.neighbor == self_id:
            raise ValueError("a node cannot process its own DATA_REQ")
        if row.hop != hop:
            raise ValueError("the rows of one call must carry one hop count")
        entries[row.neighbor] = row
    fit._by_hop = None

    candidate = hop + 1 if hop < HOP_INF else HOP_INF
    if candidate < fit.self_hop:
        fit.self_hop = candidate
        return fit, _UPDATED
    if candidate == fit.self_hop:
        return fit, _RECORDED
    return fit, _DROPPED


def advert_from_fit(fit: Fit, energy: float) -> FitEntry:
    """The row a node advertises when it rebroadcasts the query.

    It holds ``energy``, the node's hop count and, as forwarders, the
    up-to-three known neighbours with the least hop counts, ties broken by
    ascending node id.  A node only rebroadcasts once it has learned a
    finite hop count, so calling this on a bootstrapped table is an error.
    """
    if fit.self_hop >= HOP_INF:
        raise ValueError("cannot advertise an unknown hop count")
    forwarders = tuple(e.neighbor for e in fit.by_hop[:MAX_FORWARDERS])
    return FitEntry(fit.self_id, energy, fit.self_hop, forwarders)


def prune_low_energy(fit: Fit, e_threshold: float) -> Fit:
    """Drop every neighbour whose advertised energy is below the threshold."""
    if e_threshold < 0:
        raise ValueError(f"energy threshold must be non-negative: {e_threshold}")
    entries = {n: e for n, e in fit.entries.items() if e.energy >= e_threshold}
    if len(entries) == len(fit.entries):
        return fit
    return replace(fit, entries=entries)


def remove_failed(fit: Fit, neighbor: int) -> Fit:
    """Delete a neighbour detected as failed; absent neighbours are no-ops."""
    if neighbor not in fit.entries:
        return fit
    entries = dict(fit.entries)
    del entries[neighbor]
    return replace(fit, entries=entries)
