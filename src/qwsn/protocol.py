"""The query header and per-node forwarding state for query-driven routing.

A sink node periodically floods the network with a query (DATA_REQ); every
node builds a forwarding information table (FIT) from the headers it hears:
one row per neighbour holding that neighbour's advertised energy, its hop
count to the sink and the identifiers of up to three of its least-hop
neighbours ("forwarders").  A node rebroadcasts the header
:func:`advert_from_fit` builds from its own table.  Replies (DATA_REP) are
then routed back to the sink using only this table plus, for the reliable
classes, a small path construction table maintained in :mod:`qwsn.routing`;
the delay-sensitive classes also rank neighbours by their current
transmit-queue length, which the engine looks up live and the table does
not store.  A reply's own fields travel on the engine's one record of each
reply copy, :class:`qwsn.sim.ReplyCopy`.

Headers and FIT rows are values, so the one row built from a header is
shared by every FIT that stores it.  A FIT itself is a node's own mutable
table: :func:`apply_data_req` updates it in place, because every flood
reception goes through it, and resets the table's cached hop order.
:func:`prune_low_energy` never changes its argument and returns a filtered
copy only when it drops a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

# Hop counts travel in a 16-bit header field; this sentinel is the largest
# encodable value and exceeds any achievable hop count at supported network
# sizes, so it doubles as "distance unknown / unreachable".
HOP_INF = 0xFFFF

MAX_FORWARDERS = 3

_ID_LIMIT = 2**32  # node and query identifiers are 32-bit on the wire


class QosClass(Enum):
    """The four service classes selectable per query."""

    NORMAL = "normal"
    RELIABLE = "reliable"
    DELAY = "delay"
    DELAY_RELIABLE = "delay_reliable"


def _check_node_id(node_id: int, what: str = "node id") -> None:
    if not (0 <= node_id < _ID_LIMIT):
        raise ValueError(f"{what} out of 32-bit range: {node_id}")


def _check_forwarders(forwarders: tuple[int, ...], sender_id: int | None) -> None:
    if len(forwarders) > MAX_FORWARDERS:
        raise ValueError(f"at most {MAX_FORWARDERS} forwarders, got {len(forwarders)}")
    if len(set(forwarders)) != len(forwarders):
        raise ValueError(f"forwarders must be pairwise distinct: {forwarders}")
    if sender_id is not None and sender_id in forwarders:
        raise ValueError("forwarders may not include the sender itself")
    for f in forwarders:
        _check_node_id(f, "forwarder id")


@dataclass(frozen=True)
class DataReqHeader:
    """Query flood packet header.

    Besides addressing, the header advertises the sender's energy level, its
    current hop count from the sink and the identifiers of up to three of its
    neighbours with the least hop counts, which receivers copy into their
    FITs.  It carries no service class: the flood, and the tables it builds,
    are the same for every class at one radio range.
    """

    query_id: int
    sender_id: int
    sender_energy: float
    sender_hop: int
    forwarders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= self.query_id < _ID_LIMIT):
            raise ValueError(f"query_id out of 32-bit range: {self.query_id}")
        _check_node_id(self.sender_id, "sender id")
        if not (0 <= self.sender_hop <= HOP_INF):
            raise ValueError(f"sender_hop out of range: {self.sender_hop}")
        _check_forwarders(self.forwarders, self.sender_id)

    @cached_property
    def fit_row(self) -> FitEntry:
        """The FIT row a receiver stores for the sender.

        Built once per header: every receiver of one broadcast shares it,
        which is safe because rows are frozen.
        """
        return FitEntry(
            neighbor=self.sender_id,
            energy=self.sender_energy,
            hop=self.sender_hop,
            forwarders=self.forwarders,
        )


@dataclass(frozen=True)
class FitEntry:
    """One FIT row: what a node knows about one neighbour."""

    neighbor: int
    energy: float
    hop: int
    forwarders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= self.hop <= HOP_INF):
            raise ValueError(f"hop out of range: {self.hop}")
        _check_forwarders(self.forwarders, None)


@dataclass
class Fit:
    """Forwarding information table: neighbour rows plus the node's own record.

    ``entries`` is keyed by neighbour id, so there is at most one row per
    neighbour by construction.  Only :func:`apply_data_req` changes it in
    place; every other update builds a new table.
    """

    self_id: int
    self_hop: int
    self_energy: float = 0.0
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
                sorted(self.entries.values(), key=lambda e: (e.hop, e.neighbor))
            )
        return order


class FloodAction(Enum):
    """What a node did with one received DATA_REQ."""

    UPDATED_AND_REBROADCAST = "updated_and_rebroadcast"
    RECORDED_AND_REBROADCAST = "recorded_and_rebroadcast"
    DROPPED = "dropped"


def fit_bootstrap(self_id: int, is_sink: bool = False, energy: float = 0.0) -> Fit:
    """Fresh FIT for a node that has heard nothing yet.

    The sink knows it is zero hops from itself; every other node starts with
    the unreachable sentinel until the first query flood teaches it better.
    """
    _check_node_id(self_id)
    return Fit(
        self_id=self_id,
        self_hop=0 if is_sink else HOP_INF,
        self_energy=energy,
        entries={},
    )


def apply_data_req(fit: Fit, hdr: DataReqHeader) -> tuple[Fit, FloodAction]:
    """Apply one received DATA_REQ to a FIT, in place; returns the same FIT.

    Let the advertised hop count be L and the node's own be H.  The sender's
    row is upserted unconditionally (energy, hop and forwarders refreshed),
    so the node always knows its full neighbour set.  The stored row is the
    header's shared :attr:`~DataReqHeader.fit_row`, and the table's hop
    order is reset.  Then:

    * L+1 < H: the node found a shorter route; H becomes L+1 and the packet
      is rebroadcast.
    * L+1 = H: an equally good route is recorded and the packet is (subject
      to the engine's once-per-query bound) rebroadcast.
    * L+1 > H: the sender is further from the sink, so the packet is dropped.
    """
    if hdr.sender_id == fit.self_id:
        raise ValueError("a node cannot process its own DATA_REQ")
    if hdr.sender_hop < 0:
        raise ValueError(f"malformed header: negative hop {hdr.sender_hop}")

    fit.entries[hdr.sender_id] = hdr.fit_row
    fit._by_hop = None

    candidate = min(hdr.sender_hop + 1, HOP_INF)
    if candidate < fit.self_hop:
        fit.self_hop = candidate
        return fit, FloodAction.UPDATED_AND_REBROADCAST
    if candidate == fit.self_hop:
        return fit, FloodAction.RECORDED_AND_REBROADCAST
    return fit, FloodAction.DROPPED


def advert_from_fit(fit: Fit, query_id: int) -> DataReqHeader:
    """The DATA_REQ header a node broadcasts when it rebroadcasts the query.

    It advertises the node's own energy and hop count and, as forwarders,
    the up-to-three known neighbours with the least hop counts, ties broken
    by ascending node id.  A node only rebroadcasts once it has learned a
    finite hop count, so calling this on a bootstrapped table is an error.
    """
    if fit.self_hop >= HOP_INF:
        raise ValueError("cannot advertise an unknown hop count")
    forwarders = tuple(e.neighbor for e in fit.by_hop[:MAX_FORWARDERS])
    return DataReqHeader(query_id, fit.self_id, fit.self_energy, fit.self_hop, forwarders)


def prune_low_energy(fit: Fit, e_threshold: float) -> Fit:
    """Drop every neighbour whose advertised energy is below the threshold."""
    if e_threshold < 0:
        raise ValueError(f"energy threshold must be non-negative: {e_threshold}")
    entries = {n: e for n, e in fit.entries.items() if e.energy >= e_threshold}
    if len(entries) == len(fit.entries):
        return fit
    return replace(fit, entries=entries)

