"""Packet headers and per-node forwarding state for query-driven routing.

A sink node periodically floods the network with a query (DATA_REQ); every
node builds a forwarding information table (FIT) from the headers it hears:
one row per neighbour holding that neighbour's advertised energy, its hop
count to the sink, the identifiers of up to three of its least-hop
neighbours ("forwarders"), and -- for the delay-sensitive service classes --
its transmit-queue length.  Replies (DATA_REP) are then routed back to the
sink using only this table plus, for the reliable classes, a small path
construction table maintained in :mod:`qwsn.routing`.

Headers and FIT rows are values, so the one row built from a header is
shared by every FIT that stores it.  A FIT itself is a node's own mutable
table: :func:`apply_data_req` updates it in place, because every flood
reception goes through it.  :func:`prune_low_energy` never changes its
argument and returns a filtered copy only when it drops a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

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


_TOS_BITS = {
    QosClass.NORMAL: "00",
    QosClass.RELIABLE: "01",
    QosClass.DELAY: "10",
    QosClass.DELAY_RELIABLE: "11",
}
_BITS_TOS = {bits: qos for qos, bits in _TOS_BITS.items()}


def tos_encode(qos: QosClass) -> str:
    """Return the two-bit type-of-service code for a service class."""
    return _TOS_BITS[qos]


def tos_decode(bits: str) -> QosClass:
    """Inverse of :func:`tos_encode`; raises ``ValueError`` on a bad code."""
    try:
        return _BITS_TOS[bits]
    except KeyError:
        raise ValueError(f"not a 2-bit type-of-service code: {bits!r}") from None


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
    FITs.
    """

    query_id: int
    tos: str
    sender_id: int
    sender_energy: float
    sender_hop: int
    forwarders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= self.query_id < _ID_LIMIT):
            raise ValueError(f"query_id out of 32-bit range: {self.query_id}")
        tos_decode(self.tos)
        _check_node_id(self.sender_id, "sender id")
        if not (0 <= self.sender_hop <= HOP_INF):
            raise ValueError(f"sender_hop out of range: {self.sender_hop}")
        _check_forwarders(self.forwarders, self.sender_id)

    @cached_property
    def fit_row(self) -> FitEntry:
        """The FIT row a receiver stores for the sender, with queue length 0.

        Built once per header: every receiver of one broadcast shares it,
        which is safe because rows are frozen.
        """
        return FitEntry(
            neighbor=self.sender_id,
            energy=self.sender_energy,
            hop=self.sender_hop,
            forwarders=self.forwarders,
        )


@dataclass
class DataRepHeader:
    """Reply packet header; one reply copy carries one of these.

    ``path_id`` names the dispatch path the copy rides (0 = primary,
    1/2 = alternates); ``ttl`` is the remaining hop budget and strictly
    decreases at every successful handoff.
    """

    src: int
    dst: int
    query_id: int
    copy_index: int
    path_id: int
    prev_hop: int | None
    ttl: int

    def __post_init__(self) -> None:
        _check_node_id(self.src, "source address")
        _check_node_id(self.dst, "destination address")
        if self.copy_index < 0:
            raise ValueError(f"copy_index must be non-negative: {self.copy_index}")
        if self.ttl < 0:
            raise ValueError(f"ttl must be non-negative: {self.ttl}")


@dataclass(frozen=True)
class FitEntry:
    """One FIT row: what a node knows about one neighbour."""

    neighbor: int
    energy: float
    hop: int
    forwarders: tuple[int, ...] = ()
    queue_len: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.hop <= HOP_INF):
            raise ValueError(f"hop out of range: {self.hop}")
        _check_forwarders(self.forwarders, None)


@dataclass
class Fit:
    """Forwarding information table: neighbour rows plus the node's own record.

    ``entries`` is keyed by neighbour id, so there is at most one row per
    neighbour by construction.
    """

    self_id: int
    self_hop: int
    self_energy: float = 0.0
    self_queue_len: int = 0
    entries: dict[int, FitEntry] = field(default_factory=dict)


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
        self_queue_len=0,
        entries={},
    )


def apply_data_req(fit: Fit, hdr: DataReqHeader) -> tuple[Fit, FloodAction]:
    """Apply one received DATA_REQ to a FIT, in place; returns the same FIT.

    Let the advertised hop count be L and the node's own be H.  The sender's
    row is upserted unconditionally (energy, hop and forwarders refreshed, a
    previously learned queue length kept), so the node always knows its full
    neighbour set.  The stored row is the header's shared
    :attr:`~DataReqHeader.fit_row`, or a copy of it when the old row carries
    a non-zero queue length.  Then:

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

    row = hdr.fit_row
    entries = fit.entries
    old = entries.get(hdr.sender_id)
    if old is not None and old.queue_len:
        row = replace(row, queue_len=old.queue_len)
    entries[hdr.sender_id] = row

    candidate = min(hdr.sender_hop + 1, HOP_INF)
    if candidate < fit.self_hop:
        fit.self_hop = candidate
        return fit, FloodAction.UPDATED_AND_REBROADCAST
    if candidate == fit.self_hop:
        return fit, FloodAction.RECORDED_AND_REBROADCAST
    return fit, FloodAction.DROPPED


class AdvertFields(NamedTuple):
    """The fields a node writes into the DATA_REQ it rebroadcasts."""

    sender_energy: float
    sender_hop: int
    forwarders: tuple[int, ...]


def advert_from_fit(fit: Fit) -> AdvertFields:
    """Header fields advertised when a node rebroadcasts the query.

    The forwarders are the up-to-three known neighbours with the least hop
    counts, ties broken by ascending node id.  A node only rebroadcasts once
    it has learned a finite hop count, so calling this on a bootstrapped
    table is an error.
    """
    if fit.self_hop >= HOP_INF:
        raise ValueError("cannot advertise an unknown hop count")
    ranked = sorted(fit.entries.values(), key=lambda e: (e.hop, e.neighbor))
    forwarders = tuple(e.neighbor for e in ranked[:MAX_FORWARDERS])
    return AdvertFields(fit.self_energy, fit.self_hop, forwarders)


def prune_low_energy(fit: Fit, e_threshold: float) -> Fit:
    """Drop every neighbour whose advertised energy is below the threshold."""
    if e_threshold < 0:
        raise ValueError(f"energy threshold must be non-negative: {e_threshold}")
    entries = {n: e for n, e in fit.entries.items() if e.energy >= e_threshold}
    if len(entries) == len(fit.entries):
        return fit
    return replace(fit, entries=entries)

