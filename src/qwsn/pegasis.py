"""Chain-based data-gathering baseline and the lifetime comparison.

PEGASIS organises all nodes into a greedy nearest-neighbour chain; each
round, data travels along the chain from both ends to a rotating leader,
which transmits one gathered packet directly to the base station.  Every
node can reach the base station directly, so the leader transmission is a
single long-range hop.  Energy uses the same first-order radio model as the
event simulator, with transmissions charged at actual link distances and no
data-fusion cost on either side.

The comparison pits this against the delay+reliable query protocol on the
same node placement, the same failure set and the same batteries; the query
protocol floods once, then answers one query per round with rotating
sources.  Lifetime for both is the number of rounds completed before half
the nodes are dead (injected failures count as dead).

The chain keeps its own battery ledger (``spend`` in
:func:`run_pegasis_lifetime`) beside ``Simulation._debit``.  Both apply the
same charging rule, but the engine never charges node 0, the mains-powered
sink, and it traces each death, while the chain charges node 0 as an
ordinary battery node and traces nothing.  A shared ledger would have to
branch on its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .protocol import QosClass
from .sim import (
    SimConfig,
    Simulation,
    Topology,
    active_range,
    build_topology,
    draw_failures,
    rx_energy,
    tx_energy,
)

# Fraction of dead nodes that ends a lifetime run.
DEATH_FRACTION = 0.5

_MAX_ROUNDS = 2_000_000


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of one lifetime run."""

    lifetime_rounds: int
    packets_delivered: int
    total_energy_dissipated: float
    energy_residual: float
    failed_nodes: tuple[int, ...]


@dataclass(frozen=True)
class ComparisonRow:
    failure_fraction: float
    lifetime_case4: int
    lifetime_pegasis: int
    case4_packets: int
    pegasis_packets: int


def link_lengths(vectors: np.ndarray) -> np.ndarray:
    """The length of each 2-vector along the last axis of ``vectors``.

    Each is bitwise ``float(np.linalg.norm(v))``: that norm is the square
    root of the BLAS dot of ``v`` with itself, which may fuse a multiply-add,
    and a stacked matmul of each vector with itself runs the same dot.  The
    forms ``(v * v).sum(-1)`` and ``einsum`` round differently on some
    vectors.  (``np.vecdot`` matches too, but needs numpy 2.)
    """
    return np.sqrt(np.matmul(vectors[..., None, :], vectors[..., :, None])[..., 0, 0])


def build_chain(
    positions: np.ndarray,
    alive: Sequence[bool],
    bs_position: tuple[float, float],
) -> list[int]:
    """Greedy nearest-neighbour chain over the alive nodes.

    Construction starts from the alive node farthest from the base station
    (ties to the larger id) and repeatedly appends the nearest
    not-yet-chained node (ties to the smaller id), the standard
    chain-building rule for this protocol family.
    """
    free = np.array(alive, dtype=bool)
    remaining = np.flatnonzero(free)
    if not remaining.size:
        raise ValueError("cannot build a chain with no alive nodes")
    # the base station as one more point: dist[i, j] = |p_i - p_j|, and the
    # last column holds each node's distance to the base station
    points = np.vstack([positions, np.asarray(bs_position, dtype=float)])
    dist = link_lengths(points[:, None, :] - points[None, :, :])
    to_bs = dist[remaining, -1]
    start = int(remaining[len(remaining) - 1 - np.argmax(to_bs[::-1])])
    chain = [start]
    free[start] = False
    for _ in range(len(remaining) - 1):
        candidates = np.flatnonzero(free)
        nxt = int(candidates[np.argmin(dist[candidates, chain[-1]])])
        chain.append(nxt)
        free[nxt] = False
    return chain


def run_pegasis_lifetime(
    config: SimConfig, topology: Topology, bs_position: tuple[float, float]
) -> LifetimeResult:
    """Run chained data gathering on ``topology`` until half the nodes are dead.

    ``config.failure_fraction`` of the nodes fail before the first round.
    Per round: the chain (dead nodes spliced out) passes one packet per link
    toward the round's leader, charged tx+rx at actual link distance, and the
    leader transmits to the base station at its actual distance.  Returns the
    completed round count and the packets that reached the base station.
    """
    positions = topology.positions
    bs = np.asarray(bs_position, dtype=float)
    n = config.n
    energy = [config.e_init] * n
    alive = [True] * n
    dissipated = 0.0

    # Only the sink is exempt, as in the query protocol's lifetime runs.
    failed = draw_failures(config, range(1, n))
    for i in failed:
        alive[i] = False

    rx_cost = rx_energy(config.packet_bits, config.e_elec)
    to_bs = link_lengths(positions - bs).tolist()

    def spend(i: int, amount: float) -> bool:
        nonlocal dissipated
        if not alive[i]:
            return False
        if energy[i] >= amount:
            energy[i] -= amount
            dissipated += amount
            if energy[i] <= 0.0:
                alive[i] = False
            return True
        dissipated += energy[i]
        energy[i] = 0.0
        alive[i] = False
        return False

    def link(a: int, b: int) -> None:
        if not alive[a]:
            return
        dist = topology.distance(a, b)
        if not spend(a, tx_energy(config.packet_bits, dist, config.e_elec, config.eps_amp)):
            return
        if alive[b]:
            spend(b, rx_cost)

    dead_needed = math.ceil(n * DEATH_FRACTION)
    chain = build_chain(positions, alive, bs_position)
    rounds = 0
    packets = 0
    while rounds < _MAX_ROUNDS:
        chain = [i for i in chain if alive[i]]
        if n - len(chain) >= dead_needed or not chain:
            break
        leader_pos = rounds % len(chain)
        leader = chain[leader_pos]
        for i in range(leader_pos):
            link(chain[i], chain[i + 1])
        for i in range(len(chain) - 1, leader_pos, -1):
            link(chain[i], chain[i - 1])
        if alive[leader] and spend(
            leader,
            tx_energy(config.packet_bits, to_bs[leader], config.e_elec, config.eps_amp),
        ):
            packets += 1
        rounds += 1
    else:
        raise RuntimeError(f"lifetime run exceeded {_MAX_ROUNDS} rounds")

    return LifetimeResult(
        lifetime_rounds=rounds,
        packets_delivered=packets,
        total_energy_dissipated=dissipated,
        energy_residual=sum(energy),
        failed_nodes=failed,
    )


def run_case4_lifetime(config: SimConfig, topology: Topology) -> LifetimeResult:
    """Query rounds sustained by the delay+reliable class until half death.

    ``config.failure_fraction`` of the nodes fail after the flood.  The
    query is flooded once; afterwards each round redraws three sources
    among the survivors and delivers their reply copies with persistent
    batteries.  Per-round re-flooding would drown the comparison in
    dissemination cost, so the converged tables are reused as they are.
    The hybrid class sends without acknowledgements, so nothing removes a
    relay that has died from a table: a copy sent to a dead relay is lost
    (``dead_next_hop``), and its sender still pays for the transmission.
    """
    sim = Simulation(
        config,
        QosClass.DELAY_RELIABLE,
        topology=topology,
        exempt_sources_from_failure=False,
    )
    sim.run_flood()
    sim.inject_failures()
    failed = sim.failed_nodes
    dead_needed = math.ceil(config.n * DEATH_FRACTION)
    rounds = 0
    delivered = 0
    while rounds < _MAX_ROUNDS:
        if sim.dead_count >= dead_needed:
            break
        delivered += sim.run_reply_round(round_index=rounds)
        rounds += 1
    else:
        raise RuntimeError(f"lifetime run exceeded {_MAX_ROUNDS} rounds")

    return LifetimeResult(
        lifetime_rounds=rounds,
        packets_delivered=delivered,
        total_energy_dissipated=sim.dissipated,
        energy_residual=sum(node.energy for node in sim.nodes),
        failed_nodes=failed,
    )


def compare_case4(
    config: SimConfig,
    fractions: Sequence[float],
    bs_position: tuple[float, float],
) -> list[ComparisonRow]:
    """Lifetime table for both protocols on matched placements and failures:
    one row per failure fraction, both runs on ``config``'s topology."""
    # the query protocol floods and routes at the hybrid class's range only
    topology = build_topology(config, active_range(config, QosClass.DELAY_RELIABLE))
    rows = []
    for fraction in fractions:
        row_config = replace(config, failure_fraction=fraction)
        case4 = run_case4_lifetime(row_config, topology)
        pegasis = run_pegasis_lifetime(row_config, topology, bs_position)
        assert case4.failed_nodes == pegasis.failed_nodes, "failure sets must match"
        rows.append(
            ComparisonRow(
                failure_fraction=fraction,
                lifetime_case4=case4.lifetime_rounds,
                lifetime_pegasis=pegasis.lifetime_rounds,
                case4_packets=case4.packets_delivered,
                pegasis_packets=pegasis.packets_delivered,
            )
        )
    return rows
