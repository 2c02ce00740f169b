"""Query-driven multi-service WSN routing protocol and its simulator."""

from .protocol import (
    HOP_INF,
    DataRepHeader,
    DataReqHeader,
    Fit,
    FitEntry,
    FloodAction,
    QosClass,
    advert_from_fit,
    apply_data_req,
    fit_bootstrap,
    prune_low_energy,
    tos_decode,
    tos_encode,
)
from .routing import (
    PathSet,
    Pct,
    PctEntry,
    Rationale,
    RouteDecision,
    alternates_reliable,
    next_hop_delay,
    next_hop_delay_reliable_intermediate,
    next_hop_normal,
    next_hop_reliable,
    paths_delay_reliable,
    pct_observe,
    primary_reliable,
    remove_failed,
)
from .sim import (
    SINK,
    RunMetrics,
    SimConfig,
    Simulation,
    Topology,
    TopologyUnconnectable,
    bfs_hops,
    build_topology,
    rx_energy,
    simulate_query_round,
    tx_energy,
)

__version__ = "0.1.0"
