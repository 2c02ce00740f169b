"""Per-layer spans and counters, installed by wrapping qwsn's public functions.

Nothing under ``src/`` changes: every function is replaced at the module or
class attribute through which the program calls it, so the wrapper sees each
call the program makes.  A span records name, start, end and parent; a
layer's self time is its duration minus the time covered by its child spans.

Coarse spans (rounds, flood, replies, emission, ...) are kept one by one in
memory and written when the run ends.  The hot leaves (``apply_data_req``,
``pct_observe``, the route selectors) run hundreds of thousands of times per
run, so they are summed per name (calls, self time) instead of being stored
one by one; their time is still subtracted from the span that called them.
Pure counters (events, unicasts, topology attempts, ack timeouts) only count
and add no span.
"""

from __future__ import annotations

import time
from collections import Counter

# (owner, attribute, span name): the owner is a module or ``module.Class``.
# The program imports these names into qwsn.sim / qwsn.harness / qwsn.pegasis
# / qwsn.cli, so the wrapper goes where the call is made.
# ``qwsn.routing.pct_observe`` is wrapped as well because the reliable
# selectors record their pick through it.
COARSE = (
    ("cli", "parse_scenario", "harness.parse_scenario"),
    ("cli", "run_sweep", "harness.run_sweep"),
    ("cli", "compare_case4", "pegasis.compare"),
    ("cli", "emit_csv", "harness.emit"),
    ("cli", "emit_means_csv", "harness.emit"),
    ("cli", "emit_series", "harness.emit"),
    ("cli", "emit_comparison_csv", "harness.emit"),
    ("cli", "emit_comparison_series", "harness.emit"),
    ("harness", "build_topology", "sim.build_topology"),
    ("pegasis", "build_topology", "sim.build_topology"),
    ("sim", "build_topology", "sim.build_topology"),
    ("harness", "simulate_query_round", "sim.round"),
    ("sim.Simulation", "run_reply_round", "sim.round"),
    ("sim.Simulation", "__init__", "sim.init"),
    ("sim.Simulation", "run_flood", "sim.run_flood"),
    ("sim.Simulation", "inject_failures", "sim.inject_failures"),
    ("sim.Simulation", "deliver_replies", "sim.deliver_replies"),
    ("sim.Simulation", "metrics", "sim.metrics"),
    ("pegasis", "run_case4_lifetime", "pegasis.case4"),
    ("pegasis", "run_pegasis_lifetime", "pegasis.chain"),
    ("pegasis", "build_chain", "pegasis.build_chain"),
)

LEAVES = (
    ("sim", "apply_data_req", "protocol.apply_data_req"),
    ("sim", "advert_from_fit", "protocol.advert_from_fit"),
    ("sim", "prune_low_energy", "protocol.prune_low_energy"),
    ("sim", "pct_observe", "routing.pct_observe"),
    ("routing", "pct_observe", "routing.pct_observe"),
    ("sim", "next_hop_normal", "routing.select"),
    ("sim", "primary_reliable", "routing.select"),
    ("sim", "alternates_reliable", "routing.select"),
    ("sim", "next_hop_reliable", "routing.select"),
    ("sim", "next_hop_delay", "routing.select"),
    ("sim", "paths_delay_reliable", "routing.select"),
    ("sim", "next_hop_delay_reliable_intermediate", "routing.select"),
)

COUNTERS = (
    ("sim", "heappush", "sim.events"),
    ("sim", "tx_energy", "sim.tx_energy_calls"),
    ("sim", "remove_failed", "routing.remove_failed.calls"),
    ("sim.Topology", "__init__", "sim.topology_attempts"),
)

# Selectors that return ``(decision, pct)`` rather than ``decision``.
_PAIR_SELECTORS = {"next_hop_reliable", "next_hop_delay_reliable_intermediate"}


def _owner(modules: dict, where: str):
    module, _, cls = where.partition(".")
    owner = modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans and counters for one workload process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        # Each open span is a frame [time covered by its children, span id];
        # the bottom frame stands for the process itself.
        self.stack: list[list] = [[0.0, -1]]
        self.self_s: dict[str, float] = {}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._next_id = 0

    def install(self, modules: dict) -> None:
        """Wrap every listed function; ``modules`` maps short names to modules."""
        from qwsn.protocol import FloodAction

        dropped = FloodAction.DROPPED
        counts = self.counts

        def flood_rx(args, result) -> None:
            if result[1] is not dropped:
                counts["protocol.flood_useful"] += 1

        def pct_new(args, result) -> None:
            if result is not args[0]:
                counts["routing.pct_observe.new"] += 1

        def no_route_single(args, result) -> None:
            if result is None:
                counts["routing.select.no_route"] += 1

        def no_route_pair(args, result) -> None:
            if result[0] is None:
                counts["routing.select.no_route"] += 1

        for where, attr, name in COARSE:
            owner = _owner(modules, where)
            setattr(owner, attr, self._timed(name, getattr(owner, attr), True, None))
        for where, attr, name in LEAVES:
            owner = _owner(modules, where)
            if attr == "apply_data_req":
                check = flood_rx
            elif attr == "pct_observe":
                check = pct_new
            elif attr in _PAIR_SELECTORS:
                check = no_route_pair
            elif attr == "alternates_reliable":
                check = None  # an empty tuple is a valid answer, not a miss
            else:
                check = no_route_single
            setattr(owner, attr, self._timed(name, getattr(owner, attr), False, check))
        for where, attr, name in COUNTERS:
            owner = _owner(modules, where)
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))
        # Zeros are kept, so every run reports the same names.
        for name in ("protocol.flood_useful", "routing.pct_observe.new",
                     "routing.select.no_route"):
            counts.setdefault(name, 0)

    def _timed(self, name: str, fn, record: bool, check):
        stack, clock, spans, calls = self.stack, self.clock, self.spans, self.calls
        self_s = self.self_s
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if record:
                    spans.append((span_id, name, start, end, parent[1]))
            if check is not None:
                check(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def covered(self) -> float:
        """Time covered so far by top-level spans."""
        return self.stack[0][0]
