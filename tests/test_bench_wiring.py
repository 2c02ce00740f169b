"""The benchmark's tracer wraps qwsn functions by name; every name must resolve.

``bench/tracing.py`` and ``bench/child.py`` are read as source, not imported
or run, so this guard changes nothing there.  Without it, a rename that
breaks ``bench/run.py --trace 1`` shows only when the benchmark runs.  The
tracer also reads the decision of its pair selectors as ``result[0]``, so
their ``(decision, pct)`` shape is guarded too, and so is the flood's use of
the two protocol functions whose calls the tracer counts.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import qwsn.cli
import qwsn.harness
import qwsn.pegasis
import qwsn.routing
import qwsn.sim
from qwsn.protocol import QosClass, fit_bootstrap
from qwsn.routing import Pct

BENCH = Path(__file__).resolve().parents[1] / "bench"

# The short module names of the tracer's tables, as bench/child.py maps them.
MODULES = {
    "cli": qwsn.cli,
    "harness": qwsn.harness,
    "sim": qwsn.sim,
    "pegasis": qwsn.pegasis,
    "routing": qwsn.routing,
}


def _tracer_tables():
    """``{table name: [(owner, attribute), ...]}`` from tracing.py."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: [
            (where, attr) for where, attr, _ in ast.literal_eval(node.value)
        ]
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("COARSE", "LEAVES", "COUNTERS")
    }


def _pair_selectors():
    """The names in tracing.py's ``_PAIR_SELECTORS``, sorted."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id == "_PAIR_SELECTORS"
    ]
    return sorted(names)


def _tracer_targets():
    return [target for table in _tracer_tables().values() for target in table]


def _round_timer_targets():
    """``(owner, attribute)`` of each ``_wrap_round_timer`` call in child.py."""
    tree = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    return [
        (ast.unparse(call.args[0]), ast.literal_eval(call.args[1]))
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_wrap_round_timer"
    ]


def _resolve(where, attr):
    module, _, cls = where.partition(".")
    owner = MODULES[module]
    if cls:
        owner = getattr(owner, cls)
    return getattr(owner, attr)


def test_tables_are_found():
    tables = _tracer_tables()
    assert sorted(tables) == ["COARSE", "COUNTERS", "LEAVES"]
    assert all(tables.values())
    assert _pair_selectors()
    assert len(_round_timer_targets()) == 2


@pytest.mark.parametrize("where, attr", _tracer_targets() + _round_timer_targets())
def test_wrapped_name_resolves(where, attr):
    assert callable(_resolve(where, attr))


@pytest.mark.parametrize("name", _pair_selectors())
def test_pair_selector_returns_decision_first(name):
    # the tracer wraps the selector where qwsn.sim calls it
    selector = getattr(qwsn.sim, name)
    kwargs = {}
    if "wait" in inspect.signature(selector).parameters:
        kwargs["wait"] = lambda node_id: 0
    result = selector(fit_bootstrap(1), Pct(), 1, **kwargs)
    assert isinstance(result, tuple) and len(result) == 2
    assert result[0] is None


def test_flood_calls_the_wrapped_protocol_functions(monkeypatch):
    """The tracer's ``protocol.apply_data_req.calls`` and flood useful ratio
    read the wrappers it puts on ``qwsn.sim``'s module globals, so the flood
    must call ``apply_data_req`` through them once per receiver and wave with
    a completed reception, and ``advert_from_fit`` once per broadcast."""
    calls = Counter()

    def counting(name):
        fn = getattr(qwsn.sim, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("apply_data_req", "advert_from_fit"):
        monkeypatch.setattr(qwsn.sim, name, counting(name))
    config = qwsn.sim.SimConfig(n=20, side=30.0, seed=1)
    sim = qwsn.sim.Simulation(config, QosClass.NORMAL, collect_trace=True)
    sim.run_flood()
    receptions = [line for line in sim._trace_lines if line[1] == "flood_rx"]
    # a wave's receptions share one time, and line[3] is the receiver
    settled = {(line[0], line[3]) for line in receptions}
    assert len(receptions) > len(settled) > sim.flood_broadcasts > 0
    assert calls["apply_data_req"] == len(settled)
    assert calls["advert_from_fit"] == sim.flood_broadcasts
