#!/usr/bin/env python3
"""qwsn host-time benchmark: the three shipped scenarios as workloads.

Usage, from the repository root::

    python3 bench/run.py --workload sweep_clean --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes
    python3 bench/run.py --workload lifetime --profile   # cProfile top-10

Each iteration is one fresh workload process (``bench/child.py``) that runs
``qwsn sweep`` or ``qwsn compare-pegasis`` through ``qwsn.cli.main`` on a
scenario generated from the shipped one, in a single thread.  Iterations
repeat until ``--seconds`` is used up.  Every iteration does the same work.
Other tenants of a shared host slow it by up to a factor of two for minutes
at a time, so untraced iterations time a fixed reference task between rounds
and every reported time is scaled to a reference host speed
(``bench/calibrate.py``); each metric is the median over the run.

``--trace 0`` reports the end-to-end metrics (scaled host time, untraced
runs).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see ``bench/README.md`` for which
end-to-end metric each should move).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with unit and sample count.

Inputs come from the seed: the topology seed list is the shipped scenario's
list shifted by ``seed * len(list)``, so ``--seed 0`` runs the shipped seeds
and ``--seed 1`` the held-out ones after them (10-19 for the sweeps).  An
iteration fails if it raised, exited non-zero, emitted files that fail the
output check, or wrote bytes that differ from another iteration, or from an
earlier run of the same source tree and inputs in this checkout
(``.bench/ledger.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from outputs import OutputError, check_lifetime, check_sweep, digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

# A run must end within 180 s; iterations stop starting well before that.
RUN_LIMIT_S = 150.0
MIN_ITERATIONS = 2  # per mode; two traced iterations let counts be compared
SETUP_PROBES = 8  # extra set-up samples per untraced iteration
SETUP_REFS = 3  # reference samples before each spawn
# Spans must cover the traced wall time: what none covers (interpreter work
# between calls, the round timers) may be at most this share of it.
MAX_UNATTRIBUTED = 0.01
# Times are the main thread's CPU time (bench/calibrate.py), so the workload's
# other threads (OpenBLAS's) must stay idle while it runs.
MAX_OTHER_THREADS = 0.05


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    # Scenario keys the benchmark replaces, beside the seed list.
    overrides: tuple[tuple[str, str], ...] = ()
    # compare-pegasis runs the first seed of its scenario only, so the
    # benchmark calls it once per seed of the list; a sweep runs them all.
    call_per_seed: bool = False


WORKLOADS = {
    # Query flood dominates (run_flood + apply_data_req); the PCT barely works.
    "sweep_clean": Workload("sweep", "scenarios/energy_latency.txt"),
    # Same flood, plus failure injection, ack timeouts and reliable fallback.
    "sweep_failures": Workload("sweep", "scenarios/reliability.txt"),
    # One flood, then delay+reliable reply rounds where pct_observe and
    # deliver_replies dominate.  The shipped comparison (one topology, four
    # failure fractions, 0.05 J) takes ~25 s and its length depends on the one
    # topology: rounds to half death vary by about 15 % (one standard
    # deviation) from topology to topology at 30 % failures.  So an iteration
    # runs sixteen topologies at the 30 % fraction with 0.015 J batteries
    # (~400 reply rounds each, ~11 s in all), which narrows the spread of the
    # total from seed to seed; the flood stays about a tenth of the time.
    "lifetime": Workload(
        "compare-pegasis",
        "scenarios/lifetime.txt",
        (
            ("seeds", ",".join(map(str, range(16)))),
            ("compare_fractions", "0.3"),
            ("compare_e_init", "0.015"),
        ),
        call_per_seed=True,
    ),
}

END_TO_END = (
    "setup_s",
    "cpu_s",
    "round_ms.p50",
    "round_ms.p95",
    "peak_rss_mb",
)

# Per-layer self times: metric -> span name (see bench/tracing.py).  Every
# span's self time is listed, so together with unattributed_s they add up to
# the traced wall time.
LAYER_TIMES = {
    "harness.run_sweep.self_s": "harness.run_sweep",
    "harness.emit.s": "harness.emit",
    "sim.round.self_s": "sim.round",
    "sim.build_topology.s": "sim.build_topology",
    "sim.init.s": "sim.init",
    "sim.run_flood.self_s": "sim.run_flood",
    "sim.inject_failures.s": "sim.inject_failures",
    "sim.deliver_replies.self_s": "sim.deliver_replies",
    "sim.metrics.s": "sim.metrics",
    "protocol.apply_data_req.s": "protocol.apply_data_req",
    "protocol.advert_from_fit.s": "protocol.advert_from_fit",
    "protocol.prune_low_energy.s": "protocol.prune_low_energy",
    "routing.pct_observe.s": "routing.pct_observe",
    "routing.select.s": "routing.select",
    "pegasis.compare.self_s": "pegasis.compare",
    "pegasis.case4.self_s": "pegasis.case4",
    "pegasis.chain.s": "pegasis.chain",
    "pegasis.build_chain.s": "pegasis.build_chain",
}
SETUP_SPAN = "harness.parse_scenario"

# Per-layer metrics in the JSON line, in BENCHMARK.json order.  Layer times
# that are zero by construction on some workload (the chain baseline on the
# sweeps; run_sweep, metrics() and the energy prune on the lifetime run) are
# printed and saved but kept out of it.
PER_LAYER = (
    "cli.import_s",
    "harness.parse_scenario.s",
    "harness.emit.s",
    "sim.build_topology.s",
    "sim.build_topology.calls",
    "sim.topology_attempts",
    "sim.init.s",
    "sim.round.self_s",
    "sim.run_flood.self_s",
    "sim.inject_failures.s",
    "sim.deliver_replies.self_s",
    "sim.events",
    "sim.events_per_s",
    "sim.unicasts",
    "protocol.apply_data_req.calls",
    "protocol.apply_data_req.s",
    "protocol.flood_useful_ratio",
    "protocol.advert_from_fit.s",
    "routing.pct_observe.calls",
    "routing.pct_observe.s",
    "routing.pct_observe.new_ratio",
    "routing.select.calls",
    "routing.select.s",
    "routing.select.no_route",
    "routing.remove_failed.calls",
    "unattributed_s",
    "trace_overhead_frac",
)


def scenario_values(text: str) -> dict[str, str]:
    values = {}
    for raw in text.splitlines():
        key, eq, value = raw.split("#", 1)[0].partition("=")
        if eq:
            values[key.strip()] = value.strip()
    return values


def build_scenarios(workload: Workload, seed: int) -> list[tuple[str, dict]]:
    """Scenario text of each CLI call, and the grid the output check expects."""
    path = ROOT / workload.scenario
    if not (SRC / "qwsn" / "cli.py").is_file() or not path.is_file():
        raise FileNotFoundError(f"no src/qwsn or {workload.scenario} under {ROOT}")
    text = path.read_text(encoding="utf-8")
    overrides = dict(workload.overrides)
    base = overrides.pop("seeds", None) or scenario_values(text)["seeds"]
    base_seeds = [int(s) for s in base.split(",")]
    seeds = tuple(s + seed * len(base_seeds) for s in base_seeds)
    if workload.call_per_seed:
        return [_scenario(workload, text, overrides, (s,)) for s in seeds]
    return [_scenario(workload, text, overrides, seeds)]


def _scenario(
    workload: Workload, text: str, overrides: dict, seeds: tuple[int, ...]
) -> tuple[str, dict]:
    replace = {"seeds": ",".join(map(str, seeds)), **overrides}
    lines = []
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        lines.append(f"{key}={replace.pop(key)}" if key in replace else raw)
    lines.extend(f"{key}={value}" for key, value in replace.items())
    text = "\n".join(lines) + "\n"
    values = scenario_values(text)
    grid = {"seeds": list(seeds)}
    if workload.command == "sweep":
        grid["qos"] = values["qos"].split(",")
        grid["sizes"] = [int(v) for v in values["sizes"].split(",")]
        grid["failures"] = [float(v) for v in values["failures"].split(",")]
    else:
        grid["compare_fractions"] = [
            float(v) for v in values["compare_fractions"].split(",")
        ]
    return text, grid


def source_digest() -> str:
    """Identifies the program and benchmark code, so runs of the same code
    are compared with each other."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "qwsn").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QWSN_SEED", None)  # the program gets its seeds from the scenario only
    env.pop("PYTHONPATH", None)
    return env


class ChildError(RuntimeError):
    """A workload process raised, exited non-zero or wrote no result."""


class Runner:
    """Runs iterations of one workload in a temporary work directory."""

    def __init__(self, name: str, seed: int, process_start: float) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.scenarios = build_scenarios(self.workload, seed)
        self.seeds = [s for _, grid in self.scenarios for s in grid["seeds"]]
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.scenario_paths = []
        for i, (text, _) in enumerate(self.scenarios):
            self.scenario_paths.append(self.work / f"scenario{i}.txt")
            self.scenario_paths[-1].write_text(text, encoding="utf-8")
        self.process_start = process_start
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def warm_up(self) -> None:
        """Import once unmeasured, so bytecode and file caches are warm."""
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
             "import qwsn.cli"],
            env=child_env(), check=True, timeout=60, stdout=subprocess.DEVNULL,
        )

    def _spawn(self, spec: dict, timeout: float):
        """Start one workload process on ``spec`` and wait for it."""
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        spec = {"src": str(SRC), "result": str(result_path), **spec}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        before = calibrate.sample(SETUP_REFS)
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise ChildError(f"exit code {proc.returncode}: {tail[0]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["elapsed"] = time.monotonic() - spawn
        result["host_setup_s"] = result.pop("mono") - spawn  # wall time
        # Set-up is the workload process's CPU time until the first round,
        # scaled by the reference samples taken just before the spawn and
        # just after set-up, in the workload process.
        setup_refs = result.pop("setup_refs")
        result["setup_s"] = result["setup_cpu"] * calibrate.REFERENCE_S / (
            statistics.median(d for _, d in before + setup_refs)
        )
        if "rounds" not in result:  # a set-up probe
            return result
        rounds = result.pop("rounds")
        result["host_wall_s"] = result["end_wall"] - result["start_wall"]
        if not (spec["trace"] or spec.get("profile")):
            result["host_cpu_s"], result["cpu_s"], rounds_s = calibrate.scale_run(
                result.pop("refs"), result["start"], result["end"], rounds
            )
        else:
            # No samples between rounds (they would land inside the spans or
            # the profile): one factor, from the samples taken when set-up
            # ended and after the last round, scales the whole iteration.
            slow = statistics.median(
                d for _, d in setup_refs + result.pop("refs")
            ) / calibrate.REFERENCE_S
            result["host_cpu_s"] = result["end"] - result["start"]
            result["cpu_s"] = result["host_cpu_s"] / slow
            rounds_s = [d / slow for _, d in rounds]
        result["rounds_ms"] = [t * 1e3 for t in rounds_s]
        if len(rounds_s) >= 2:
            result["rounds"] = len(rounds_s)
            result["round_ms.p50"], result["round_ms.p95"] = percentiles(
                result["rounds_ms"]
            )
        return result

    def argvs(self, out: Path) -> list[list[str]]:
        return [
            [self.workload.command, "--scenario", str(path), "--out", str(out / str(i))]
            for i, path in enumerate(self.scenario_paths)
        ]

    def probe_setup(self) -> float:
        """Scaled set-up time of one more spawn that stops at the first round."""
        self.count += 1
        spec = {"argvs": self.argvs(self.work / f"out{self.count}"), "trace": False,
                "probe": True}
        return self._spawn(spec, timeout=60)["setup_s"]

    def iterate(self, trace: bool, profile: Path | None = None) -> dict:
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        spec = {"argvs": self.argvs(out_dir), "trace": trace,
                "profile": str(profile) if profile else None}
        timeout = max(5.0, RUN_LIMIT_S + 20 - (time.monotonic() - self.process_start))
        it = {"trace": trace, "error": None}
        started = time.monotonic()
        try:
            it.update(self._spawn(spec, timeout))
        except subprocess.TimeoutExpired:
            it.update(error=f"timed out after {timeout:.0f} s", timed_out=True)
            return it
        except ChildError as exc:
            it.update(error=str(exc), elapsed=time.monotonic() - started)
            return it
        if "rounds" not in it:
            it["error"] = "fewer than two rounds were timed"
            return it
        busy = it["other_threads_cpu"] / it["host_cpu_s"]
        if busy > MAX_OTHER_THREADS:
            it["error"] = (f"other threads used {busy:.1%} of the main thread's"
                           " CPU time, which cpu_s does not count")
            return it
        check = check_sweep if self.workload.command == "sweep" else check_lifetime
        it["digests"], it["simulated"] = {}, {}
        for i, (_, grid) in enumerate(self.scenarios):
            out = out_dir / str(i)
            prefix = f"seed{grid['seeds'][0]}/" if self.workload.call_per_seed else ""
            try:
                for key, value in check(out, grid).items():
                    it["simulated"][key] = it["simulated"].get(key, 0) + value
                it["digests"].update({prefix + k: v for k, v in digests(out).items()})
            except (OutputError, OSError, ValueError, KeyError) as exc:
                it["error"] = f"output check: {prefix}{exc}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return it

    def run(self, seconds: float, trace: bool) -> list[dict]:
        """Iterations until ``seconds`` is used; with tracing, alternate modes.

        Untraced, each iteration is followed by set-up probes, which add
        set-up samples spread over the run at little cost."""
        modes = (False, True) if trace else (False,)
        start = time.monotonic()
        iterations: list[dict] = []
        while True:
            iterations.append(self.iterate(modes[len(iterations) % len(modes)]))
            if iterations[-1].get("timed_out"):
                break
            if not trace and iterations[-1]["error"] is None:
                try:
                    iterations[-1]["setup_probes"] = [
                        self.probe_setup() for _ in range(SETUP_PROBES)
                    ]
                except (ChildError, subprocess.TimeoutExpired) as exc:
                    iterations[-1]["error"] = f"set-up probe: {exc}"
            now = time.monotonic()
            next_cost = statistics.median(
                it["elapsed"] for it in iterations[-len(modes):]
            )
            if now + next_cost - self.process_start > RUN_LIMIT_S:
                break
            if len(iterations) >= MIN_ITERATIONS * len(modes) and (
                now + next_cost - start > seconds
            ):
                break
        return iterations


def percentiles(values: list[float]) -> tuple[float, float]:
    """Median and 95th percentile."""
    return (
        statistics.median(values),
        statistics.quantiles(values, n=100, method="inclusive")[94],
    )


def consistency(iterations: list[dict], ledger: dict) -> None:
    """Mark iterations whose bytes or counts differ from the reference.

    The reference is an earlier run of the same code and inputs in this
    checkout if there is one, else this run's first successful iteration.
    """
    ok = [it for it in iterations if it["error"] is None]
    if not ok:
        return
    ledger.setdefault("digests", ok[0]["digests"])
    traced = [it for it in ok if it["trace"]]
    if traced:
        ledger.setdefault(
            "counts", {"calls": traced[0]["calls"], "counts": traced[0]["counts"]}
        )
    for it in ok:
        if it["digests"] != ledger["digests"]:
            it["error"] = "output bytes differ from another run of the same code"
        elif it["trace"] and {"calls": it["calls"], "counts": it["counts"]} != ledger[
            "counts"
        ]:
            it["error"] = "exact counts differ from another run of the same code"


def end_to_end(iterations: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Medians over the untraced iterations of their scaled CPU times (see
    ``bench/calibrate.py``): from the first round to the last output per
    iteration, set-up per spawn (iterations and probes), and the percentiles
    of every round of every iteration taken together."""
    ok = [it for it in iterations if it["error"] is None and not it["trace"]]
    if not ok or len({it["rounds"] for it in ok}) != 1:
        return {}
    setups = [s for it in ok for s in [it["setup_s"], *it["setup_probes"]]]
    rounds = [t for it in ok for t in it["rounds_ms"]]
    p50, p95 = percentiles(rounds)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "cpu_s": (statistics.median(it["cpu_s"] for it in ok), "s", len(ok)),
        "round_ms.p50": (p50, "ms", len(rounds)),
        "round_ms.p95": (p95, "ms", len(rounds)),
        "peak_rss_mb": (
            statistics.median(it["peak_rss_mb"] for it in ok), "MB", len(ok)
        ),
    }


def per_layer(iterations: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Layer metrics of the fastest traced iteration, so that they add up to
    its ``traced_wall_s`` (spans are timed in wall time).  The overhead
    compares the scaled CPU time of the traced iterations with that of the
    untraced ones run in turn with them, and the event rate divides by the
    untraced ``cpu_s``."""
    ok = [it for it in iterations if it["error"] is None]
    traced = [it for it in ok if it["trace"]]
    plain = [it for it in ok if not it["trace"]]
    if not traced or not plain:
        return {}
    n = len(traced)
    best = min(traced, key=lambda it: it["host_wall_s"])
    plain_cpu = statistics.median(it["cpu_s"] for it in plain)
    overhead = (
        statistics.median(it["cpu_s"] for it in traced) / plain_cpu - 1.0
    )
    calls, counts, self_s = best["calls"], best["counts"], best["self_s"]
    metrics = {
        "traced_wall_s": (best["host_wall_s"], "s", n),
        "cli.import_s": (best["import_s"], "s", n),
        "harness.parse_scenario.s": (self_s[SETUP_SPAN], "s", n),
    }
    for metric, span in LAYER_TIMES.items():
        metrics[metric] = (self_s[span], "s", n)
    metrics.update({
        "unattributed_s": (best["unattributed_s"], "s", n),
        "trace_overhead_frac": (overhead, "ratio", n),
        "sim.build_topology.calls": (calls["sim.build_topology"], "count", n),
        "sim.topology_attempts": (counts["sim.topology_attempts"], "count", n),
        "sim.events": (counts["sim.events"], "count", n),
        "sim.events_per_s": (counts["sim.events"] / plain_cpu, "1/s", len(plain)),
        # tx_energy prices every unicast, plus one broadcast cost per Simulation.
        "sim.unicasts": (counts["sim.tx_energy_calls"] - calls["sim.init"], "count", n),
        "protocol.apply_data_req.calls": (calls["protocol.apply_data_req"], "count", n),
        "protocol.flood_useful_ratio": (
            share(counts["protocol.flood_useful"], calls["protocol.apply_data_req"]),
            "ratio", n,
        ),
        "routing.pct_observe.calls": (calls["routing.pct_observe"], "count", n),
        "routing.pct_observe.new_ratio": (
            share(counts["routing.pct_observe.new"], calls["routing.pct_observe"]),
            "ratio", n,
        ),
        "routing.select.calls": (calls["routing.select"], "count", n),
        "routing.select.no_route": (counts["routing.select.no_route"], "count", n),
        "routing.remove_failed.calls": (
            counts["routing.remove_failed.calls"], "count", n
        ),
    })
    return metrics


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def run_workload(name: str, args, process_start: float) -> tuple[dict, dict]:
    runner = Runner(name, args.seed, process_start)
    try:
        runner.warm_up()
        iterations = runner.run(args.seconds, bool(args.trace))
    finally:
        runner.close()

    ledger_path = OUT / "ledger.json"
    ledger_all = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = hashlib.sha256(
        "\0".join([source_digest(), name, *(t for t, _ in runner.scenarios)]).encode()
    ).hexdigest()
    consistency(iterations, ledger_all.setdefault(key, {}))
    problems = []
    for it in iterations:
        if it["error"] is None and it["trace"]:
            share_left = it["unattributed_s"] / it["host_wall_s"]
            if not 0.0 <= share_left <= MAX_UNATTRIBUTED:
                problems.append(f"spans leave {share_left:.2%} of the traced wall"
                                " unattributed")
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger_all, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)

    failed = [it for it in iterations if it["error"] is not None]
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations)
    wanted = PER_LAYER if args.trace else END_TO_END
    if any(m not in metrics for m in wanted):
        problems.append("too few successful, agreeing iterations for every metric")
    ok = [it for it in iterations if it["error"] is None]
    report = {
        "workload": name,
        "trace": args.trace,
        "seeds": runner.seeds,
        "scenarios": [t for t, _ in runner.scenarios],
        "seconds": args.seconds,
        "correct": not failed and not problems,
        "attempted": len(iterations),
        "failed": len(failed),
        "failed_frac": len(failed) / len(iterations),
        "errors": [it["error"] for it in failed] + problems,
        "iterations": [
            {k: it.get(k) for k in ("trace", "error", "setup_s", "setup_cpu",
                                     "host_setup_s", "setup_probes", "cpu_s",
                                     "host_cpu_s", "host_wall_s",
                                     "other_threads_cpu",
                                     "rounds", "round_ms.p50", "round_ms.p95",
                                     "peak_rss_mb")}
            for it in iterations
        ],
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in
                    metrics.items()},
        "digests": ok[0]["digests"] if ok else None,
        "simulated": ok[0].get("simulated") if ok else None,
        "exact_counts": ledger_all[key].get("counts"),
        "env": {
            "python": ok[0]["python"] if ok else None,
            "numpy": ok[0]["numpy"] if ok else None,
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
        },
    }
    spans = next((it["spans"] for it in reversed(ok) if it["trace"]), None)
    save(report, spans)
    return report, {m: metrics[m] for m in wanted if m in metrics}


def save(report: dict, spans: list | None) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-trace{report['trace']}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans is not None:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent in spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def print_report(report: dict) -> None:
    seeds = report["seeds"]
    print(f"== {report['workload']} trace={report['trace']}"
          f" seeds={seeds[0]}..{seeds[-1]} ({len(seeds)})"
          f" iterations={report['attempted']} failed={report['failed']}"
          f" failed_frac={report['failed_frac']:.3f}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']})")
    verdict = "ok" if report["correct"] else "FAILED: " + "; ".join(report["errors"])
    print(f"  output check: {verdict}")
    for file, digest in (report["digests"] or {}).items():
        print(f"  sha256 {file:24s} {digest}")
    if report["simulated"]:
        stats = ", ".join(f"{k}={v:.6g}" for k, v in report["simulated"].items())
        print(f"  simulated (not gated): {stats}")


def profile(args) -> int:
    runner = Runner(args.workload, args.seed, time.monotonic())
    try:
        runner.warm_up()
        path = runner.work / "profile.txt"
        it = runner.iterate(False, profile=path)
        if it["error"] is not None:
            print(f"error: {it['error']}", file=sys.stderr)
            return 1
        print(path.read_text(encoding="utf-8"))
    finally:
        runner.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    process_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile top-10 of one iteration")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    if args.profile and args.workload == "all":
        parser.error("--profile needs one workload")
    try:
        if args.profile:
            return profile(args)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = (0, 1) if args.workload == "all" else (args.trace,)
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for mode in modes:
                args.trace = mode
                start = time.monotonic() if args.workload == "all" else process_start
                report, metrics = run_workload(name, args, start)
                print_report(report)
                summary["correct"] &= report["correct"]
                summary["attempted"] += report["attempted"]
                summary["failed"] += report["failed"]
                prefix = f"{name}." if args.workload == "all" else ""
                for metric, (value, unit, _) in metrics.items():
                    summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    except (FileNotFoundError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
