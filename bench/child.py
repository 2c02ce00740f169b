"""Workload process: runs ``qwsn`` commands through ``qwsn.cli.main``.

Usage: ``python3 child.py SPEC.json``.  The spec names the source tree, the
CLI arguments of each call, where to write the result, and whether to trace,
profile, or only probe set-up (stop when the first round starts).  The calls
run one after another in this process's only thread; the result is one JSON
file:

* ``mono``: ``time.monotonic()`` when the workload's top-level call
  (``run_sweep`` or ``compare_case4``) is entered, i.e. when the first
  simulated round starts; the parent subtracts its spawn time to get the
  set-up's wall time;
* ``setup_cpu``: the main thread's CPU time at that moment
  (``time.thread_time`` counts from the start of the process).  The numpy
  import starts OpenBLAS threads, whose CPU time runs in parallel and does
  not delay the first round, so set-up does not count it; every CPU time
  here is the main thread's;
* ``setup_refs``: reference samples (``bench/calibrate.py``) taken right then,
  to scale the set-up time;
* ``start``, ``end``: CPU time just after those samples and when the last
  ``main`` returned (every output written); ``start_wall`` and ``end_wall``
  are the same moments in ``time.perf_counter()``, and ``other_threads_cpu``
  the CPU time the process's other threads used in between;
* ``rounds``: ``(start, duration)`` in CPU time of each simulated round, timed at the
  ``simulate_query_round`` call ``run_sweep`` makes, or at each
  ``Simulation.run_reply_round`` of the lifetime run;
* ``refs``: unless traced or profiled, ``(start, duration)`` of the
  reference samples taken between rounds, once per ``calibrate.EVERY_S`` of
  program time and once more after the last round; traced and profiled runs
  take ``SETUP_REFS`` samples after the last round instead;
* ``peak_rss_mb``: the process's peak resident memory;
* with tracing, per-layer self times, call counts and counters.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

import calibrate

# Reference samples at the first round, for scaling the set-up time.
SETUP_REFS = 3


def _wrap_round_timer(owner, attr: str, rounds: list, refs: list | None) -> None:
    """Time each round; without tracing, follow a round by a reference
    sample once ``calibrate.EVERY_S`` has passed since the last sample."""
    fn = getattr(owner, attr)
    clock = time.thread_time

    def timed(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        end = clock()
        rounds.append((start, end - start))
        if refs is not None and end - sum(refs[-1]) >= calibrate.EVERY_S:
            refs.extend(calibrate.sample())
        return result

    setattr(owner, attr, timed)


def _wrap_first_round(
    owner, attr: str, stamps: dict, tracer, probe: Path | None, refs: list | None
):
    fn = getattr(owner, attr)

    def stamped(*args, **kwargs):
        if not stamps:
            stamps["mono"] = time.monotonic()
            stamps["setup_cpu"] = time.thread_time()
            stamps["setup_refs"] = calibrate.sample(SETUP_REFS)
            if probe is not None:
                # A set-up probe stops here, before any simulation work.
                probe.write_text(json.dumps({
                    key: stamps[key] for key in ("mono", "setup_cpu", "setup_refs")
                }))
                raise SystemExit(0)
            if tracer is not None:
                stamps.update(covered=tracer.covered())
            if refs is not None:
                refs.extend(stamps["setup_refs"])
            stamps["perf"] = time.perf_counter()
            stamps["process"] = time.process_time()
            stamps["cpu"] = time.thread_time()
        return fn(*args, **kwargs)

    setattr(owner, attr, stamped)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])

    start = time.perf_counter()
    import qwsn.cli as cli

    import_s = time.perf_counter() - start
    import numpy
    from qwsn import harness, pegasis, routing, sim

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(
            {"cli": cli, "harness": harness, "sim": sim, "pegasis": pegasis,
             "routing": routing}
        )

    rounds: list[tuple[float, float]] = []
    stamps: dict = {}
    # Traced and profiled runs take no reference samples between rounds:
    # they would show up as unattributed time or in the profile.
    refs = None if tracer is not None or spec.get("profile") else []
    _wrap_round_timer(harness, "simulate_query_round", rounds, refs)
    _wrap_round_timer(sim.Simulation, "run_reply_round", rounds, refs)
    entry = "run_sweep" if spec["argvs"][0][0] == "sweep" else "compare_case4"
    probe = Path(spec["result"]) if spec.get("probe") else None
    _wrap_first_round(cli, entry, stamps, tracer, probe, refs)

    def run_all() -> int:
        for argv in spec["argvs"]:
            code = cli.main(argv)
            if code != 0:
                return code
        return 0

    if spec.get("profile"):
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        code = profiler.runcall(run_all)
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text).strip_dirs()
        stats.sort_stats("tottime").print_stats(10)
        Path(spec["profile"]).write_text(text.getvalue(), encoding="utf-8")
    else:
        code = run_all()
    end, end_cpu, end_process = (
        time.perf_counter(), time.thread_time(), time.process_time()
    )
    if code != 0:
        return code
    if not stamps:
        raise RuntimeError(f"{entry} was never called")
    # One more sample closes the last stretch (output writing).
    end_refs = calibrate.sample(1 if refs is not None else SETUP_REFS)
    if refs is not None:
        refs.extend(end_refs)

    result = {
        "import_s": import_s,
        "mono": stamps["mono"],
        "setup_cpu": stamps["setup_cpu"],
        "setup_refs": stamps["setup_refs"],
        "start": stamps["cpu"],
        "end": end_cpu,
        "start_wall": stamps["perf"],
        "end_wall": end,
        "other_threads_cpu": (end_process - stamps["process"])
        - (end_cpu - stamps["cpu"]),
        "rounds": rounds,
        "refs": refs if refs is not None else end_refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        # Spans are timed in wall time.  Only what ran after the first round
        # started is inside the traced wall time: the first call's scenario
        # parsing ran before it.
        covered = tracer.covered() - stamps["covered"]
        result["unattributed_s"] = end - stamps["perf"] - covered
        result["self_s"] = tracer.self_s
        result["calls"] = dict(tracer.calls)
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
