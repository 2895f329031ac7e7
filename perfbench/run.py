"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-adhoc --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, sets up several times
(``setup_s`` is the median), runs the timed closed loop for
``--seconds``, checks every answer against SQLite and prints each metric
by name and unit. Wall-clock metrics are scaled to the reference machine
by the speed probe of ``probe.py``; the text lines also give them as
measured. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``. With ``--trace 1`` the timed
loop is split into untraced and traced halves, ``metrics`` holds the
per-layer metrics and the spans go to
``.perfbench-spans/<workload>-seed<seed>.jsonl``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Where traced runs write their spans, one JSON line per span.
SPANS_DIR = ROOT / ".perfbench-spans"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: The metric names and units ``BENCHMARK.json`` declares.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class WarningCounter:
    """Counts ``RuntimeWarning``s raised anywhere in the process."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()
        self._show = warnings.showwarning

    def install(self) -> None:
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._record

    def _record(self, message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            with self._lock:
                self.count += 1
        else:
            self._show(message, category, *args, **kwargs)


def calibration_ns_per_row(rows: int = 1_000_000, rounds: int = 7) -> float:
    """Raw-numpy streaming floor in ns/row, with no program code.

    The kernels a filtered grouped count needs (compare, flatnonzero,
    gather, bincount) over fixed arrays; the fastest of ``rounds``.
    Divide a run's timings by it to compare machines.
    """
    rng = np.random.default_rng(0)
    quantity = rng.uniform(1.0, 50.0, rows)
    keys = rng.integers(0, 2500, rows)
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        selected = np.flatnonzero(quantity > 25)
        np.bincount(keys[selected])
        best = min(best, time.perf_counter() - started)
    return best * 1e9 / rows


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Segment:
    """One timed closed loop on one runtime."""

    runtime: object
    samples: list
    #: (wall seconds, slowdown) of each probe round of the loop.
    rounds: list
    traced: bool
    warnings: int
    peak_rss_mb: float
    #: Plan-cache and scan-cache counters summed over the sessions.
    caches: dict

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.rounds)

    @property
    def scaled_s(self) -> float:
        """Wall seconds at reference-machine speed."""
        return sum(wall / slowdown for wall, slowdown in self.rounds)

    @property
    def simulated_s(self) -> float:
        return sum(s.simulated_s for s in self.samples if s.in_window)


def run_segment(workload, inputs, runtime, seconds, counter, probe, tracer=None):
    """Time one closed loop, on ``runtime`` or on a freshly started one."""
    from workloads import cache_counts, close_runtime

    if tracer is not None:
        tracer.install()
    try:
        if runtime is None:
            mark = len(tracer.spans) if tracer is not None else 0
            runtime = workload.start(inputs, tracer)
            if tracer is not None:
                del tracer.spans[mark:]  # warm-up is not part of the loop
        warned = counter.count
        gc.collect()
        first_round = len(probe.rounds)
        samples = workload.run(inputs, runtime, seconds, probe, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    counts = runtime.retired + [cache_counts(s) for s in runtime.sessions]
    segment = Segment(
        runtime, samples, probe.rounds[first_round:], tracer is not None,
        counter.count - warned, peak_rss_mb(),
        {key: sum(c[key] for c in counts) for key in counts[0]},
    )
    close_runtime(runtime)
    return segment


def summarize(segments, scaled=True) -> dict:
    """Throughput, latency percentiles and sample counts over segments,
    at reference-machine speed or (``scaled=False``) as measured."""
    samples = [s for seg in segments for s in seg.samples]
    latencies = np.array([s.latency_s for s in samples]) * 1e3
    if scaled:
        latencies /= np.array([s.slowdown for s in samples])
    p50, p95 = np.percentile(latencies, [50, 95])
    seconds = sum(seg.scaled_s if scaled else seg.wall_s for seg in segments)
    return {
        "throughput_qps": len(samples) / seconds,
        "latency_p50_ms": float(p50),
        "latency_p95_ms": float(p95),
        "simulated_s": segments[0].simulated_s,
        "samples": len(samples),
        "beyond_p95": int((latencies > p95).sum()),
    }


def wrong_answers(oracle, segments) -> list[str]:
    """Every wrong answer, described; answers are checked after timing."""
    answers = [
        (s.op.db, s.op.sql, s.frame)
        for seg in segments for s in seg.samples if s.frame is not None
    ] + [c for seg in segments for c in seg.runtime.captured]
    return [
        f"wrong answer ({db}): {sql}"
        for db, sql, frame in answers
        if not oracle.check(db, sql, frame)
    ]


def cache_layers(segments) -> dict:
    def total(key):
        return sum(seg.caches[key] for seg in segments)

    def ratio(hits, misses):
        done = total(hits) + total(misses)
        return total(hits) / done if done else 0.0

    return {
        "engine.scan_cache_hit_ratio": ratio("scan_hits", "scan_misses"),
        # What a session's scan cache still holds when it is closed (or
        # when the loop ends): Session.close() does not empty it.
        "engine.scan_cache_entries": total("scan_entries") / total("sessions"),
        "service.plan_cache_hit_ratio": ratio("plan_hits", "plan_misses"),
    }


def shed_ratio(runtimes) -> float:
    snapshots = [r.server.admission.snapshot() for r in runtimes if r.server]
    shed = sum(snap["shed"] for snap in snapshots)
    offered = shed + sum(snap["admitted"] for snap in snapshots)
    return shed / offered if offered else 0.0


def layer_report(tracer, traced, plain, inputs, warned) -> dict:
    """Every per-layer metric, from the traced segments and the spans."""
    from spans import layer_metrics

    runtimes = [seg.runtime for seg in traced]
    swaps = [t for each in runtimes for t in each.swap_s]
    layers = layer_metrics(tracer)
    layers.update(cache_layers(traced))
    layers["serving.shed_ratio"] = shed_ratio(runtimes)
    layers["stats.build_s"] = inputs.stats_build_s
    layers["stats.swap_ms"] = 1e3 * statistics.fmean(swaps) if swaps else 0.0
    layers["selection.runtime_warnings"] = warned
    layers["bench.trace_overhead_ratio"] = (
        plain["throughput_qps"] / summarize(traced)["throughput_qps"]
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SOURCE}", file=sys.stderr)
        return 2
    from oracle import Oracle
    from probe import REFERENCE_S, SpeedProbe
    from spans import Tracer
    from workloads import WORKLOADS, close_runtime

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    counter = WarningCounter()
    counter.install()
    workload = WORKLOADS[args.workload](args.seed)

    probe = SpeedProbe()
    setup_times, slowdowns = [], [probe.measure()]
    inputs = runtime = None
    for _ in range(SETUP_REPEATS):
        if runtime is not None:
            close_runtime(runtime)
        inputs = runtime = None
        gc.collect()
        started = time.perf_counter()
        inputs = workload.build()
        runtime = workload.start(inputs)
        setup_times.append(time.perf_counter() - started)
        slowdowns.append(probe.measure())
    # Each set-up is scaled by the mean slowdown of the probes either side.
    scaled_setups = [
        seconds * 2 / (before + after)
        for seconds, before, after in zip(setup_times, slowdowns, slowdowns[1:])
    ]

    if args.trace:
        # Untraced and traced halves in ABBA order, so that a drift in
        # machine speed cancels out of the overhead ratio.
        tracer = Tracer()
        segments = [
            run_segment(workload, inputs, runtime if index == 0 else None,
                        args.seconds / 2, counter, probe, tracer if traced else None)
            for index, traced in enumerate((False, True, True, False))
        ]
    else:
        segments = [run_segment(workload, inputs, runtime, args.seconds, counter, probe)]
    untraced = [seg for seg in segments if not seg.traced]
    traced = [seg for seg in segments if seg.traced]
    plain = summarize(untraced)
    rss = min(seg.peak_rss_mb for seg in untraced)
    warned = sum(seg.warnings for seg in untraced)
    all_samples = [s for seg in segments for s in seg.samples]
    problems = []
    if workload.deterministic:
        windows = {seg.simulated_s for seg in segments}
        if len(windows) > 1:
            problems.append(f"simulated_s differs between runs: {sorted(windows)}")

    calibration = calibration_ns_per_row()
    if args.trace:
        layers = layer_report(tracer, traced, plain, inputs, warned)
        layers["bench.calibration_ns_per_row"] = calibration
        layers["bench.probe_ms"] = 1e3 * statistics.median(probe.times)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")

    oracle = Oracle(inputs.databases)
    try:
        wrong = wrong_answers(oracle, segments)
    finally:
        oracle.close()
    errors = [s.error for s in all_samples if s.error is not None]
    problems += wrong
    attempted = len(all_samples)
    failed = len(errors) + len(wrong)

    # The text lines below also print the timings as measured.
    measured = summarize(untraced, scaled=False)
    measured["setup_s"] = statistics.median(setup_times)
    end_to_end = {
        "setup_s": statistics.median(scaled_setups),
        "throughput_qps": plain["throughput_qps"],
        "latency_p50_ms": plain["latency_p50_ms"],
        "latency_p95_ms": plain["latency_p95_ms"],
        "simulated_s": plain["simulated_s"],
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
    }
    name = args.workload
    for message in (errors + problems)[:20]:
        print(f"{name}: {message}", file=sys.stderr)
    print(f"{name} seed={args.seed} samples={plain['samples']} "
          f"beyond_p95={plain['beyond_p95']} warnings={warned} "
          f"slowdown={statistics.median(probe.times) / REFERENCE_S:.4g}")
    for metric in ("setup_s", "throughput_qps", "latency_p50_ms", "latency_p95_ms"):
        print(f"{name} {metric} as measured = {measured[metric]:.6g} "
              f"{END_TO_END_UNITS[metric]}")
    for metric, value in end_to_end.items():
        print(f"{name} {metric} = {value:.6g} {END_TO_END_UNITS[metric]}")
    if not args.trace:
        print(f"{name} bench.calibration_ns_per_row = {calibration:.6g} ns/row")
    print(f"{name} failed_frac = {failed / attempted:.6g} frac")
    if args.trace:
        for metric, value in layers.items():
            print(f"{name} {metric} = {value:.6g} {PER_LAYER_UNITS[metric]}")
        chosen = {m: (layers[m], PER_LAYER_UNITS[m]) for m in PER_LAYER_UNITS}
    else:
        chosen = {m: (end_to_end[m], END_TO_END_UNITS[m]) for m in END_TO_END_UNITS}
    print(json.dumps({
        "correct": not problems and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
