"""Served benchmark of ``repro serve``: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload check-hot --seed 1 --seconds 22 --trace 0

For the chosen workload (``check-hot``, ``evolve-lifecycle``,
``fanout``; see ``workloads.py``) the benchmark boots fresh
``repro serve`` subprocesses of the checkout, replays the request
sequence generated from ``--seed`` from one client process (closed
loop, at most two keep-alive connections) in ten measured windows,
checks every response against a reference computed without the
server in the gaps between them, and prints a report.
A response that differs from the reference fails the run and is named.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s``
is the median of several fresh set-ups (server launch to ready plus
the workload's registrations and warm-up); the others come from the
measured phase on the last of those servers.  ``main_p50_ms`` and
``main_tail_ms`` time the workload's main request, ``aux_p50_ms`` and
``aux2_p50_ms`` two secondary ones; the report names each by its
request.  With ``--trace 1`` the measured time is split between an
untraced server and one started through ``launcher.py``, and the
metrics are the per-layer ones.  The exit code is 0 only when every
response matched its reference, no request failed and no
shared-memory segment leaked.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The measured seconds are split into this many windows, and the
#: responses of each are checked against the reference in the gap
#: after it, while the server idles.  On evolve-lifecycle and fanout
#: the gaps last about as long as the windows, so a run samples the
#: host over twice its measured time: on a shared 2-vCPU VM the speed
#: of two busy processes (the two shards of a /migrate) drifted by
#: 20% and more over 5-25 s.
WINDOWS = 10


@dataclass
class Measurement:
    """One measured server: set-up times, the phase, process numbers
    and the reference check of every finished unit."""

    setup_times: list
    phase: object
    before: dict
    after: dict
    cpu_seconds: float
    peak_rss_mb: float
    problems: list
    checked: int
    errors: list


def measure(workload, seconds, setups, spans=None) -> Measurement:
    """Set up *setups* fresh servers (the last one through the traced
    launcher when *spans* is given), then run the measured phase on
    the last one in :data:`WINDOWS` windows and stop it."""
    from harness import Phase, ServerProcess, run_phase, scrape_metrics, verify
    from repro.core.runtime import shm_segments

    segments = shm_segments()
    setup_units = workload.setup_units()
    streams = [iter(workload.units(connection, seconds))
               for connection in range(workload.connections)]
    problems, errors, setup_times = [], [], []
    seen: set = set()
    phase = Phase()
    checked = verified = 0
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                problems += server.stop()
            started = time.perf_counter()
            server = ServerProcess(
                workload.server_args, spans if attempt == setups - 1 else None
            )
            setup = run_phase(server, [setup_units])
            setup_times.append(time.perf_counter() - started)
            errors += verify(setup.finished, seen)
            checked += len(setup.finished)
            if setup.failed:
                problems.append(f"{setup.failed} set-up request(s) failed")
        before = scrape_metrics(server)
        cpu = server.cpu_seconds()
        for _ in range(WINDOWS):
            errors += verify(phase.finished[verified:], seen)
            verified = len(phase.finished)
            gc.collect()
            gc.disable()
            try:
                run_phase(server, streams, seconds / WINDOWS, phase)
            finally:
                gc.enable()
        after = scrape_metrics(server)
        cpu = server.cpu_seconds() - cpu
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            problems += server.stop()
    errors += verify(phase.finished[verified:], seen)
    leaked = shm_segments() - segments
    if leaked:
        problems.append(
            f"{len(leaked)} new psm_* segment(s) left in /dev/shm: "
            f"{sorted(leaked)[:4]}"
        )
    return Measurement(
        setup_times, phase, before, after, cpu, rss, problems,
        checked + len(phase.finished), errors,
    )


def latency_lines(workload, phase) -> list:
    """Every latency the workload reports, by its request's name, with
    unit, sample count and, for a tail, the samples beyond it."""
    from harness import percentile

    lines = []
    for latency in workload.latencies:
        samples = phase.pooled(latency.kinds)
        gated = f"  [{latency.metric}]" if latency.metric else "  [not gated]"
        if not samples:
            lines.append(f"  {latency.name:<22} (no samples){gated}")
            continue
        value, beyond = percentile(samples, latency.quantile)
        note = ""
        if latency.quantile > 0.5:
            note = f", {beyond} beyond"
            if beyond < 10:
                note += ": fewer than ten, not a valid tail at this length"
        lines.append(
            f"  {latency.name:<22} {value * 1e3:12.4f} ms     "
            f"(n={len(samples)}{note}){gated}"
        )
    return lines


def end_to_end(workload, measurement) -> dict:
    """The ``BENCHMARK.json`` end-to-end metrics as ``{name: (value,
    unit)}``."""
    from harness import percentile

    phase = measurement.phase
    metrics = {
        "setup_s": (statistics.median(measurement.setup_times), "s"),
        "ops_per_s": (
            (phase.attempted - phase.failed) / phase.elapsed, "ops/s"
        ),
    }
    for latency in workload.latencies:
        if latency.metric:
            samples = phase.pooled(latency.kinds) or [0.0]
            value = percentile(samples, latency.quantile)[0] * 1e3
            metrics[latency.metric] = (value, "ms")
    metrics["peak_rss_mb"] = (measurement.peak_rss_mb, "MB")
    return metrics


def summary(workload, measurement, label: str) -> list:
    phase = measurement.phase
    return [
        f"{label}: {phase.attempted} requests in {phase.elapsed:.2f} s over "
        f"{workload.connections} connection(s)",
        f"  ops_per_s              "
        f"{(phase.attempted - phase.failed) / phase.elapsed:12.4f} ops/s  "
        f"(n={phase.attempted})",
        f"  error_rate             "
        f"{phase.failed / max(1, phase.attempted):12.4f} share  "
        f"(n={phase.attempted}, {phase.failed} failed)",
        f"  setup_s                "
        f"{statistics.median(measurement.setup_times):12.4f} s      "
        f"(n={len(measurement.setup_times)}: "
        f"{', '.join(f'{t:.3f}' for t in measurement.setup_times)})",
        f"  peak_rss_mb            {measurement.peak_rss_mb:12.4f} MB     "
        f"(server and shard processes)",
        f"  server_cpu_s           {measurement.cpu_seconds:12.4f} s",
        *latency_lines(workload, phase),
    ]


def _bodies(phase, kind: str) -> list:
    """The decoded 200 responses to every call of *kind*."""
    return [
        json.loads(body)
        for unit, responses in phase.finished
        for call, (status, body) in zip(unit.calls, responses)
        if call.kind == kind and status == 200
    ]


def _shard_counters(phase) -> dict:
    """Summed counters of the fanned-out ``/sweep`` responses."""
    totals = dict.fromkeys(
        ("cache_hits", "cache_misses", "warm_seeded", "warm_decided",
         "witness_lazy"), 0
    )
    for body in _bodies(phase, "sweep"):
        counters = body["counters"]
        if counters["workers"] > 1:
            for key in totals:
                totals[key] += counters[key]
    return totals


def traced_metrics(workload, untraced, traced, spans) -> tuple:
    """Per-layer metrics and report lines of a traced run."""
    import layers
    from harness import percentile

    phase = traced.phase
    stats = layers.aggregate(spans, phase.start_ns, phase.end_ns)
    main_p50 = [
        percentile(run.phase.pooled(workload.main_kinds()) or [0.0], 0.5)[0]
        for run in (untraced, traced)
    ]
    round_trips = [t for values in phase.samples.values() for t in values]
    values = layers.per_layer(
        stats,
        traced.before,
        traced.after,
        statistics.fmean(round_trips) * 1e6 if round_trips else 0.0,
        statistics.fmean(
            [body["classes"] for body in _bodies(phase, "migrate")] or [0]
        ),
        untraced.cpu_seconds * 1e3 / max(1, untraced.phase.attempted),
        (main_p50[1] / main_p50[0] - 1.0) * 100 if main_p50[0] else 0.0,
        _shard_counters(phase),
    )
    metrics = {name: (values[name], unit)
               for name, unit, _ in layers.PER_LAYER}
    lines = [
        f"layers (traced phase, {len(spans)} spans recorded; "
        f"busy = summed span time, self = busy minus child spans, "
        f"wait = engine queue; shard processes are not traced, their "
        f"counters come from the /sweep responses):",
        *layers.table(stats),
        "per-layer metrics (0 = layer not exercised by this workload):",
        *(f"  {name:<32} {value:14.4f} {unit}"
          for name, (value, unit) in metrics.items()),
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")
    workload = workloads.make(args.workload, args.seed)
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if not args.trace:
        runs = [measure(workload, args.seconds, SETUPS)]
        lines = summary(workload, runs[0], "untraced")
        metrics = end_to_end(workload, runs[0])
    else:
        spans_path = harness.SCRATCH / f"spans-{os.getpid()}.json"
        half = args.seconds / 2
        untraced = measure(workload, half, 1)
        traced = measure(workload, half, 1, spans_path)
        runs = [untraced, traced]
        spans = layers.load_spans(spans_path)
        spans_path.unlink()
        metrics, layer_lines = traced_metrics(
            workload, untraced, traced, spans
        )
        lines = [
            *summary(workload, untraced, "untraced"),
            *summary(workload, traced, "traced"),
            *layer_lines,
        ]

    problems = [problem for run in runs for problem in run.problems]
    errors = [error for run in runs for error in run.errors]
    lines.append(
        f"reference check: {sum(run.checked for run in runs)} units, "
        f"{len(errors)} mismatch(es); {len(problems)} process problem(s)"
    )
    if not args.trace:
        lines.append("end-to-end metrics:")
        lines += [f"  {name:<22} {value:12.4f} {unit}"
                  for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    for message in errors[:20] + problems:
        print(f"FAIL {message}")
    attempted = sum(run.phase.attempted for run in runs)
    failed = sum(run.phase.failed for run in runs)
    correct = not errors and not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
