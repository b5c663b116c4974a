"""Per-layer metrics of a traced run: spans plus ``/metrics`` deltas.

A layer's *busy* time is the summed duration of its spans, its *self*
time that duration minus the part its child spans cover, and *wait*
the engine queue time (engine span start minus the start of the
``app.run_engine`` span that submitted it).  Only spans lying inside
the measured window count.
"""

from __future__ import annotations

import json
from collections import defaultdict

#: Report rows: span name and the layer (module) it times.
SPAN_LAYERS = (
    ("app.dispatch", "service.app"),
    ("http.decode", "service.http"),
    ("http.encode", "service.http"),
    ("tenants.admit", "service.tenants"),
    ("tenants.release", "service.tenants"),
    ("coalesce.run", "service.coalesce"),
    ("app.run_engine", "service.app"),
    ("app.engine", "service.app"),
    ("bpel.parse", "bpel"),
    ("bpel.compile", "bpel"),
    ("engine.evolve", "core.engine"),
    ("equivalence.public_equal", "afsa.equivalence"),
    ("view.project", "afsa.view"),
    ("classify", "core.classify"),
    ("propagate", "core.propagate"),
    ("suggestions", "core.suggestions"),
    ("adapt.recheck", "afsa.emptiness"),
    ("choreography.commit", "core.choreography"),
    ("sweep.check_pair", "core.sweep"),
    ("sweep.sweep", "core.sweep"),
    ("runtime.map_streaming", "core.runtime"),
    ("runtime.map_chunked", "core.runtime"),
    ("migrate.classify", "instances.migrate"),
    ("fleet.spawn", "workload.fleet"),
)

#: The per-layer metrics, in ``BENCHMARK.json`` order: name, unit and
#: which direction is better.
PER_LAYER = (
    ("http.decode_us", "us", "lower"),
    ("http.encode_us", "us", "lower"),
    ("http.transport_us", "us", "lower"),
    ("tenants.admit_us", "us", "lower"),
    ("coalesce.share", "share", "higher"),
    ("tenants.evictions", "count", "lower"),
    ("tenants.release_ms", "ms", "lower"),
    ("app.dispatch_us", "us", "lower"),
    ("app.engine_busy_us", "us", "lower"),
    ("app.engine_hops_per_op", "1/op", "lower"),
    ("app.engine_wait_us", "us", "lower"),
    ("bpel.parse_ms", "ms", "lower"),
    ("bpel.compile_ms", "ms", "lower"),
    ("bpel.compiles_per_op", "1/op", "lower"),
    ("engine.evolve_ms", "ms", "lower"),
    ("equivalence.public_equal_ms", "ms", "lower"),
    ("view.project_ms", "ms", "lower"),
    ("classify.ms", "ms", "lower"),
    ("classify.share", "share", "lower"),
    ("propagate.ms", "ms", "lower"),
    ("suggestions.ms", "ms", "lower"),
    ("adapt.recheck_ms", "ms", "lower"),
    ("choreography.commit_ms", "ms", "lower"),
    ("sweep.check_pair_us", "us", "lower"),
    ("lazy.verdict_hit_ratio", "share", "higher"),
    ("lazy.warm_seeded", "count", "higher"),
    ("lazy.warm_decided_ratio", "share", "higher"),
    ("sweep.sweep_ms", "ms", "lower"),
    ("witness.lazy_extractions", "count", "lower"),
    ("runtime.map_streaming_ms", "ms", "lower"),
    ("runtime.chunks_per_sweep", "count", "lower"),
    ("runtime.stolen_chunks", "count", "lower"),
    ("runtime.speculative_win_ratio", "share", "higher"),
    ("runtime.published_bytes_per_op", "B/op", "lower"),
    ("runtime.arena_dedup_ratio", "share", "higher"),
    ("runtime.map_chunked_ms", "ms", "lower"),
    ("runtime.pool_starts", "count", "lower"),
    ("migrate.classify_ms", "ms", "lower"),
    ("migrate.classes_per_op", "1/op", "lower"),
    ("fleet.spawn_ms", "ms", "lower"),
    ("server.cpu_ms_per_op", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _covered(intervals: list, low: int, high: int) -> int:
    """Length of the union of *intervals* clipped to [low, high]."""
    total, reach = 0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: list, start_ns: int, end_ns: int) -> dict:
    """``{span name: [calls, busy_ns, self_ns, wait_ns]}`` over the
    spans inside ``[start_ns, end_ns]``."""
    starts = {span[0]: span[2] for span in spans}
    children = defaultdict(list)
    for span, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    stats: dict = {}
    for span, name, start, end, parent, _ in spans:
        if start < start_ns or end > end_ns:
            continue
        entry = stats.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - _covered(children.get(span, []), start, end)
        if name == "app.engine" and parent in starts:
            entry[3] += start - starts[parent]
    return stats


def _delta(before: dict, after: dict, prefix: str, contains: str = "") -> float:
    """Summed change of every sample whose name starts with *prefix*
    (and contains *contains*) between two scrapes."""
    return sum(
        value - before.get(name, 0.0)
        for name, value in after.items()
        if name.startswith(prefix) and contains in name
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    stats: dict,
    before: dict,
    after: dict,
    round_trip_us: float,
    classes_per_op: float,
    cpu_ms_per_op: float,
    overhead_pct: float,
    shard: dict,
) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: value}``; a layer
    that did not run on the workload reads 0.

    *shard* sums the counters of fanned-out ``/sweep`` responses: the
    verdict-cache, warm-start and witness work done in shard processes,
    which the server's own ``/metrics`` does not count.
    """

    def calls(name):
        return stats.get(name, [0])[0]

    def busy(name):
        return stats.get(name, [0, 0])[1]

    def mean(name, scale):
        return _ratio(busy(name), calls(name)) / scale

    def delta(prefix, contains=""):
        return _delta(before, after, prefix, contains)

    ops = calls("app.dispatch")
    hits = delta("repro_verdict_cache_hits_total") + shard["cache_hits"]
    misses = delta("repro_verdict_cache_misses_total") + shard["cache_misses"]
    seeded = delta("repro_warm_seeded_total") + shard["warm_seeded"]
    attempts = (
        delta("repro_runtime_arena_published_total")
        + delta("repro_runtime_arena_hits_total")
        + delta("repro_runtime_arena_dedup_hits_total")
    )
    return {
        "http.decode_us": mean("http.decode", 1e3),
        "http.encode_us": mean("http.encode", 1e3),
        "http.transport_us": round_trip_us - mean("app.dispatch", 1e3),
        "tenants.admit_us": mean("tenants.admit", 1e3),
        "coalesce.share": _ratio(
            delta("repro_coalesced_requests_total"),
            delta("repro_requests_total{", 'path="/check"'),
        ),
        "tenants.evictions": delta("repro_evictions_total"),
        "tenants.release_ms": mean("tenants.release", 1e6),
        "app.dispatch_us": mean("app.dispatch", 1e3),
        "app.engine_busy_us": mean("app.engine", 1e3),
        "app.engine_hops_per_op": _ratio(calls("app.run_engine"), ops),
        "app.engine_wait_us": _ratio(
            stats.get("app.engine", [0, 0, 0, 0])[3], calls("app.engine")
        ) / 1e3,
        "bpel.parse_ms": mean("bpel.parse", 1e6),
        "bpel.compile_ms": mean("bpel.compile", 1e6),
        "bpel.compiles_per_op": _ratio(calls("bpel.compile"), ops),
        "engine.evolve_ms": mean("engine.evolve", 1e6),
        "equivalence.public_equal_ms": mean("equivalence.public_equal", 1e6),
        "view.project_ms": mean("view.project", 1e6),
        "classify.ms": mean("classify", 1e6),
        "classify.share": _ratio(busy("classify"), busy("engine.evolve")),
        "propagate.ms": mean("propagate", 1e6),
        "suggestions.ms": mean("suggestions", 1e6),
        "adapt.recheck_ms": mean("adapt.recheck", 1e6),
        "choreography.commit_ms": mean("choreography.commit", 1e6),
        "sweep.check_pair_us": mean("sweep.check_pair", 1e3),
        "lazy.verdict_hit_ratio": _ratio(hits, hits + misses),
        "lazy.warm_seeded": seeded,
        "lazy.warm_decided_ratio": _ratio(
            delta("repro_warm_decided_from_seed_total")
            + shard["warm_decided"],
            seeded,
        ),
        "sweep.sweep_ms": mean("sweep.sweep", 1e6),
        "witness.lazy_extractions": (
            delta("repro_witness_lazy_total") + shard["witness_lazy"]
        ),
        "runtime.map_streaming_ms": mean("runtime.map_streaming", 1e6),
        "runtime.chunks_per_sweep": _ratio(
            delta("repro_runtime_chunks_dispatched_total"),
            calls("sweep.sweep"),
        ),
        "runtime.stolen_chunks": delta("repro_runtime_stolen_chunks_total"),
        "runtime.speculative_win_ratio": _ratio(
            delta("repro_runtime_speculative_wins_total"),
            delta("repro_runtime_speculative_dispatches_total"),
        ),
        "runtime.published_bytes_per_op": _ratio(
            delta("repro_runtime_arena_published_bytes_total"), ops
        ),
        "runtime.arena_dedup_ratio": _ratio(
            delta("repro_runtime_arena_dedup_hits_total"), attempts
        ),
        "runtime.map_chunked_ms": mean("runtime.map_chunked", 1e6),
        "runtime.pool_starts": before.get(
            "repro_runtime_pool_starts_total", 0.0
        ),
        "migrate.classify_ms": mean("migrate.classify", 1e6),
        "migrate.classes_per_op": classes_per_op,
        "fleet.spawn_ms": mean("fleet.spawn", 1e6),
        "server.cpu_ms_per_op": cpu_ms_per_op,
        "trace.overhead_pct": overhead_pct,
    }


def table(stats: dict) -> list:
    """Report lines: calls, busy, self and wait time per span."""
    lines = [
        f"  {'span':<24} {'layer':<24} {'calls':>8} {'busy ms':>10} "
        f"{'self ms':>10} {'wait ms':>9}"
    ]
    for name, layer in SPAN_LAYERS:
        count, busy, own, wait = stats.get(name, [0, 0, 0, 0])
        waited = f"{wait / 1e6:9.1f}" if name == "app.engine" else f"{'-':>9}"
        lines.append(
            f"  {name:<24} {layer:<24} {count:>8} {busy / 1e6:>10.1f} "
            f"{own / 1e6:>10.1f} {waited}"
        )
    return lines
