"""Service observability: one series table, rendered.

Each layer keeps its running counters in one dict and hands it out as
it is: the service's own (:class:`ServiceMetrics`), the runtime's
(:meth:`repro.core.runtime.EvolutionRuntime.stats`), the verdict
cache's (:meth:`repro.afsa.lazy.PairVerdictCache.info`) and the lazy
engine's (:func:`repro.afsa.lazy.warm_stats`).  :data:`SERIES`
declares every exported series once — its name, type, help text and
the counter it reads — and :func:`render_metrics` renders the
Prometheus text exposition from it: a new counter is one row, its
zero in its source's declaration and the statement that counts it.

Everything here is synchronous and allocation-light: a histogram is a
fixed bucket array (:class:`~repro.histogram.Histogram`), observation
is a bisection, two integer increments and an add.  All mutation of
:class:`ServiceMetrics` happens on the event-loop thread (the request
path) — no locks needed.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import NamedTuple

from repro.histogram import Histogram

#: Latency histogram bucket upper bounds, in seconds.  Spans the
#: observed range: a cached /check round-trip is ~0.2 ms over loopback,
#: a fanned-out sweep tens of milliseconds, a cold register hundreds.
BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class ServiceMetrics:
    """The service's own counters and per-endpoint histograms.

    ``requests`` is keyed by ``(method, path, status)``; ``latency``
    by route path.  :attr:`counters` holds every other running counter
    of the service.  The coalescing / admission / eviction counters
    are bumped by the subsystems that own those decisions
    (:mod:`repro.service.coalesce`, :mod:`repro.service.tenants`),
    always on the event-loop thread.
    """

    def __init__(self):
        self.requests: dict = defaultdict(int)
        self.latency: dict = defaultdict(
            functools.partial(Histogram, BUCKETS)
        )
        self.counters = dict.fromkeys((
            "coalesced", "check_memo_hits", "admission_rejected",
            "quota_rejected", "evictions", "checks_executed",
            "sweeps_executed", "engine_dispatches", "internal_errors",
        ), 0)

    def observe_request(
        self, method: str, path: str, status: int, seconds: float
    ) -> None:
        """Record one served request (count + latency)."""
        self.requests[(method, path, status)] += 1
        self.latency[path].observe(seconds)

    def snapshot(self) -> dict:
        """The service-level counters plus the total request count, as
        one flat dict (JSON-friendly, used by ``/healthz``)."""
        return {**self.counters, "requests": sum(self.requests.values())}


#: The sources :data:`SERIES` reads, by the name :func:`render_metrics`
#: is given them under.
SERVICE = "service"
RUNTIME = "runtime"
CACHE = "cache"
ENGINE = "engine"


class Series(NamedTuple):
    """One exported series family.

    *source* names the counter dict the family reads and *key* the
    counter in it.  A labelled family either reads one counter that
    maps label values to values (*key* a name), or one counter per
    label value (*key* a ``{label value: counter name}`` dict).  A
    histogram family's counter is a :class:`~repro.histogram.Histogram`
    and *sum_format* formats its sum.
    """

    name: str
    kind: str
    source: str
    key: str | dict
    help: str
    labels: tuple = ()
    sum_format: str = ""


#: Every exported series family, in exposition order.
SERIES = (
    Series("repro_requests_total", "counter", SERVICE, "requests",
           "Requests served, by endpoint and status.",
           labels=("method", "path", "status")),
    Series("repro_request_seconds", "histogram", SERVICE, "latency",
           "Served latency by endpoint (seconds).",
           labels=("path",), sum_format=".6f"),
    Series("repro_coalesced_requests_total", "counter", SERVICE,
           "coalesced",
           "Pair checks answered by an already in-flight identical check."),
    Series("repro_check_memo_hits_total", "counter", SERVICE,
           "check_memo_hits",
           "Pair checks answered from the session's answer memo, with no "
           "engine dispatch."),
    Series("repro_admission_rejected_total", "counter", SERVICE,
           "admission_rejected",
           "Requests rejected because the tenant's in-flight cap was hit."),
    Series("repro_quota_rejected_total", "counter", SERVICE,
           "quota_rejected",
           "Registrations rejected by a per-tenant quota."),
    Series("repro_evictions_total", "counter", SERVICE, "evictions",
           "Choreographies evicted to stay within the residency cap."),
    Series("repro_checks_executed_total", "counter", SERVICE,
           "checks_executed",
           "Pair checks that actually dispatched to the engine."),
    Series("repro_sweeps_executed_total", "counter", SERVICE,
           "sweeps_executed",
           "Consistency sweeps dispatched to the engine."),
    Series("repro_engine_dispatches_total", "counter", SERVICE,
           "engine_dispatches",
           "Requests dispatched to the serialized engine thread."),
    Series("repro_internal_errors_total", "counter", SERVICE,
           "internal_errors",
           "Unexpected handler errors mapped to 500 responses."),
    Series("repro_runtime_arena_published_total", "counter", RUNTIME,
           "arena_published",
           "Kernel payloads published into the kernel arena."),
    Series("repro_runtime_arena_published_bytes_total", "counter", RUNTIME,
           "arena_published_bytes",
           "Bytes published into the kernel arena."),
    Series("repro_runtime_arena_hits_total", "counter", RUNTIME,
           "arena_hits",
           "Arena publishes answered from an already published entry."),
    Series("repro_runtime_arena_segments", "gauge", RUNTIME,
           "arena_entries",
           "Kernel arena entries currently published (one per content "
           "digest)."),
    Series("repro_runtime_pool_size", "gauge", RUNTIME, "pool_size",
           "Worker shards currently running."),
    Series("repro_runtime_pool_starts_total", "counter", RUNTIME,
           "pool_starts",
           "Times the worker fleet was grown or started."),
    Series("repro_runtime_dispatches_total", "counter", RUNTIME,
           "dispatches",
           "Fan-out dispatches through the persistent runtime."),
    Series("repro_runtime_arena_dedup_hits_total", "counter", RUNTIME,
           "arena_dedup_hits",
           "Publishes deduplicated onto an existing content digest."),
    Series("repro_runtime_routed_tasks_total", "counter", RUNTIME,
           "routed_tasks",
           "Work items placed on shards by the chunk router."),
    Series("repro_runtime_routing_spilled_total", "counter", RUNTIME,
           "routing_spilled",
           "Items spilled past their top rendezvous shard by the "
           "hot-shard load cap."),
    Series("repro_runtime_payload_fetches_total", "counter", RUNTIME,
           "payload_fetches",
           "Kernel payloads served to shards on fetch-on-miss."),
    Series("repro_runtime_payload_fetch_bytes_total", "counter", RUNTIME,
           "payload_fetch_bytes",
           "Payload bytes shipped to shards on fetch-on-miss."),
    Series("repro_runtime_chunks_dispatched_total", "counter", RUNTIME,
           "chunks_dispatched",
           "Chunk attempts sent by the pipelined scheduler "
           "(primary, speculative and failover attempts)."),
    Series("repro_runtime_speculative_dispatches_total", "counter",
           RUNTIME, "speculative_dispatches",
           "Backup attempts launched against straggling shards."),
    Series("repro_runtime_speculative_wins_total", "counter", RUNTIME,
           "speculative_wins",
           "Chunks whose backup attempt finished before the original."),
    Series("repro_runtime_stolen_chunks_total", "counter", RUNTIME,
           "stolen_chunks",
           "Queued chunks re-routed off a straggling shard's backlog."),
    Series("repro_runtime_cancelled_chunks_total", "counter", RUNTIME,
           "cancelled_chunks",
           "Chunks cancelled by fail-fast or an abandoned stream."),
    Series("repro_runtime_inflight", "gauge", RUNTIME, "inflight",
           "Chunk attempts currently in flight across the fleet."),
    Series("repro_runtime_inflight_high_water", "gauge", RUNTIME,
           "inflight_high_water",
           "Highest concurrent in-flight chunk-attempt count observed."),
    Series("repro_runtime_fanout_decisions_total", "counter", RUNTIME,
           {"fanned": "decisions_fanned", "serial": "decisions_serial"},
           "Grids the runtime fanned out or ran in the parent, by path.",
           labels=("path",)),
    Series("repro_runtime_fanout_predicted_seconds_total", "counter",
           RUNTIME,
           {"fanned": "predicted_s_fanned", "serial": "predicted_s_serial"},
           "Seconds the runtime predicted for the path it chose.",
           labels=("path",)),
    Series("repro_runtime_fanout_actual_seconds_total", "counter", RUNTIME,
           {"fanned": "actual_s_fanned", "serial": "actual_s_serial"},
           "Seconds the chosen paths took.",
           labels=("path",)),
    Series("repro_runtime_chunk_pairs", "histogram", RUNTIME,
           "chunk_pairs",
           "Pairs per dispatched chunk "
           "(pipelined scheduler chunk-size histogram)."),
    Series("repro_verdict_cache_entries", "gauge", CACHE, "size",
           "Entries in the shared pair-verdict cache."),
    Series("repro_verdict_cache_hits_total", "counter", CACHE,
           "cache_hits",
           "Verdict-cache hits (serial path of this process)."),
    Series("repro_verdict_cache_misses_total", "counter", CACHE,
           "cache_misses",
           "Verdict-cache misses (serial path of this process)."),
    Series("repro_warm_seeded_total", "counter", ENGINE, "warm_seeded",
           "Post-evolution verdicts seeded from a retained exploration."),
    Series("repro_warm_decided_from_seed_total", "counter", ENGINE,
           "warm_decided",
           "Seeded verdicts decided from the translated certificate "
           "alone."),
    Series("repro_witness_lazy_total", "counter", ENGINE, "witness_lazy",
           "Witnesses streamed from retained lazy explorations."),
    Series("repro_witness_expansions_total", "counter", ENGINE,
           "witness_expansions",
           "On-demand frontier expansions during witness extraction."),
    Series("repro_eager_oracle_total", "counter", ENGINE, "eager_oracle",
           "Eager-oracle invocations (must stay zero in production)."),
    Series("repro_choreographies", "gauge", SERVICE, "choreographies",
           "Registered (resident) choreographies."),
    Series("repro_inflight_requests", "gauge", SERVICE,
           "inflight_requests",
           "Admitted requests currently in flight."),
    Series("repro_tenants", "gauge", SERVICE, "tenants",
           "Registered tenants."),
    Series("repro_uptime_seconds", "gauge", SERVICE, "uptime_seconds",
           "Seconds since service start."),
)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _histogram_lines(
    name: str, labels: str, histogram: Histogram, sum_format: str
) -> list:
    """One histogram's cumulative ``le`` buckets, sum and count, with
    the label text *labels* on every sample."""
    prefix = f"{labels}," if labels else ""
    lines = []
    cumulative = 0
    for bound, count in zip(
        (*histogram.bounds, "+Inf"), histogram.counts
    ):
        cumulative += count
        lines.append(f'{name}_bucket{{{prefix}le="{bound}"}} {cumulative}')
    braced = f"{{{labels}}}" if labels else ""
    lines.append(f"{name}_sum{braced} {histogram.total:{sum_format}}")
    lines.append(f"{name}_count{braced} {histogram.count}")
    return lines


def render_metrics(sources: dict) -> str:
    """Render every :data:`SERIES` family (Prometheus text format).

    *sources* maps each source name of the table to its counter dict:
    ``service`` — :attr:`ServiceMetrics.counters` with the
    ``requests`` and ``latency`` families and the live service gauges;
    ``runtime`` — :meth:`EvolutionRuntime.stats` of the runtime the
    service dispatches through; ``cache`` — :meth:`PairVerdictCache.info`
    of the shared verdict cache; ``engine`` —
    :func:`repro.afsa.lazy.warm_stats`.

    Labelled samples print in label order.  A sample prints
    ``round(value, 6)`` — an integer as it is — and a histogram's sum
    prints in its row's *sum_format*.  The sources are indexed
    strictly: a renamed or dropped key fails the render instead of
    exporting 0.
    """
    lines: list[str] = []
    for series in SERIES:
        source = sources[series.source]
        if isinstance(series.key, dict):
            value = {
                label: source[key] for label, key in series.key.items()
            }
        else:
            value = source[series.key]
        lines.append(f"# HELP {series.name} {series.help}")
        lines.append(f"# TYPE {series.name} {series.kind}")
        if series.labels:
            # A family with one label may key its values by the bare
            # label value.
            samples = {
                key if isinstance(key, tuple) else (key,): sample
                for key, sample in value.items()
            }
        else:
            samples = {(): value}
        for label_values, sample in sorted(samples.items()):
            labels = ",".join(
                f'{label}="{_escape(str(label_value))}"'
                for label, label_value in zip(series.labels, label_values)
            )
            if series.kind == "histogram":
                lines.extend(_histogram_lines(
                    series.name, labels, sample, series.sum_format
                ))
            else:
                braced = f"{{{labels}}}" if labels else ""
                lines.append(f"{series.name}{braced} {round(sample, 6)}")
    return "\n".join(lines) + "\n"
