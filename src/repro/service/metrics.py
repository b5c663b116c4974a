"""Service observability: counters, latency histograms, exposition.

The runtime layers below already count everything that matters to them
— arena publishes/hits (:meth:`repro.core.runtime.EvolutionRuntime.stats`),
verdict-cache hits/misses (:meth:`repro.afsa.lazy.PairVerdictCache.info`),
warm-start seed rates (:func:`repro.afsa.lazy.warm_stats`) — but until
the service existed those counters were only visible to the one Python
caller that owned the objects.  :class:`ServiceMetrics` adds the
*service-level* counters (requests by endpoint and status, coalesced
requests, admission rejections, evictions, engine dispatches) and
per-endpoint latency histograms, and :func:`render_metrics` exports
both layers in the Prometheus text exposition format, so "fast" is a
scrapeable served quantile instead of a bench median.

Everything here is synchronous and allocation-light: the histogram is
a fixed bucket array (`<=` upper bounds in seconds), observation is
two integer increments and a float add.  All mutation happens on the
event-loop thread (the request path) — no locks needed.
"""

from __future__ import annotations

from collections import defaultdict

#: Histogram bucket upper bounds, in seconds.  Spans the observed
#: range: a cached /check round-trip is ~0.2 ms over loopback, a
#: fanned-out sweep tens of milliseconds, a cold register hundreds.
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


class Histogram:
    """One fixed-bucket latency histogram (Prometheus semantics:
    cumulative ``le`` buckets plus ``sum`` and ``count``)."""

    __slots__ = ("counts", "total", "count")

    def __init__(self):
        self.counts = [0] * (len(BUCKETS) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        """Record one observation."""
        for index, bound in enumerate(BUCKETS):
            if seconds <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += seconds
        self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate the *q*-quantile (seconds) from the buckets.

        Returns the upper bound of the bucket the quantile falls in
        (the conservative Prometheus-style estimate); 0.0 when empty.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bound in enumerate(BUCKETS):
            seen += self.counts[index]
            if seen >= rank:
                return bound
        return BUCKETS[-1]


class ServiceMetrics:
    """The service's own counters and per-endpoint histograms.

    ``requests`` is keyed by ``(method, path, status)``; ``latency``
    by route path.  The coalescing / admission / eviction counters are
    bumped by the subsystems that own those decisions
    (:mod:`repro.service.coalesce`, :mod:`repro.service.tenants`) and
    only *read* here.
    """

    def __init__(self):
        self.requests: dict = defaultdict(int)
        self.latency: dict = defaultdict(Histogram)
        self.coalesced = 0
        self.admission_rejected = 0
        self.quota_rejected = 0
        self.evictions = 0
        self.checks_executed = 0
        self.sweeps_executed = 0
        self.engine_dispatches = 0
        self.internal_errors = 0

    def observe_request(
        self, method: str, path: str, status: int, seconds: float
    ) -> None:
        """Record one served request (count + latency)."""
        self.requests[(method, path, status)] += 1
        self.latency[path].observe(seconds)

    def snapshot(self) -> dict:
        """The service-level counters as one flat dict (JSON-friendly,
        used by ``/healthz`` and the test suite)."""
        return {
            "coalesced": self.coalesced,
            "admission_rejected": self.admission_rejected,
            "quota_rejected": self.quota_rejected,
            "evictions": self.evictions,
            "checks_executed": self.checks_executed,
            "sweeps_executed": self.sweeps_executed,
            "engine_dispatches": self.engine_dispatches,
            "internal_errors": self.internal_errors,
            "requests": sum(self.requests.values()),
        }


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def render_metrics(
    metrics: ServiceMetrics,
    runtime_stats: dict,
    cache_info: dict,
    warm: dict,
    gauges: dict,
) -> str:
    """Render the full metrics exposition (Prometheus text format).

    Args:
        metrics: the service-level counters/histograms.
        runtime_stats: :meth:`EvolutionRuntime.stats` of the runtime
            the service dispatches through (arena + pool counters).
        cache_info: :meth:`PairVerdictCache.info` of the shared
            verdict cache.
        warm: :func:`repro.afsa.lazy.warm_stats` (cross-version seeds,
            witness-path counters).
        gauges: extra service gauges (tenants, choreographies, uptime).
    """
    lines: list[str] = []

    def counter(name: str, value, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")

    def gauge(name: str, value, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")

    name = "repro_requests_total"
    lines.append(f"# HELP {name} Requests served, by endpoint and status.")
    lines.append(f"# TYPE {name} counter")
    for (method, path, status), count in sorted(metrics.requests.items()):
        lines.append(
            f'{name}{{method="{_escape(method)}",path="{_escape(path)}",'
            f'status="{status}"}} {count}'
        )

    name = "repro_request_seconds"
    lines.append(
        f"# HELP {name} Served latency by endpoint (seconds)."
    )
    lines.append(f"# TYPE {name} histogram")
    for path in sorted(metrics.latency):
        histogram = metrics.latency[path]
        cumulative = 0
        for index, bound in enumerate(BUCKETS):
            cumulative += histogram.counts[index]
            lines.append(
                f'{name}_bucket{{path="{_escape(path)}",le="{bound}"}} '
                f"{cumulative}"
            )
        cumulative += histogram.counts[-1]
        lines.append(
            f'{name}_bucket{{path="{_escape(path)}",le="+Inf"}} '
            f"{cumulative}"
        )
        lines.append(
            f'{name}_sum{{path="{_escape(path)}"}} {histogram.total:.6f}'
        )
        lines.append(
            f'{name}_count{{path="{_escape(path)}"}} {histogram.count}'
        )

    counter(
        "repro_coalesced_requests_total",
        metrics.coalesced,
        "Pair checks answered by an already in-flight identical check.",
    )
    counter(
        "repro_admission_rejected_total",
        metrics.admission_rejected,
        "Requests rejected because the tenant's in-flight cap was hit.",
    )
    counter(
        "repro_quota_rejected_total",
        metrics.quota_rejected,
        "Registrations rejected by a per-tenant quota.",
    )
    counter(
        "repro_evictions_total",
        metrics.evictions,
        "Choreographies evicted to stay within the residency cap.",
    )
    counter(
        "repro_checks_executed_total",
        metrics.checks_executed,
        "Pair checks that actually dispatched to the engine.",
    )
    counter(
        "repro_sweeps_executed_total",
        metrics.sweeps_executed,
        "Consistency sweeps dispatched to the engine.",
    )
    counter(
        "repro_engine_dispatches_total",
        metrics.engine_dispatches,
        "Requests dispatched to the serialized engine thread.",
    )
    counter(
        "repro_internal_errors_total",
        metrics.internal_errors,
        "Unexpected handler errors mapped to 500 responses.",
    )

    counter(
        "repro_runtime_arena_published_total",
        runtime_stats.get("published", 0),
        "Kernel payloads published into the kernel arena.",
    )
    counter(
        "repro_runtime_arena_published_bytes_total",
        runtime_stats.get("published_bytes", 0),
        "Bytes published into the kernel arena.",
    )
    counter(
        "repro_runtime_arena_hits_total",
        runtime_stats.get("arena_hits", 0),
        "Arena publishes answered from an already published entry.",
    )
    gauge(
        "repro_runtime_arena_segments",
        runtime_stats.get("arena_entries", 0),
        "Kernel arena entries currently published (one per content "
        "digest).",
    )
    gauge(
        "repro_runtime_pool_size",
        runtime_stats.get("pool_size", 0),
        "Worker shards currently running.",
    )
    counter(
        "repro_runtime_pool_starts_total",
        runtime_stats.get("pool_starts", 0),
        "Times the worker fleet was grown or started.",
    )
    counter(
        "repro_runtime_dispatches_total",
        runtime_stats.get("dispatches", 0),
        "Fan-out dispatches through the persistent runtime.",
    )
    counter(
        "repro_runtime_tasks_total",
        runtime_stats.get("tasks", 0),
        "Worker tasks shipped across all dispatches.",
    )
    counter(
        "repro_runtime_arena_dedup_hits_total",
        runtime_stats.get("arena_dedup_hits", 0),
        "Publishes deduplicated onto an existing content digest.",
    )
    counter(
        "repro_runtime_routed_tasks_total",
        runtime_stats.get("routed_tasks", 0),
        "Work items placed on shards by the chunk router.",
    )
    counter(
        "repro_runtime_routing_spilled_total",
        runtime_stats.get("routing_spilled", 0),
        "Items spilled past their top rendezvous shard by the "
        "hot-shard load cap.",
    )
    counter(
        "repro_runtime_payload_fetches_total",
        runtime_stats.get("payload_fetches", 0),
        "Kernel payloads served to shards on fetch-on-miss.",
    )
    counter(
        "repro_runtime_payload_fetch_bytes_total",
        runtime_stats.get("payload_fetch_bytes", 0),
        "Payload bytes shipped to shards on fetch-on-miss.",
    )
    counter(
        "repro_runtime_chunks_dispatched_total",
        runtime_stats.get("chunks_dispatched", 0),
        "Micro-chunks dispatched by the pipelined scheduler "
        "(primary and speculative attempts).",
    )
    counter(
        "repro_runtime_speculative_dispatches_total",
        runtime_stats.get("speculative_dispatches", 0),
        "Backup attempts launched against straggling shards.",
    )
    counter(
        "repro_runtime_speculative_wins_total",
        runtime_stats.get("speculative_wins", 0),
        "Chunks whose backup attempt finished before the original.",
    )
    counter(
        "repro_runtime_stolen_chunks_total",
        runtime_stats.get("stolen_chunks", 0),
        "Queued chunks re-routed off a straggling shard's backlog.",
    )
    counter(
        "repro_runtime_cancelled_chunks_total",
        runtime_stats.get("cancelled_chunks", 0),
        "Chunks cancelled by fail-fast or an abandoned stream.",
    )
    gauge(
        "repro_runtime_inflight",
        runtime_stats.get("inflight", 0),
        "Chunk attempts currently in flight across the fleet.",
    )
    gauge(
        "repro_runtime_inflight_high_water",
        runtime_stats.get("inflight_high_water", 0),
        "Highest concurrent in-flight chunk-attempt count observed.",
    )

    name = "repro_runtime_chunk_pairs"
    chunk_hist = runtime_stats.get("chunk_size_hist") or {}
    lines.append(
        f"# HELP {name} Pairs per dispatched chunk "
        "(pipelined scheduler chunk-size histogram)."
    )
    lines.append(f"# TYPE {name} histogram")
    cumulative = 0
    for bound in sorted(
        key for key in chunk_hist if not isinstance(key, str)
    ):
        cumulative += chunk_hist[bound]
        lines.append(f'{name}_bucket{{le="{bound}"}} {cumulative}')
    cumulative += chunk_hist.get("inf", 0)
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(
        f"{name}_sum {runtime_stats.get('chunk_pairs_total', 0)}"
    )
    lines.append(f"{name}_count {cumulative}")

    gauge(
        "repro_verdict_cache_entries",
        cache_info.get("size", 0),
        "Entries in the shared pair-verdict cache.",
    )
    counter(
        "repro_verdict_cache_hits_total",
        cache_info.get("hits", 0),
        "Verdict-cache hits (serial path of this process).",
    )
    counter(
        "repro_verdict_cache_misses_total",
        cache_info.get("misses", 0),
        "Verdict-cache misses (serial path of this process).",
    )
    counter(
        "repro_warm_seeded_total",
        warm.get("seeded", 0),
        "Post-evolution verdicts seeded from a retained exploration.",
    )
    counter(
        "repro_warm_decided_from_seed_total",
        warm.get("decided_from_seed", 0),
        "Seeded verdicts decided from the translated certificate alone.",
    )
    counter(
        "repro_witness_lazy_total",
        warm.get("witness_lazy", 0),
        "Witnesses streamed from retained lazy explorations.",
    )
    counter(
        "repro_witness_expansions_total",
        warm.get("witness_expansions", 0),
        "On-demand frontier expansions during witness extraction.",
    )
    counter(
        "repro_eager_oracle_total",
        warm.get("eager_oracle", 0),
        "Eager-oracle invocations (must stay zero in production).",
    )

    for name, (value, help_text) in sorted(gauges.items()):
        gauge(name, value, help_text)

    return "\n".join(lines) + "\n"
