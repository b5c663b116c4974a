"""Tests for the pipelined, straggler-tolerant sweep scheduler.

Four contracts are pinned down here:

* **pool sizing** — a grid dispatch without an explicit worker count
  sizes the fleet from the machine's CPU count (capped), never from
  the chunk count of whatever dispatch arrived first;
* **straggler tolerance** — with a fault-injected slow shard
  (``REPRO_SWEEP_FAULT``), the pipelined scheduler's wall clock is
  bounded by the in-flight window, well under the analytic floor of a
  one-chunk-per-shard barrier (the slow shard's routed share × its
  per-pair delay), and forced speculation wins with verdicts
  identical to serial (ARCHITECTURE.md contract 9: completion-order
  independence);
* **cancellation** — closing a streaming sweep counts the undispatched
  chunks as cancelled and drains every in-flight attempt, leaving the
  runtime with zero in-flight state (mp and TCP alike);
* **TCP pipelining** — multiple tagged frames ride one connection and
  replies demultiplex by task id in any arrival order.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time

import pytest

from repro.afsa.kernel import kernel_of
from repro.core.runtime import (
    EvolutionRuntime,
    default_worker_count,
)
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_NONE,
    _check_arena_chunk,
    _chunk_payload,
    _empty_stats,
    _sweep_grid_streaming,
    _sweep_pairs_stats,
    sweep_choreography,
    sweep_choreography_streaming,
    sweep_pairs,
)
from repro.core.transport import (
    Shard,
    ShardServer,
    parse_address,
    recv_msg,
    send_msg,
)
from repro.workload.generator import generate_choreography, random_afsa


#: Runtime options that speculate on any chunk older than 2 ms.
FORCED_SPECULATION = {"speculate_multiple": 0.0, "speculate_floor_s": 0.002}


def _random_pairs(count: int, seed: int = 0, states: int = 8):
    return [
        (
            random_afsa(seed=seed + 17 * i, states=states, labels=4,
                        annotation_probability=0.3),
            random_afsa(seed=seed + 17 * i + 9, states=states, labels=4,
                        annotation_probability=0.3),
        )
        for i in range(count)
    ]


def _busier_shard(pairs) -> int:
    """The slot of the shard that digest routing gives the larger
    share of *pairs* on a 2-shard fleet (routing is deterministic
    within a process, so a fresh runtime places them the same way)."""
    with EvolutionRuntime() as rt:
        _, stats = _sweep_pairs_stats(pairs, WITNESS_NONE, 2, rt)
    loads = stats["shard_loads"]
    return loads.index(max(loads))


def _chunked_verdicts(rt, pairs, workers):
    """Check *pairs* through :meth:`EvolutionRuntime.map_chunked` with
    the sweep's own chunk worker (shards run ``repro.`` functions
    only); returns the verdicts in input order."""
    kernels = [kernel_of(afsa) for pair in pairs for afsa in pair]
    index_pairs = [(2 * i, 2 * i + 1) for i in range(len(pairs))]
    with rt.published(kernels) as digests:
        results, _, _ = rt.map_chunked(
            _check_arena_chunk,
            index_pairs,
            lambda chunk: _chunk_payload(chunk, digests, {}, WITNESS_NONE),
            workers,
            key_of=str,
        )
    return [ok for ok, _ in results]


def _submitted(shard, func, payloads, timeout=10):
    """Submit one task per payload on *shard* and collect the
    ``(value, error)`` replies in submission order."""
    replies = [queue.SimpleQueue() for _ in payloads]
    for reply, payload in zip(replies, payloads):
        shard.submit(
            func, payload,
            lambda value, error, reply=reply: reply.put((value, error)),
        )
    return [reply.get(timeout=timeout) for reply in replies]


def _verdict_key(results):
    return [
        (ok, None if wit is None else (wit.describe(), wit.word))
        for ok, wit in results
    ]


class TestDefaultPoolSizing:
    def test_default_worker_count_is_cpu_capped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 32)
        assert default_worker_count() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1

    def test_grid_dispatch_sizes_pool_from_cpu_not_chunks(
        self, monkeypatch
    ):
        """Regression: a 5-item dispatch without a worker count must
        fork ``default_worker_count()`` shards, not 5."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pairs = _random_pairs(5, seed=610, states=6)
        serial = [ok for ok, _ in sweep_pairs(pairs, WITNESS_NONE)]
        with EvolutionRuntime() as rt:
            assert _chunked_verdicts(rt, pairs, 0) == serial
            assert rt.pool_size == 2

    def test_explicit_worker_count_still_wins(self):
        pairs = _random_pairs(4, seed=620, states=6)
        with EvolutionRuntime() as rt:
            _chunked_verdicts(rt, pairs, 3)
            assert rt.pool_size == 3


class TestStragglerFaultInjection:
    def test_pipeline_bounds_straggler_barrier_degrades(
        self, monkeypatch
    ):
        """With the busier shard sleeping 0.15 s per pair, a
        one-chunk-per-shard barrier could finish no sooner than that
        shard's routed share × 0.15 s; the pipelined path (window 1,
        forced speculation) is bounded near one chunk time — and every
        verdict and witness matches the serial sweep byte for byte."""
        delay_s = 0.15
        pairs = _random_pairs(12, seed=4200)
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        slow = _busier_shard(pairs)
        monkeypatch.setenv("REPRO_SWEEP_FAULT", f"{slow}:{delay_s}")
        with EvolutionRuntime(window=1, **FORCED_SPECULATION) as rt:
            start = time.monotonic()
            pipelined, stats = _sweep_pairs_stats(
                pairs, WITNESS_ALL, 2, rt
            )
            pipelined_elapsed = time.monotonic() - start

        # The barrier's analytic floor: the slow shard holds at least
        # 6 of the 12 pairs, and a barrier waits for all of them.
        assert stats["shard_loads"][slow] >= 6
        barrier_floor = stats["shard_loads"][slow] * delay_s
        assert stats["speculative_dispatches"] >= 1
        assert stats["speculative_wins"] >= 1
        # Straggler work migrated: stolen from the backlog or won by a
        # backup attempt — the slow shard never runs its full share.
        assert stats["stolen_chunks"] + stats["speculative_wins"] >= 2
        assert pipelined_elapsed <= 0.5 * barrier_floor
        assert _verdict_key(pipelined) == _verdict_key(serial)

    def test_forced_speculation_keeps_verdicts_identical(self):
        """No fault injected: forced speculation (and the pipelined
        default) must still reproduce the serial sweep exactly."""
        pairs = _random_pairs(8, seed=77)
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        with EvolutionRuntime() as rt:
            pipelined = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
            )
        with EvolutionRuntime(**FORCED_SPECULATION) as rt:
            speculated = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
            )
        assert _verdict_key(pipelined) == _verdict_key(serial)
        assert _verdict_key(speculated) == _verdict_key(serial)


class TestCancellation:
    def test_closed_stream_cancels_and_drains(self, monkeypatch):
        """Abandoning a pipelined sweep mid-flight counts the
        never-run chunks as cancelled and leaves zero in-flight
        state — the arena unpins only after the drain."""
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "0:0.1,1:0.1")
        kernels = [
            kernel_of(afsa)
            for pair in _random_pairs(8, seed=900, states=6)
            for afsa in pair
        ]
        index_pairs = [(2 * i, 2 * i + 1) for i in range(8)]
        stats = _empty_stats()
        with EvolutionRuntime(window=1, speculate=False) as rt:
            grid = _sweep_grid_streaming(
                kernels, index_pairs, WITNESS_NONE, 2, rt, stats
            )
            next(grid)
            grid.close()
            assert rt.inflight == 0
        assert stats["cancelled_chunks"] >= 1
        assert rt.cancelled_chunks >= 1

    def test_serial_fail_fast_reports_undecided(self):
        from repro.core.choreography import Choreography
        from repro.scenario.procurement import (
            accounting_private_variant_change,
            buyer_private,
            logistics_private,
        )
        from repro.scenario.procurement import accounting_private

        choreography = Choreography("procurement")
        for build in (
            buyer_private, accounting_private, logistics_private
        ):
            choreography.add_partner(build())
        choreography.replace_private(
            "A", accounting_private_variant_change()
        )
        report = sweep_choreography(
            choreography, stop_on_first_inconsistency=True
        )
        # A↔B is the grid's first pair and it is inconsistent: the
        # serial fail-fast path never checks A↔L.
        assert not report.consistent
        assert [(o.left, o.right) for o in report.outcomes] == [
            ("A", "B")
        ]
        assert report.undecided == 1
        assert "undecided" in report.describe()
        assert report.as_dict()["undecided"] == 1

    def test_fanned_fail_fast_leaves_no_inflight(self):
        from repro.core.choreography import Choreography
        from repro.scenario.procurement import (
            accounting_private_variant_change,
            buyer_private,
            logistics_private,
        )
        from repro.scenario.procurement import accounting_private

        choreography = Choreography("procurement")
        for build in (
            buyer_private, accounting_private, logistics_private
        ):
            choreography.add_partner(build())
        choreography.replace_private(
            "A", accounting_private_variant_change()
        )
        with EvolutionRuntime() as rt:
            report = sweep_choreography(
                choreography, workers=2, runtime=rt,
                stop_on_first_inconsistency=True,
            )
            assert rt.inflight == 0
        assert not report.consistent
        assert len(report.outcomes) + report.undecided == 2
        assert any(not o.consistent for o in report.outcomes)

    def test_streaming_sweep_yields_all_then_report(self):
        choreography = generate_choreography(seed=11, spokes=3, steps=3)
        batch = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        stream = sweep_choreography_streaming(
            choreography, witnesses=WITNESS_ALL
        )
        seen = list(stream)
        assert stream.report is not None
        assert len(seen) == len(batch.outcomes)
        assert sorted(
            (o.left, o.right, o.consistent) for o in seen
        ) == sorted(
            (o.left, o.right, o.consistent) for o in batch.outcomes
        )
        # The report itself reassembles input order.
        assert [
            (o.left, o.right, o.consistent)
            for o in stream.report.outcomes
        ] == [
            (o.left, o.right, o.consistent) for o in batch.outcomes
        ]


class TestTcpPipelining:
    def test_many_inflight_frames_demux_by_id(self):
        server = ShardServer().start()
        shard = None
        try:
            shard = Shard.connect(server.address, lambda digest: b"")
            replies = _submitted(
                shard, parse_address,
                [f"127.0.0.1:{7000 + i}" for i in range(6)],
            )
            assert replies == [
                (("127.0.0.1", 7000 + i), None) for i in range(6)
            ]
            assert shard.inflight == 0
        finally:
            if shard is not None:
                shard.close()
            server.stop()

    def test_out_of_order_replies_resolve_correct_futures(self):
        """A worker replying to the *second* frame first must resolve
        the second future — demux is by task id, not arrival order."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        received = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                first = recv_msg(conn)
                second = recv_msg(conn)
                received.extend([first, second])
                send_msg(conn, ("result", second[1], "second-task"))
                send_msg(conn, ("result", first[1], "first-task"))
                # Hold the socket open until the parent disconnects.
                recv_msg(conn)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        shard = Shard.connect(f"127.0.0.1:{port}", lambda digest: b"")
        try:
            arrivals = queue.SimpleQueue()
            for name in ("first", "second"):
                shard.submit(
                    parse_address, "a:1",
                    lambda value, error, name=name: arrivals.put(
                        (name, value)
                    ),
                )
            assert arrivals.get(timeout=10) == ("second", "second-task")
            assert arrivals.get(timeout=10) == ("first", "first-task")
            assert shard.inflight == 0
            assert [frame[0] for frame in received] == ["task", "task"]
            assert received[0][1] != received[1][1]
        finally:
            shard.close()
            listener.close()

    def test_tcp_pipelined_sweep_matches_serial_report(self):
        """Interleaved replies on one connection reassemble to a
        byte-identical report vs serial, and a cancelled TCP sweep
        leaves no orphaned in-flight frame."""
        choreography = generate_choreography(seed=23, spokes=3, steps=3)
        serial = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        server = ShardServer().start()
        try:
            with EvolutionRuntime(
                transport="tcp", shards=[server.address]
            ) as rt:
                tcp = sweep_choreography(
                    choreography, witnesses=WITNESS_ALL, workers=2,
                    runtime=rt,
                )
                assert [
                    (
                        o.left, o.right, o.consistent,
                        None if o.witness is None
                        else (o.witness.describe(), o.witness.word),
                    )
                    for o in tcp.outcomes
                ] == [
                    (
                        o.left, o.right, o.consistent,
                        None if o.witness is None
                        else (o.witness.describe(), o.witness.word),
                    )
                    for o in serial.outcomes
                ]
                assert tcp.chunks >= 1

                stream = sweep_choreography_streaming(
                    choreography, witnesses=WITNESS_ALL, workers=2,
                    runtime=rt,
                )
                next(stream)
                stream.close()
                assert rt.inflight == 0
                assert all(
                    shard.inflight == 0 for shard in rt._shards
                )
        finally:
            server.stop()


class TestSchedulerCounters:
    def test_stats_and_describe_carry_scheduler_counters(self):
        pairs = _random_pairs(6, seed=55)
        with EvolutionRuntime() as rt:
            _, stats = _sweep_pairs_stats(pairs, WITNESS_NONE, 2, rt)
            assert stats["chunks"] >= 2
            assert stats["inflight_high_water"] >= 1
            runtime_stats = rt.stats()
            assert runtime_stats["chunks_dispatched"] >= stats["chunks"]
            assert runtime_stats["inflight"] == 0
            hist = runtime_stats["chunk_size_hist"]
            assert sum(hist.values()) >= stats["chunks"]
            assert runtime_stats["chunk_pairs_total"] >= len(pairs)
            assert "scheduler: " in rt.describe()

    def test_metrics_exposition_includes_scheduler_series(self):
        from repro.service.metrics import ServiceMetrics, render_metrics

        with EvolutionRuntime() as rt:
            sweep_pairs(
                _random_pairs(4, seed=31), witnesses=WITNESS_NONE,
                workers=2, runtime=rt,
            )
            text = render_metrics(
                ServiceMetrics(), rt.stats(), {}, {
                    "seeded": 0, "decided_from_seed": 0,
                    "witness_lazy": 0, "witness_expansions": 0,
                    "eager_oracle": 0,
                }, {},
            )
        assert "repro_runtime_chunks_dispatched_total" in text
        assert "repro_runtime_speculative_dispatches_total" in text
        assert "repro_runtime_speculative_wins_total" in text
        assert "repro_runtime_stolen_chunks_total" in text
        assert "repro_runtime_cancelled_chunks_total" in text
        assert "repro_runtime_inflight_high_water" in text
        assert 'repro_runtime_chunk_pairs_bucket{le="+Inf"}' in text
        assert "repro_runtime_chunk_pairs_sum" in text
