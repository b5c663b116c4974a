"""Tests for the pipelined, straggler-tolerant sweep scheduler.

Four contracts are pinned down here:

* **pool sizing** — a dispatch grows the fleet to its worker count;
* **straggler tolerance** — with one shard forked slow
  (:func:`regimes.fork_fleet`), the pipelined scheduler's wall clock is
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

import queue
import socket
import threading
import time

import pytest

from regimes import (
    FAN_OUT,
    FORCED_SPECULATION,
    NO_SPECULATION,
    fork_fleet,
    scheduler,
)
from repro.afsa.kernel import kernel_of
from repro.core.runtime import EvolutionRuntime
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_FAILURES,
    WITNESS_NONE,
    SweepReport,
    _check_arena_chunk,
    _chunk_payload,
    _sweep_grid_streaming,
    _sweep_pairs_report,
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
        _, report = _sweep_pairs_report(pairs, WITNESS_NONE, 2, rt)
    loads = report.shard_loads
    return loads.index(max(loads))


def _chunked_verdicts(rt, pairs, workers):
    """Check *pairs* through :meth:`EvolutionRuntime.map_chunked` with
    the sweep's own chunk worker (shards run ``repro.`` functions
    only); returns the verdicts in input order."""
    kernels = [kernel_of(afsa) for pair in pairs for afsa in pair]
    index_pairs = [(2 * i, 2 * i + 1) for i in range(len(pairs))]
    with rt.published(kernels) as digests:
        results = rt.map_chunked(
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
    def test_explicit_worker_count_still_wins(self):
        pairs = _random_pairs(4, seed=620, states=6)
        with EvolutionRuntime() as rt:
            _chunked_verdicts(rt, pairs, 3)
            assert rt.pool_size == 3


class TestStragglerFaultInjection:
    def test_pipeline_bounds_straggler_barrier_degrades(self):
        """With the busier shard sleeping 0.15 s per pair, a
        one-chunk-per-shard barrier could finish no sooner than that
        shard's routed share × 0.15 s; the pipelined path (window 1,
        forced speculation) is bounded near one chunk time — and every
        verdict and witness matches the serial sweep byte for byte."""
        delay_s = 0.15
        pairs = _random_pairs(12, seed=4200)
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        slow = _busier_shard(pairs)
        with scheduler(_WINDOW=1, **FORCED_SPECULATION), \
                EvolutionRuntime() as rt:
            fork_fleet(rt, 2, {slow}, _check_arena_chunk, delay_s)
            start = time.monotonic()
            pipelined, report = _sweep_pairs_report(
                pairs, WITNESS_ALL, 2, rt
            )
            pipelined_elapsed = time.monotonic() - start

        # The barrier's analytic floor: the slow shard holds at least
        # 6 of the 12 pairs, and a barrier waits for all of them.
        assert report.shard_loads[slow] >= 6
        barrier_floor = report.shard_loads[slow] * delay_s
        assert report.speculative_dispatches >= 1
        assert report.speculative_wins >= 1
        # Straggler work migrated: stolen from the backlog or won by a
        # backup attempt — the slow shard never runs its full share.
        assert report.stolen_chunks + report.speculative_wins >= 2
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
        with scheduler(**FORCED_SPECULATION), EvolutionRuntime() as rt:
            speculated = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
            )
        assert _verdict_key(pipelined) == _verdict_key(serial)
        assert _verdict_key(speculated) == _verdict_key(serial)


class TestCancellation:
    def test_closed_stream_cancels_and_drains(self):
        """Abandoning a pipelined sweep mid-flight counts the
        never-run chunks as cancelled and leaves zero in-flight
        state — the arena unpins only after the drain."""
        kernels = [
            kernel_of(afsa)
            for pair in _random_pairs(8, seed=900, states=6)
            for afsa in pair
        ]
        index_pairs = [(2 * i, 2 * i + 1) for i in range(8)]
        report = SweepReport()
        with scheduler(_WINDOW=1, **NO_SPECULATION), \
                EvolutionRuntime() as rt:
            fork_fleet(rt, 2, {0, 1}, _check_arena_chunk, 0.1)
            grid = _sweep_grid_streaming(
                kernels, index_pairs, WITNESS_NONE, 2, rt, report
            )
            next(grid)
            grid.close()
            assert rt.counters["inflight"] == 0
        assert report.cancelled_chunks >= 1
        assert rt.counters["cancelled_chunks"] >= 1

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
            assert rt.counters["inflight"] == 0
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


class TestCounterFold:
    """Each counter is counted once, where it happens, and folded into
    the sweep's one record: the serial and fanned paths report the same
    engine counts, and the runtime's scheduler totals are exactly the
    sum of the dispatches' records."""

    @pytest.mark.parametrize(
        "policy, seed", [(WITNESS_FAILURES, 7300), (WITNESS_ALL, 7500)]
    )
    def test_cold_grid_counts_agree_serial_and_fanned(self, policy, seed):
        pairs = _random_pairs(10, seed=seed)
        # Fan out first: the shards fork from a parent that has not
        # checked these pairs, so both sweeps start cold.
        with EvolutionRuntime() as rt:
            fanned_results, fanned = _sweep_pairs_report(
                pairs, policy, 2, rt
            )
        serial_results, serial = _sweep_pairs_report(pairs, policy)
        assert _verdict_key(fanned_results) == _verdict_key(serial_results)
        assert fanned.cache_misses == serial.cache_misses == len(pairs)
        assert fanned.witness_lazy == serial.witness_lazy > 0

    def test_runtime_totals_are_the_sum_of_sweep_reports(self):
        slow = _busier_shard(_random_pairs(12, seed=4200))
        reports = []
        with scheduler(
            _WINDOW=1, _SPILL_FACTOR=1.0, **FAN_OUT, **FORCED_SPECULATION
        ), EvolutionRuntime() as rt:
            fork_fleet(rt, 2, {slow}, _check_arena_chunk, 0.05)
            for seed in (4200, 8100, 8300):
                _, report = _sweep_pairs_report(
                    _random_pairs(12, seed=seed), WITNESS_NONE, 2, rt
                )
                reports.append(report)
            kernels = [
                kernel_of(afsa)
                for pair in _random_pairs(8, seed=8500, states=6)
                for afsa in pair
            ]
            abandoned = SweepReport()
            grid = _sweep_grid_streaming(
                kernels,
                [(2 * i, 2 * i + 1) for i in range(8)],
                WITNESS_NONE, 2, rt, abandoned,
            )
            next(grid)
            grid.close()
            reports.append(abandoned)
        assert abandoned.cancelled_chunks >= 1
        assert sum(report.speculative_dispatches for report in reports) >= 1
        assert sum(report.routing_spilled for report in reports) >= 1
        for name in (
            "speculative_dispatches",
            "speculative_wins",
            "stolen_chunks",
            "cancelled_chunks",
            "routing_spilled",
        ):
            assert rt.counters[name] == sum(
                getattr(report, name) for report in reports
            ), name


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
                send_msg(conn, ("result", second[1], "second-task", 0.0))
                send_msg(conn, ("result", first[1], "first-task", 0.0))
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
            # The cancelled repeat must reach the shard, not the
            # parent's verdict cache.
            with scheduler(**FAN_OUT), EvolutionRuntime(
                shards=[server.address]
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
                assert rt.counters["dispatches"] == 2
                assert rt.counters["inflight"] == 0
                assert all(
                    shard.inflight == 0 for shard in rt._shards
                )
        finally:
            server.stop()


class TestSchedulerCounters:
    def test_stats_and_describe_carry_scheduler_counters(self):
        pairs = _random_pairs(6, seed=55)
        with EvolutionRuntime() as rt:
            _, report = _sweep_pairs_report(pairs, WITNESS_NONE, 2, rt)
            assert report.chunks >= 2
            assert report.inflight_high_water >= 1
            runtime_stats = rt.stats()
            assert runtime_stats["chunks_dispatched"] >= report.chunks
            assert runtime_stats["inflight"] == 0
            hist = runtime_stats["chunk_pairs"]
            assert hist.count == sum(hist.counts) >= report.chunks
            assert hist.total >= len(pairs)
            assert "scheduler: " in rt.describe()

    def test_metrics_exposition_includes_scheduler_series(self):
        from repro.service.app import ChoreoService
        from repro.service.metrics import render_metrics

        with EvolutionRuntime() as rt:
            sweep_pairs(
                _random_pairs(4, seed=31), witnesses=WITNESS_NONE,
                workers=2, runtime=rt,
            )
            service = ChoreoService(runtime=rt)
            try:
                text = render_metrics(service.metric_sources())
            finally:
                service.close()
        assert "repro_runtime_chunks_dispatched_total" in text
        assert "repro_runtime_speculative_dispatches_total" in text
        assert "repro_runtime_speculative_wins_total" in text
        assert "repro_runtime_stolen_chunks_total" in text
        assert "repro_runtime_cancelled_chunks_total" in text
        assert "repro_runtime_inflight_high_water" in text
        assert 'repro_runtime_chunk_pairs_bucket{le="+Inf"}' in text
        assert "repro_runtime_chunk_pairs_sum" in text
