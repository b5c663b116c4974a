"""The fan-out decision and the shard memos that follow the arena.

:meth:`repro.core.runtime.EvolutionRuntime.decide` fans a grid out
only when the costs the runtime measured predict the shards finish it
sooner than the parent: ``workers`` is a cap, not an order.  The
examples seed the cost table and pin each regime:

* a cold grid of fanout-workload shape (a few dozen cheap pairs
  against a fan-out overhead of milliseconds) runs in the parent;
* a grid with a large per-item cost fans out;
* a chunk function with no overhead estimate — its first dispatch, or
  the first after ``restart_pool`` — fans out until a dispatch on a
  warm fleet, each chunk won by its one attempt, measures one;
* a grid the parent can answer entirely from ``VERDICTS`` runs in the
  parent, and asking does not move the cache's hit/miss counters.

The shard memos follow the parent's arena: every digest the arena
drops and has not published again by the next dispatch is queued for
every shard and rides its next task frame, and a closed runtime sends
nothing, so a remote worker keeps its memo for the next parent.  Those
tests run an in-process :class:`~repro.core.transport.ShardServer`,
whose worker memo is this process's
:data:`repro.core.runtime._WORKER_KERNELS`.
"""

from __future__ import annotations

import pytest

from regimes import (
    FAN_OUT,
    FORCED_SPECULATION,
    NO_FAN_OUT,
    NO_SPECULATION,
    fork_fleet,
    scheduler,
)
from repro.afsa import serialize
from repro.afsa.kernel import kernel_of
from repro.afsa.lazy import VERDICTS
from repro.core import runtime as runtime_module
from repro.core.runtime import EvolutionRuntime, _WORKER_KERNELS
from repro.core.sweep import (
    WITNESS_FAILURES,
    WITNESS_NONE,
    _check_arena_chunk,
    _sweep_pairs_report,
    sweep_choreography,
)
from repro.core.transport import ShardServer
from repro.instances.migrate import _classify_arena_chunk
from repro.workload.generator import generate_choreography, random_afsa

CHECK = _check_arena_chunk.__name__
CLASSIFY = _classify_arena_chunk.__name__


def _pairs(count: int, seed: int):
    return [
        (
            random_afsa(seed=seed + 7 * i, states=8, labels=4,
                        annotation_probability=0.3),
            random_afsa(seed=seed + 7 * i + 3, states=8, labels=4,
                        annotation_probability=0.3),
        )
        for i in range(count)
    ]


def _seeded(item_cost: float, overhead: float | None) -> EvolutionRuntime:
    """A runtime whose cost table holds *item_cost* seconds per pair
    and, unless None, a fan-out overhead of *overhead* seconds."""
    runtime = EvolutionRuntime()
    runtime.item_cost[CHECK] = item_cost
    if overhead is not None:
        runtime.fanout_overhead[CHECK] = overhead
    return runtime


class TestDecision:
    def test_cold_fanout_shaped_grid_runs_in_the_parent(self):
        """24 cold pairs of ~0.2 ms against a 14 ms round trip: serial
        4.8 ms beats fanned 14 + 2.4 ms."""
        runtime = _seeded(item_cost=0.0002, overhead=0.014)
        decision = runtime.decide(_check_arena_chunk, 2, 24, 24)
        assert not decision.fan_out
        assert decision.predicted_s == pytest.approx(24 * 0.0002)

    def test_large_per_item_cost_fans_out(self):
        """24 pairs of 10 ms: fanned 14 + 120 ms beats serial 240 ms."""
        runtime = _seeded(item_cost=0.010, overhead=0.014)
        decision = runtime.decide(_check_arena_chunk, 2, 24, 24)
        assert decision.fan_out
        assert decision.predicted_s == pytest.approx(0.014 + 24 * 0.010 / 2)

    def test_workers_cap_the_prediction(self):
        """More shards only help up to the item count, and one worker or
        one item never fans out."""
        runtime = _seeded(item_cost=0.010, overhead=0.014)
        four = runtime.decide(_check_arena_chunk, 4, 24, 24)
        assert four.predicted_s == pytest.approx(0.014 + 24 * 0.010 / 4)
        assert not runtime.decide(_check_arena_chunk, 1, 24, 24).fan_out
        assert not runtime.decide(_check_arena_chunk, 2, 1, 1).fan_out

    def test_first_dispatch_of_each_chunk_function_fans_out(self):
        """No overhead estimate: the grid fans out whatever the item
        cost says, for each chunk function on its own."""
        runtime = _seeded(item_cost=0.0002, overhead=None)
        assert runtime.decide(_check_arena_chunk, 2, 24, 24).fan_out
        runtime.fanout_overhead[CHECK] = 0.014
        assert not runtime.decide(_check_arena_chunk, 2, 24, 24).fan_out
        runtime.item_cost[CLASSIFY] = 0.0002
        assert runtime.decide(_classify_arena_chunk, 2, 24, 24).fan_out

    def test_first_warm_dispatch_fans_out_and_measures_it(self):
        """A fresh runtime's first sweep fans out but, having forked its
        shards, measures nothing; the next one fans out too and, on the
        warm fleet, records both estimates.  ``restart_pool`` forgets
        the overhead, so the next fleet's sweeps fan out again."""
        with scheduler(**NO_SPECULATION), EvolutionRuntime() as runtime:
            _, first = _sweep_pairs_report(
                _pairs(6, seed=8100), WITNESS_NONE, 2, runtime
            )
            assert first.decisions_fanned == 1
            assert first.chunks > 0
            assert CHECK not in runtime.fanout_overhead
            assert CHECK not in runtime.item_cost
            _, second = _sweep_pairs_report(
                _pairs(6, seed=8150), WITNESS_NONE, 2, runtime
            )
            assert second.decisions_fanned == 1
            assert CHECK in runtime.fanout_overhead
            assert runtime.item_cost[CHECK] > 0
            runtime.restart_pool()
            assert CHECK not in runtime.fanout_overhead
            _, again = _sweep_pairs_report(
                _pairs(6, seed=8100), WITNESS_NONE, 2, runtime
            )
            assert again.decisions_fanned == 1
            assert runtime.counters["pool_starts"] == 2
            assert CHECK not in runtime.fanout_overhead

    def test_shard_cost_is_per_computed_pair(self):
        """On a warm fleet the shards' compute is divided by the pairs
        they computed — their verdict-cache misses — so a repeat they
        answer from their caches feeds the overhead and leaves the
        per-item cost alone."""
        pairs = _pairs(6, seed=8170)
        with scheduler(**FAN_OUT, **NO_SPECULATION), \
                EvolutionRuntime() as runtime:
            runtime.ensure_pool(2)
            _, cold = _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
            assert cold.cache_misses == len(pairs)
            computed = sum(s.compute_seconds for s in runtime._shards)
            assert runtime.item_cost[CHECK] == pytest.approx(
                computed / len(pairs)
            )
            cost = runtime.item_cost[CHECK]
            overhead = runtime.fanout_overhead[CHECK]
            _, warm = _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
            assert warm.decisions_fanned == 1
            assert warm.cache_misses == 0
            assert runtime.item_cost[CHECK] == cost
            assert runtime.fanout_overhead[CHECK] != overhead

    def test_one_stall_does_not_flip_a_decision(self):
        """A served ``/migrate`` shape: 140 classes of 0.35 ms against
        an 8.5 ms overhead fan out (33 ms against 49 ms).  One clean
        dispatch that stalled for 150 ms counts as four times the
        overhead, so the next classification still fans out; a serial
        run that stalled likewise moves the per-item cost by at most
        the cap."""
        runtime = EvolutionRuntime()
        runtime.item_cost[CLASSIFY] = 0.00035
        runtime.fanout_overhead[CLASSIFY] = 0.0085
        decision = runtime.decide(_classify_arena_chunk, 2, 140, 140)
        assert decision.fan_out
        decision.started -= 0.170
        runtime._ran_fanned(decision, [0.018, 0.020], 140, clean=True)
        assert runtime.fanout_overhead[CLASSIFY] == pytest.approx(
            0.0085 + 0.25 * (4 * 0.0085 - 0.0085)
        )
        assert runtime.decide(_classify_arena_chunk, 2, 140, 140).fan_out
        serial = _seeded(item_cost=0.001, overhead=0.030)
        decision = serial.decide(_check_arena_chunk, 2, 24, 24)
        assert not decision.fan_out
        decision.started -= 2.4
        serial.ran_serial(decision, 24)
        assert serial.item_cost[CHECK] == pytest.approx(
            0.001 + 0.25 * (4 * 0.001 - 0.001)
        )

    def test_a_backed_up_dispatch_feeds_no_estimate(self):
        """A chunk backed up onto the other shard bills the straggler's
        drain to the dispatch: it completes, and measures nothing.
        Twelve pairs reach the slow shard whatever their digests route
        to (none of them: 2 ** -12)."""
        pairs = _pairs(12, seed=8180)
        with scheduler(**FAN_OUT, **FORCED_SPECULATION), \
                EvolutionRuntime() as runtime:
            fork_fleet(runtime, 2, {0}, _check_arena_chunk, 0.02)
            _, report = _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
            assert report.decisions_fanned == 1
            assert report.speculative_dispatches >= 1
            assert runtime.counters["pool_starts"] == 2
            assert CHECK not in runtime.fanout_overhead
            assert CHECK not in runtime.item_cost

    def test_grid_answered_from_the_verdict_cache_runs_in_the_parent(self):
        """Every pair already in ``VERDICTS``: nothing is left for the
        parent to compute, so even a tiny overhead loses — and asking
        moves neither the hit/miss counters nor a shard."""
        choreography = generate_choreography(seed=8200, spokes=4, steps=3)
        serial = sweep_choreography(choreography, witnesses=WITNESS_FAILURES)
        runtime = _seeded(item_cost=1.0, overhead=1e-6)
        with runtime:
            counters = dict(VERDICTS.counters)
            decision = runtime.decide(_check_arena_chunk, 2, 4, 0)
            assert VERDICTS.counters == counters
            assert not decision.fan_out
            report = sweep_choreography(
                choreography, witnesses=WITNESS_FAILURES, workers=2,
                runtime=runtime,
            )
            assert report.decisions_serial == 1
            assert report.workers == 1
            assert report.chunks == 0
            assert report.cache_hits == len(report.outcomes)
            assert runtime.pool_size == 0
        assert [o.consistent for o in report.outcomes] == [
            o.consistent for o in serial.outcomes
        ]
        assert "fan-out decision: in the parent" in report.describe()

    def test_estimates_move_only_on_their_own_path(self):
        """A serial run feeds the per-item cost and leaves the overhead
        alone; every decision is counted with its seconds."""
        pairs = _pairs(5, seed=8300)
        with _seeded(item_cost=0.0, overhead=10.0) as runtime:
            _, report = _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
            assert report.decisions_serial == 1
            assert report.actual_s > 0
            assert runtime.fanout_overhead[CHECK] == 10.0
            assert runtime.item_cost[CHECK] > 0
            stats = runtime.stats()
            assert stats["decisions_serial"] == 1
            assert stats["decisions_fanned"] == 0
            assert stats["actual_s_serial"] == pytest.approx(report.actual_s)
            assert "1 run in the parent" in runtime.describe()

    def test_forced_regimes_override_the_prediction(self):
        with _seeded(item_cost=0.0002, overhead=0.014) as runtime:
            with scheduler(**FAN_OUT):
                assert runtime.decide(_check_arena_chunk, 2, 24, 24).fan_out
            with scheduler(**NO_FAN_OUT):
                fresh = EvolutionRuntime()
                assert not fresh.decide(_check_arena_chunk, 2, 24, 24).fan_out
                fresh.shutdown()


class TestPublishOnce:
    def test_cold_fanned_sweep_serializes_each_kernel_once(
        self, monkeypatch
    ):
        """The routing keys come from the digests publishing computed,
        so a cold fanned sweep serializes each kernel object exactly
        once: the serializations equal the arena's new entries plus its
        dedup hits."""
        calls = []
        serialize_kernel = serialize.kernel_to_payload

        def counting(kernel):
            calls.append(kernel)
            return serialize_kernel(kernel)

        monkeypatch.setattr(serialize, "kernel_to_payload", counting)
        monkeypatch.setattr(runtime_module, "kernel_to_payload", counting)
        choreography = generate_choreography(seed=8400, spokes=5, steps=3)
        with scheduler(**FAN_OUT), EvolutionRuntime() as runtime:
            report = sweep_choreography(choreography, workers=2,
                                        runtime=runtime)
            assert report.decisions_fanned == 1
            assert report.arena_published > 0
            counters = runtime.arena.counters
            assert len(calls) == (
                counters["arena_published"] + counters["arena_dedup_hits"]
            )
            assert len({id(kernel) for kernel in calls}) == len(calls)


class TestShardMemosFollowTheArena:
    def test_next_task_drops_what_the_arena_dropped(self):
        """Discarded kernels stay in the worker memo until the next task
        frame reaches the shard, which removes them before it runs."""
        server = ShardServer().start()
        try:
            with scheduler(**FAN_OUT), EvolutionRuntime(
                shards=[server.address]
            ) as runtime:
                pairs = _pairs(4, seed=8500)
                _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
                dropped = set(runtime.arena._entries)
                assert dropped and dropped <= set(_WORKER_KERNELS)
                for left, right in pairs:
                    runtime.arena.discard(kernel_of(left))
                    runtime.arena.discard(kernel_of(right))
                assert len(runtime.arena) == 0
                assert dropped <= set(_WORKER_KERNELS)
                _sweep_pairs_report(
                    _pairs(3, seed=8600), WITNESS_NONE, 2, runtime
                )
                assert not dropped & set(_WORKER_KERNELS)
                assert set(runtime.arena._entries) <= set(_WORKER_KERNELS)
        finally:
            server.stop()

    def test_a_digest_published_again_is_not_forgotten(self):
        """Entries dropped and republished before the next dispatch are
        live again: the worker keeps them and fetches nothing."""
        server = ShardServer().start()
        try:
            with scheduler(**FAN_OUT), EvolutionRuntime(
                shards=[server.address]
            ) as runtime:
                pairs = _pairs(4, seed=8800)
                _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
                for left, right in pairs:
                    runtime.arena.discard(kernel_of(left))
                    runtime.arena.discard(kernel_of(right))
                assert len(runtime.arena) == 0
                _, again = _sweep_pairs_report(
                    pairs, WITNESS_NONE, 2, runtime
                )
                assert again.arena_published > 0
                assert again.payload_fetches == 0
                assert set(runtime.arena._entries) <= set(_WORKER_KERNELS)
        finally:
            server.stop()

    def test_a_shard_that_skipped_a_dispatch_keeps_a_republished_digest(
        self, monkeypatch
    ):
        """A digest dropped before a dispatch that gives one shard no
        task stays queued for that shard; once the parent publishes it
        again, no later task frame tells any worker to forget it."""
        frames = []
        forget = runtime_module.forget_kernels

        def recording(digests):
            frames.append(list(digests))
            forget(digests)

        monkeypatch.setattr(runtime_module, "forget_kernels", recording)
        servers = [ShardServer().start() for _ in range(2)]
        try:
            with scheduler(**FAN_OUT, **NO_SPECULATION), EvolutionRuntime(
                shards=[server.address for server in servers]
            ) as runtime:
                pairs = _pairs(6, seed=8900)
                _sweep_pairs_report(pairs, WITNESS_NONE, 2, runtime)
                kernel = kernel_of(pairs[0][0])
                digest = serialize.kernel_digest(kernel)
                runtime.arena.discard(kernel)
                assert digest not in runtime.arena
                # Two copies of one pair route to one shard: the other
                # gets no task and keeps the digest queued.
                left, right = _pairs(1, seed=8950)[0]
                frames.clear()
                _, one_shard = _sweep_pairs_report(
                    [(left, right), (left, right)], WITNESS_NONE, 2,
                    runtime,
                )
                assert sorted(one_shard.shard_loads) == [0, 2]
                idle = one_shard.shard_loads.index(0)
                assert [digest] in frames
                frames.clear()
                # Sixteen pairs: the idle shard gets a task whatever
                # the digests route to (all on one shard: 2 ** -15).
                _, again = _sweep_pairs_report(
                    pairs + _pairs(10, seed=8960), WITNESS_NONE, 2,
                    runtime,
                )
                assert again.shard_loads[idle] > 0
                assert digest in runtime.arena
                assert frames and not any(digest in f for f in frames)
        finally:
            for server in servers:
                server.stop()

    def test_closing_a_runtime_sends_nothing(self):
        """A runtime shut down with forgets still queued sends none of
        them: a fresh runtime on the same worker fetches nothing."""
        server = ShardServer().start()
        try:
            pairs = _pairs(4, seed=8700)
            with scheduler(**FAN_OUT):
                with EvolutionRuntime(shards=[server.address]) as first:
                    _, cold = _sweep_pairs_report(
                        pairs, WITNESS_NONE, 2, first
                    )
                    assert cold.payload_fetches > 0
                    published = set(first.arena._entries)
                    for left, _ in pairs:
                        first.arena.discard(kernel_of(left))
                    assert len(first.arena) < len(published)
                assert published <= set(_WORKER_KERNELS)
                with EvolutionRuntime(shards=[server.address]) as second:
                    _, warm = _sweep_pairs_report(
                        pairs, WITNESS_NONE, 2, second
                    )
            assert warm.decisions_fanned == 1
            assert warm.payload_fetches == 0
            assert published <= set(_WORKER_KERNELS)
        finally:
            server.stop()
