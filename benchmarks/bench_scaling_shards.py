"""Scaling benchmarks: digest routing on an evolved grid, TCP wire.

The evolution loop's common dispatch is not an *identical* repeat but
an *evolved* one: one pair enters the grid, every other pair keeps its
content and shifts position.  Rendezvous hashing on content digests
keeps every repeated pair on its warm shard, so the sweep pays only for
the new pair.  (Positional chunking — chunk ``k`` → shard ``k`` —
re-routed each shifted pair to a cold shard; its rows stay in
``BENCH_scaling_shards.json`` as the record of that ≥5× loss.)

Rows (all correctness checks run inside the bench):

* **evolved-grid sweep, digest** — per round: cold shards, one warming
  sweep of the base grid, then the measured sweep of the shifted grid,
  which recomputes only the inserted pair.  The bench asserts the
  shifted sweep's verdict-cache hits are at least an identical
  repeat's, with the straggler threshold infinite for those checks:
  when the inserted pair's cold chunk outlasts the 50 ms straggler
  floor, stealing and speculation rightly move warm pairs to the other
  shard, which a routing check must not count against routing;
* **TCP repeat sweep** — a warm re-sweep through loopback shard
  workers: content digests only on the wire, and the bench asserts the
  repeat ships **zero** kernel payload bytes.

Both rows time the shards, so every grid fans out, whatever the
runtime's fan-out decision would predict.
"""

import math

import pytest

from repro.core import runtime as runtime_module
from repro.core.runtime import EvolutionRuntime
from repro.core.sweep import WITNESS_NONE, _sweep_pairs_report, sweep_pairs
from repro.core.transport import ShardServer
from repro.workload.generator import random_afsa

SIZES = [128, 512]
GRID_PAIRS = 12
SWEEP_WORKERS = 2


@pytest.fixture(autouse=True)
def _fan_out(monkeypatch):
    """Fan out every grid of the row."""
    monkeypatch.setattr(runtime_module, "_FORCE_FAN_OUT", True)


def _grid(size, pairs=GRID_PAIRS, base_seed=0):
    return [
        (
            random_afsa(
                seed=base_seed + 2 * index, states=size, labels=6,
                annotation_probability=0.3,
            ),
            random_afsa(
                seed=base_seed + 2 * index + 1, states=size, labels=6,
                annotation_probability=0.3,
            ),
        )
        for index in range(pairs)
    ]


def _shifted(size):
    """The evolved dispatch: one new pair inserted at the front, every
    base pair keeps its content but changes its position."""
    extra = (
        random_afsa(
            seed=9_000 + size, states=size, labels=6,
            annotation_probability=0.3,
        ),
        random_afsa(
            seed=9_001 + size, states=size, labels=6,
            annotation_probability=0.3,
        ),
    )
    return [extra] + _grid(size)


@pytest.mark.parametrize("size", SIZES)
def test_scaling_shards_evolved_digest(benchmark, size):
    """Digest routing on a shifted grid: repeated pairs hit their warm
    shards; only the inserted pair computes."""
    grid = _grid(size)
    shifted = _shifted(size)
    serial = sweep_pairs(shifted, witnesses=WITNESS_NONE)
    runtime = EvolutionRuntime()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runtime_module, "_SPECULATE_FLOOR_S", math.inf)
            _sweep_pairs_report(grid, WITNESS_NONE, SWEEP_WORKERS, runtime)
            _, repeat = _sweep_pairs_report(
                grid, WITNESS_NONE, SWEEP_WORKERS, runtime
            )
            results, evolved = _sweep_pairs_report(
                shifted, WITNESS_NONE, SWEEP_WORKERS, runtime
            )
        assert [ok for ok, _ in results] == [ok for ok, _ in serial]
        # Every repeated pair lands on its warm shard: the evolved
        # sweep is at least as warm as an identical repeat.
        assert repeat.cache_hits == GRID_PAIRS
        assert evolved.cache_hits >= repeat.cache_hits

        def setup():
            runtime.restart_pool()
            sweep_pairs(
                grid, witnesses=WITNESS_NONE,
                workers=SWEEP_WORKERS, runtime=runtime,
            )
            return (), {}

        def evolved_sweep():
            return sweep_pairs(
                shifted, witnesses=WITNESS_NONE,
                workers=SWEEP_WORKERS, runtime=runtime,
            )

        benchmark.group = "shards-evolved-digest"
        benchmark.extra_info["states"] = size
        benchmark.extra_info["pairs"] = GRID_PAIRS + 1
        benchmark.extra_info["workers"] = SWEEP_WORKERS
        benchmark.extra_info["routing"] = "digest"
        benchmark.pedantic(
            evolved_sweep, setup=setup, rounds=3, iterations=1
        )
    finally:
        runtime.shutdown()


def test_scaling_shards_tcp_repeat(benchmark):
    """A warm re-sweep over TCP shard workers: digests only on the
    wire — the repeat ships zero kernel payload bytes (asserted)."""
    size = SIZES[0]
    grid = _grid(size)
    serial = sweep_pairs(grid, witnesses=WITNESS_NONE)
    servers = [ShardServer().start() for _ in range(SWEEP_WORKERS)]
    runtime = EvolutionRuntime(
        shards=[server.address for server in servers],
    )
    try:
        def tcp_sweep():
            return sweep_pairs(
                grid, witnesses=WITNESS_NONE,
                workers=SWEEP_WORKERS, runtime=runtime,
            )

        results = tcp_sweep()  # cold: payloads fetched on miss
        assert [ok for ok, _ in results] == [ok for ok, _ in serial]
        assert runtime.counters["payload_fetch_bytes"] > 0
        fetched_bytes = runtime.counters["payload_fetch_bytes"]
        results = tcp_sweep()  # warm: zero payload bytes on the wire
        assert runtime.counters["payload_fetch_bytes"] == fetched_bytes
        assert [ok for ok, _ in results] == [ok for ok, _ in serial]

        benchmark.group = "shards-tcp-repeat"
        benchmark.extra_info["states"] = size
        benchmark.extra_info["pairs"] = GRID_PAIRS
        benchmark.extra_info["shards"] = SWEEP_WORKERS
        benchmark(tcp_sweep)
        assert runtime.counters["payload_fetch_bytes"] == fetched_bytes
    finally:
        runtime.shutdown()
        for server in servers:
            server.stop()
