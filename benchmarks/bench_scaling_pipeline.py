"""Scaling benchmarks: the pipelined scheduler on a skewed grid.

A one-chunk-per-shard barrier hands each shard one monolithic chunk,
so sweep latency is the *max* over shards — one slow shard (CPU
contention, a cold cache, a noisy neighbour) stalls the whole grid:
it can finish no sooner than the slow shard's routed share × its
per-pair slowdown.  The pipelined scheduler splits the grid into
rendezvous-routed micro-chunks, keeps a bounded in-flight window per
shard, steals queued work from stragglers and re-dispatches their
in-flight chunks speculatively — latency approaches the *mean*.

Rows (all correctness checks run inside the bench):

* **skewed-grid sweep, pipelined+speculative** — the busier shard is
  forked while the sweep's chunk function sleeps per pair first (the
  parent and the other shard keep the real one), and the scheduler's
  constants force speculation and a window of one for the row's
  duration.  The ≥2× speedup over the barrier's analytic floor (pairs
  routed to the slow shard × the injected per-pair delay) is asserted
  in-bench, as is verdict identity with the serial sweep — so the
  committed JSON is also the acceptance claim's record;
* **fan-out curve** — an unskewed compute-bound grid swept with 1, 2
  and 4 workers; each row's best-round seconds is also stamped into
  the output JSON's hardware block (``sweep_fanout_curve``) next to
  the ``cpu_count`` it was measured on — the ROADMAP's "multi-core
  measurement" record.
"""

from time import perf_counter, sleep

import pytest

from bench_support import FANOUT_CURVE

from repro.core import runtime as runtime_module
from repro.core import sweep as sweep_module
from repro.core.runtime import EvolutionRuntime
from repro.core.sweep import WITNESS_NONE, _sweep_pairs_report, sweep_pairs
from repro.workload.generator import random_afsa

#: Small states for the skew rows: the injected sleep dominates, so
#: the rows measure *scheduling*, not kernel compute.
SKEW_SIZE = 96
#: Compute-bound states for the fan-out curve rows.
FANOUT_SIZE = 512
GRID_PAIRS = 12
SWEEP_WORKERS = 2
#: The slow shard sleeps this long per pair in every chunk it checks.
FAULT_S = 0.05
#: The acceptance claim: pipelined+speculative ≥2× under the barrier's
#: analytic floor.
ASSERT_SPEEDUP = 2.0
#: Scheduler constants for the skew row: every grid fanned out, a
#: window of one, and a backup for any chunk older than 2 ms.
SKEW_SCHEDULER = {
    "_FORCE_FAN_OUT": True,
    "_WINDOW": 1,
    "_SPECULATE_MULTIPLE": 0.0,
    "_SPECULATE_FLOOR_S": 0.002,
}
FANOUT_WORKERS = [1, 2, 4]


def _grid(size, base_seed=0, pairs=GRID_PAIRS):
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


def _sweep(runtime, grid, workers=SWEEP_WORKERS):
    return sweep_pairs(
        grid, witnesses=WITNESS_NONE, workers=workers, runtime=runtime
    )


def _busier_shard(grid):
    """``(slot, pairs)`` of the shard digest routing gives the larger
    share of *grid* (routing is deterministic within a process, so a
    later runtime places the grid the same way)."""
    with EvolutionRuntime() as runtime:
        _, report = _sweep_pairs_report(
            grid, WITNESS_NONE, SWEEP_WORKERS, runtime
        )
    loads = report.shard_loads
    return loads.index(max(loads)), max(loads)


#: The sweep's real chunk function.
CHECK = sweep_module._check_arena_chunk


def _slow_check(payload):
    """The sweep's chunk function, FAULT_S slower per pair."""
    sleep(FAULT_S * len(payload[2]))
    return CHECK(payload)


def _fork_with_slow_shard(runtime, slow):
    """Fork *runtime*'s shards in slot order; slot *slow* forks while
    the sweep's chunk function is :func:`_slow_check`, so that shard
    alone runs slow for its whole life."""
    for slot in range(SWEEP_WORKERS):
        with pytest.MonkeyPatch.context() as patch:
            if slot == slow:
                patch.setattr(sweep_module, "_check_arena_chunk", _slow_check)
            runtime.ensure_pool(slot + 1)


def test_scaling_pipeline_pipelined_skew(benchmark, monkeypatch):
    """Pipelined micro-chunks + stealing + forced speculation under a
    slow shard: latency is bounded by a couple of chunk times.  The ≥2×
    acceptance ratio vs the barrier's analytic floor is asserted
    in-bench."""
    grid = _grid(SKEW_SIZE)
    serial = sweep_pairs(grid, witnesses=WITNESS_NONE)
    slow, slow_pairs = _busier_shard(grid)
    fault = f"{slow}:{FAULT_S}"
    for name, value in SKEW_SCHEDULER.items():
        monkeypatch.setattr(runtime_module, name, value)
    runtime = EvolutionRuntime()
    try:
        _fork_with_slow_shard(runtime, slow)
        results = _sweep(runtime, grid)
        assert [ok for ok, _ in results] == [ok for ok, _ in serial]

        benchmark.group = "pipeline-skewed-sweep"
        benchmark.extra_info["states"] = SKEW_SIZE
        benchmark.extra_info["pairs"] = GRID_PAIRS
        benchmark.extra_info["workers"] = SWEEP_WORKERS
        benchmark.extra_info["speculation"] = "force"
        benchmark.extra_info["fault"] = fault
        benchmark(_sweep, runtime, grid)
        assert runtime.counters["speculative_dispatches"] >= 1

        def one_round():
            start = perf_counter()
            _sweep(runtime, grid)
            return perf_counter() - start

        pipelined_s = min(one_round() for _ in range(2))
    finally:
        runtime.shutdown()

    # The acceptance claim, against the floor no barrier can beat: it
    # waits for every pair routed to the slow shard.
    barrier_floor_s = slow_pairs * FAULT_S
    benchmark.extra_info["barrier_floor_s"] = round(barrier_floor_s, 4)
    benchmark.extra_info["pipelined_s"] = round(pipelined_s, 4)
    assert barrier_floor_s >= ASSERT_SPEEDUP * pipelined_s, (
        f"pipelined+speculative {barrier_floor_s / pipelined_s:.1f}× "
        f"under the barrier floor — expected ≥{ASSERT_SPEEDUP}×"
    )


@pytest.mark.parametrize("workers", FANOUT_WORKERS)
def test_scaling_pipeline_fanout(benchmark, workers, monkeypatch):
    """The multi-core fan-out curve: one compute-bound grid swept with
    1 (serial), 2 and 4 workers under the pipelined scheduler.  Fresh
    random grids per round keep every verdict cache cold, so the rows
    measure kernel compute + dispatch, not memoization; with more than
    one worker every grid fans out, whatever the runtime would
    predict.  Best-round seconds land in the JSON hardware block as
    ``sweep_fanout_curve``."""
    monkeypatch.setattr(runtime_module, "_FORCE_FAN_OUT", True)
    runtime = EvolutionRuntime()
    seeds = iter(range(10_000, 90_000, 1_000))
    try:
        serial_probe = _grid(FANOUT_SIZE, base_seed=next(seeds))
        serial = sweep_pairs(serial_probe, witnesses=WITNESS_NONE)
        results = _sweep(runtime, serial_probe, workers=workers)
        assert [ok for ok, _ in results] == [ok for ok, _ in serial]

        def fresh_grid():
            return (_grid(FANOUT_SIZE, base_seed=next(seeds)),), {}

        def fanned_sweep(grid):
            return _sweep(runtime, grid, workers=workers)

        benchmark.group = "pipeline-fanout-curve"
        benchmark.extra_info["states"] = FANOUT_SIZE
        benchmark.extra_info["pairs"] = GRID_PAIRS
        benchmark.extra_info["workers"] = workers
        benchmark.pedantic(
            fanned_sweep, setup=fresh_grid, rounds=2, iterations=1
        )

        best = None
        for _ in range(2):
            (grid,), _kwargs = fresh_grid()
            start = perf_counter()
            fanned_sweep(grid)
            elapsed = perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        FANOUT_CURVE[str(workers)] = round(best, 6)
        benchmark.extra_info["best_round_s"] = round(best, 6)
    finally:
        runtime.shutdown()
