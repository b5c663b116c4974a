"""Scaling benchmarks: the batched multiparty consistency sweep engine.

Two axes:

* **hub topology** — the Sect. 6 decentralized scheme over a generated
  hub-and-spokes choreography, checked through
  :func:`repro.core.sweep.sweep_choreography` (shared view memos, one
  fixpoint per pair, witnesses only on failure);
* **pair grid fan-out** — a grid of heavyweight random aFSA pairs
  dispatched serially and across forked shard workers.
  Verdicts are asserted identical across worker counts inside the
  bench, so the JSON doubles as a determinism record.

Since PR 4 every check runs the fused lazy product-emptiness engine
and repeated checks of an unchanged pair are
:data:`~repro.afsa.lazy.VERDICTS` cache hits; these rows measure the
*cold* engine (the cache is cleared inside the measured callable —
warm-repeat behavior has its own row in
``bench_scaling_product.py``).
"""

import pytest

from repro.afsa.lazy import VERDICTS
from repro.core.sweep import (
    WITNESS_NONE,
    sweep_choreography,
    sweep_pairs,
)
from repro.workload.generator import generate_choreography, random_afsa

GRID_PAIRS = 8
GRID_STATES = 128


@pytest.mark.parametrize("spokes", [4, 8, 16])
def test_scaling_sweep_hub(benchmark, spokes):
    """Batched sweep over a hub-and-spokes choreography."""
    choreography = generate_choreography(seed=31, spokes=spokes, steps=3)
    # Warm compile + view memos: measure checking, not compilation.
    for party in choreography.parties():
        choreography.compiled(party)
    sweep_choreography(choreography)

    def run():
        VERDICTS.clear()  # measure the engine, not the verdict memo
        return sweep_choreography(choreography)

    benchmark.group = "sweep-hub"
    benchmark.extra_info["partners"] = spokes + 1
    report = benchmark(run)
    assert report.consistent
    assert len(report.outcomes) == spokes


def _grid():
    return [
        (
            random_afsa(
                seed=2 * index, states=GRID_STATES, labels=8,
                annotation_probability=0.3,
            ),
            random_afsa(
                seed=2 * index + 1, states=GRID_STATES, labels=8,
                annotation_probability=0.3,
            ),
        )
        for index in range(GRID_PAIRS)
    ]


@pytest.mark.parametrize("workers", [0, 2, 4])
def test_scaling_pair_grid(benchmark, workers):
    """Heavy pair grid, serial vs. fan-out to forked shards.

    The fanned-out rows dispatch through a *throwaway* runtime per
    measured call (fresh pool, fresh worker caches) — with the PR-5
    persistent default the workers would answer every iteration after
    the first from their verdict caches, and these rows measure the
    cold engine by contract (their committed baseline was recorded
    with per-call pools; the warm-pool regime has its own rows in
    bench_scaling_runtime.py).
    """
    from repro.core.runtime import EvolutionRuntime

    pairs = _grid()
    serial = [
        consistent
        for consistent, _ in sweep_pairs(pairs, witnesses=WITNESS_NONE)
    ]

    def run():
        VERDICTS.clear()  # cold checks in-process...
        if not workers:
            return sweep_pairs(
                pairs, witnesses=WITNESS_NONE, workers=workers
            )
        with EvolutionRuntime() as runtime:  # ...and in the workers
            return sweep_pairs(
                pairs, witnesses=WITNESS_NONE, workers=workers,
                runtime=runtime,
            )

    benchmark.group = "sweep-pair-grid"
    benchmark.extra_info["pairs"] = GRID_PAIRS
    benchmark.extra_info["states"] = GRID_STATES
    benchmark.extra_info["workers"] = workers
    results = benchmark(run)
    assert [consistent for consistent, _ in results] == serial
