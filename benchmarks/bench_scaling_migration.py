"""Scaling benchmarks: running-instance fleet migration.

One evolution step of the paper's scenario (accounting, subtractive
change of Sect. 5.3) applied to a generated fleet of running instances
with a bounded distinct-trace pool — production-shaped traffic where
thousands of conversations share a few dozen trace prefixes.

Two series over the same fleets:

* **migration-fleet** — the batched engine
  (:func:`repro.instances.migrate.classify_migration`): group by
  (version, trace) equivalence class, memoized kernel replay per
  distinct prefix, verdict broadcast.  Scaling in fleet size is
  sub-linear because the replay work saturates with the distinct-trace
  pool.
* **migration-naive** — the per-instance reference
  (:func:`repro.instances.migrate.classify_trace_reference`): public
  state-set stepping per instance, no cache, no grouping.  Linear in
  fleet size; the honest baseline the batched engine is measured
  against in this same file.

Verdict agreement between the two paths and worker-count invariance of
the batched engine are asserted inside the bench setup, so the JSON
doubles as a determinism record.
"""

import pytest

from repro.bpel.compile import compile_process
from repro.core import runtime as runtime_module
from repro.instances.migrate import (
    WITNESS_NONE,
    classify_migration,
    classify_trace_reference,
)
from repro.instances.store import InstanceStore
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_subtractive_change,
)
from repro.workload.fleet import generate_fleet

FLEET_SIZES = [1000, 4000, 16000]
DISTINCT = 64


@pytest.fixture(scope="module")
def models():
    old = compile_process(accounting_private()).afsa
    new = compile_process(accounting_private_subtractive_change()).afsa
    return old, new


def _fleet(old, size):
    return generate_fleet(
        old, size, seed=29, version="A#v1", distinct=DISTINCT
    )


@pytest.mark.parametrize("size", FLEET_SIZES)
def test_scaling_migration_fleet(benchmark, models, size):
    """Batched memoized classification of one evolution step."""
    old, new = models
    store = _fleet(old, size)

    # Determinism record: the batched verdicts agree with the naive
    # per-instance reference (checked per distinct class) and are
    # invariant to worker count.
    serial = classify_migration(
        store, old, new, version="A#v1", witnesses=WITNESS_NONE
    )
    by_instance = {
        entry.instance: entry.verdict for entry in serial.verdicts
    }
    for trace, records in store.classes(version="A#v1").items():
        reference = classify_trace_reference(
            new, InstanceStore.trace_texts(records[0])
        )
        assert all(
            by_instance[record.id] == reference for record in records
        )
    with pytest.MonkeyPatch.context() as patch:
        # The invariance check must reach the shards.
        patch.setattr(runtime_module, "_FORCE_FAN_OUT", True)
        fanned = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_NONE,
            workers=2,
        )
    assert fanned.workers == 2
    assert [e.verdict for e in fanned.verdicts] == [
        e.verdict for e in serial.verdicts
    ]

    benchmark.group = "migration-fleet"
    benchmark.extra_info["instances"] = size
    benchmark.extra_info["classes"] = serial.classes
    benchmark.extra_info["counts"] = serial.counts
    report = benchmark(
        lambda: classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_NONE
        )
    )
    assert sum(report.counts.values()) == size


@pytest.mark.parametrize("size", FLEET_SIZES)
def test_scaling_migration_naive(benchmark, models, size):
    """Naive per-instance replay baseline over the identical fleets."""
    old, new = models
    store = _fleet(old, size)
    traces = [InstanceStore.trace_texts(record) for record in store]
    classify_trace_reference(new, traces[0])  # warm the good-set memo

    benchmark.group = "migration-naive"
    benchmark.extra_info["instances"] = size
    verdicts = benchmark(
        lambda: [
            classify_trace_reference(new, trace) for trace in traces
        ]
    )
    assert len(verdicts) == size
