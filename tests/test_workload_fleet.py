"""Tests for the running-instance fleet generators."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.afsa.language import annotated_accepts
from repro.bpel.compile import compile_process
from repro.instances.migrate import MIGRATABLE, classify_trace_reference
from repro.instances.store import InstanceStore
from repro.scenario.procurement import accounting_private
from repro.workload.fleet import (
    _CORRUPTIONS_PER_BASE,
    _CUTS_PER_BASE,
    generate_fleet,
    sample_compliant_trace,
)
from repro.workload.generator import random_annotated_afsa

_SEEDS = st.integers(min_value=0, max_value=2_000)


def accounting_public():
    return compile_process(accounting_private()).afsa


class TestSampleCompliantTrace:
    def test_trace_is_accepted_word(self):
        automaton = accounting_public()
        for seed in range(10):
            trace = sample_compliant_trace(automaton, seed=seed)
            assert annotated_accepts(automaton, trace)

    def test_deterministic_per_seed(self):
        automaton = accounting_public()
        assert sample_compliant_trace(
            automaton, seed=5
        ) == sample_compliant_trace(automaton, seed=5)

    @given(_SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_random_models_produce_accepted_words(self, seed):
        from repro.afsa.emptiness import is_empty

        automaton = random_annotated_afsa(seed=seed, states=6, labels=3)
        trace = sample_compliant_trace(automaton, seed=seed, max_steps=12)
        if is_empty(automaton):
            # No compliant log exists for an annotated-empty model.
            assert trace == []
        else:
            assert annotated_accepts(automaton, trace)


class TestGenerateFleet:
    def test_size_version_and_determinism(self):
        automaton = accounting_public()
        store = generate_fleet(automaton, 100, seed=8, version="A#v1")
        again = generate_fleet(automaton, 100, seed=8, version="A#v1")
        assert len(store) == 100
        assert store.versions() == ["A#v1"]
        assert [record.trace for record in store] == [
            record.trace for record in again
        ]

    def test_distinct_pool_bounds_trace_classes(self):
        automaton = accounting_public()
        distinct = 8
        store = generate_fleet(
            automaton, 5000, seed=1, version="v1", distinct=distinct
        )
        bound = distinct * (1 + _CUTS_PER_BASE + _CORRUPTIONS_PER_BASE)
        assert len(store.classes()) <= bound
        # 5000 instances share a few dozen traces: the prefix-sharing
        # profile the memoized replay amortizes over.
        assert len(store.classes()) < 100

    def test_mix_extremes(self):
        automaton = accounting_public()
        compliant_only = generate_fleet(
            automaton, 50, seed=2, version="v1", mix=(1, 0, 0)
        )
        for record in compliant_only:
            assert (
                classify_trace_reference(
                    automaton, InstanceStore.trace_texts(record)
                )
                == MIGRATABLE
            )
        divergent_only = generate_fleet(
            automaton, 50, seed=2, version="v1", mix=(0, 0, 1)
        )
        for record in divergent_only:
            assert (
                classify_trace_reference(
                    automaton, InstanceStore.trace_texts(record)
                )
                != MIGRATABLE
            )

    def test_appends_to_existing_store(self):
        automaton = accounting_public()
        store = generate_fleet(automaton, 10, seed=3, version="v1")
        result = generate_fleet(
            automaton, 10, seed=4, version="v2", store=store
        )
        assert result is store
        assert len(store) == 20
        assert store.versions() == ["v1", "v2"]

    def test_invalid_mix_rejected(self):
        automaton = accounting_public()
        try:
            generate_fleet(automaton, 10, mix=(0, 0, 0))
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("zero-weight mix must be rejected")


#: Generates one fleet of a compiled hub and prints its trace texts;
#: with ``after-unrelated`` it compiles the procurement processes
#: first, so their labels take the low interner ids.
_FLEET_SCRIPT = """
import json, sys
from repro.bpel.compile import compile_process
from repro.instances.store import InstanceStore
from repro.scenario.procurement import accounting_private, buyer_private
from repro.workload.fleet import generate_fleet
from repro.workload.generator import generate_choreography

if sys.argv[1] == "after-unrelated":
    for process in (buyer_private(), accounting_private()):
        compile_process(process)
hub = generate_choreography(seed=3, spokes=6, steps=4).public("H")
store = generate_fleet(hub, 400, seed=7, distinct=24)
print(json.dumps([InstanceStore.trace_texts(record)
                  for record in store._records]))
"""


def _fleet_texts(hash_seed: str, mode: str) -> list:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
    return json.loads(subprocess.run(
        [sys.executable, "-c", _FLEET_SCRIPT, mode],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout)


class TestFleetReproducibility:
    def test_fleet_is_a_function_of_the_model_and_seed(self):
        """Contract 8 for fleets: divergent labels are picked in text
        order, not interner-id order, so a fleet is the same in fresh
        interpreters under different hash seeds and after unrelated
        compiles."""
        reference = _fleet_texts("1", "fresh")
        assert len(reference) == 400
        assert _fleet_texts("2", "fresh") == reference
        assert _fleet_texts("2", "after-unrelated") == reference

    def test_records_share_the_interned_pool_traces(self):
        store = generate_fleet(accounting_public(), 500, seed=4, distinct=6)
        traces = {id(record.trace) for record in store._records}
        assert len(traces) == len(store.classes())
        assert all(
            store.intern_trace(record.trace) is record.trace
            for record in store._records
        )
