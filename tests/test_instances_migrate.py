"""Tests for the batched migration classifier and its integrations.

The classifier must (a) implement the compliance criterion exactly as
the naive per-instance ``afsa/simulate``-style reference does, (b)
return identical verdicts and witnesses for every worker count, and
(c) carry fleets forward through ``Choreography.replace_private``,
the evolution engine, and the negotiation protocol.
"""

from hypothesis import given, settings, strategies as st

from regimes import FAN_OUT, scheduler
from repro.bpel.compile import compile_process
from repro.core.choreography import Choreography
from repro.core.engine import EvolutionEngine
from repro.core.negotiation import ChangeNegotiation, PartnerAgent
from repro.instances.migrate import (
    MIGRATABLE,
    PENDING,
    STRANDED,
    WITNESS_ALL,
    WITNESS_NONE,
    classify_fleet,
    classify_migration,
    classify_trace_reference,
)
from repro.instances.store import RUNNING, InstanceStore
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_subtractive_change,
    buyer_private,
    logistics_private,
)
from repro.workload.fleet import generate_fleet
from repro.workload.generator import random_annotated_afsa

_SEEDS = st.integers(min_value=0, max_value=2_000)


def procurement_models():
    old = compile_process(accounting_private()).afsa
    new = compile_process(accounting_private_subtractive_change()).afsa
    return old, new


class TestClassifyMigration:
    def test_procurement_subtractive_step(self):
        old, new = procurement_models()
        store = generate_fleet(old, 400, seed=7, version="A#v1")
        report = classify_migration(
            store, old, new, version="A#v1", new_version="A#v2"
        )
        counts = report.counts
        assert sum(counts.values()) == 400
        # The subtractive change strands part of the fleet but not all
        # of it, and blocks the tracking loop on the removed messages.
        assert counts.get(MIGRATABLE, 0) > 0
        assert counts.get(STRANDED, 0) > 0
        assert report.classes == len(store.classes())
        assert "migration A#v1 → A#v2" in report.describe()

    def test_same_model_migrates_compliant_and_truncated(self):
        old, _ = procurement_models()
        store = generate_fleet(
            old, 200, seed=3, version="A#v1", mix=(0.6, 0.3, 0.1)
        )
        report = classify_migration(
            store, old, old, version="A#v1", new_version="A#v2"
        )
        # Only corrupted logs fail to migrate onto the identical model,
        # and those were divergent from the old model by construction.
        for entry in report.verdicts:
            if entry.verdict != MIGRATABLE:
                assert entry.verdict == STRANDED
                assert entry.compliant_with_old is False

    def test_apply_updates_store(self):
        old, new = procurement_models()
        store = generate_fleet(old, 300, seed=5, version="A#v1")
        report = classify_migration(
            store,
            old,
            new,
            version="A#v1",
            new_version="A#v2",
            apply=True,
        )
        assert report.applied
        migrated = store.instances(version="A#v2")
        assert len(migrated) == len(report.migratable)
        assert all(record.status == RUNNING for record in migrated)
        left_behind = store.instances(version="A#v1")
        assert len(left_behind) == len(report.pending) + len(
            report.stranded
        )
        assert {record.status for record in left_behind} <= {
            PENDING,
            STRANDED,
        }

    def test_witness_policies(self):
        old, new = procurement_models()
        store = generate_fleet(old, 100, seed=11, version="A#v1")
        silent = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_NONE
        )
        assert all(
            entry.continuation is None and not entry.blocked_on
            for entry in silent.verdicts
        )
        full = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_ALL
        )
        for entry in full.verdicts:
            if entry.verdict == MIGRATABLE:
                assert entry.continuation is not None
        assert any(
            entry.blocked_on
            for entry in full.verdicts
            if entry.verdict == PENDING
        ) or not full.pending

    def test_continuation_witnesses_replay_to_completion(self):
        old, new = procurement_models()
        store = generate_fleet(store=None, automaton=old, instances=60,
                               seed=13, version="A#v1")
        report = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_ALL
        )
        for entry in report.migratable[:10]:
            record = store.get(entry.instance)
            full_log = InstanceStore.trace_texts(record) + list(
                entry.continuation
            )
            # The extended log is itself a migratable (indeed complete)
            # instance of the new model.
            assert classify_trace_reference(new, full_log) == MIGRATABLE


class TestWorkerDeterminism:
    def _flat(self, report):
        return [
            (
                entry.instance,
                entry.verdict,
                entry.continuation,
                entry.blocked_on,
                entry.compliant_with_old,
            )
            for entry in report.verdicts
        ]

    def test_verdicts_and_witnesses_identical_1_vs_4(self):
        old, new = procurement_models()
        store = generate_fleet(old, 500, seed=17, version="A#v1")
        serial = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_ALL
        )
        for workers in (2, 4):
            with scheduler(**FAN_OUT):
                fanned = classify_migration(
                    store,
                    old,
                    new,
                    version="A#v1",
                    witnesses=WITNESS_ALL,
                    workers=workers,
                )
            assert fanned.workers == workers
            assert self._flat(fanned) == self._flat(serial)

    def test_empty_fleet(self):
        old, new = procurement_models()
        store = InstanceStore()
        for workers in (None, 4):
            report = classify_migration(
                store, old, new, version="A#v1", workers=workers
            )
            assert report.verdicts == []
            assert report.classes == 0


class TestReferenceAgreement:
    @given(_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_kernel_replay_agrees_with_naive_reference(self, seed):
        """Memoized kernel replay == naive per-instance simulate-based
        reference, on fleets sampled from one random annotated model
        and classified against another (cyclic mandatory annotations
        on both sides)."""
        old = random_annotated_afsa(seed=seed, states=6, labels=3)
        new = random_annotated_afsa(seed=seed + 1, states=6, labels=3)
        store = generate_fleet(
            old, 30, seed=seed, version="v1", distinct=4, max_steps=12
        )
        report = classify_fleet(store, new, version="v1")
        assert len(report.verdicts) == 30
        for entry in report.verdicts:
            record = store.get(entry.instance)
            expected = classify_trace_reference(
                new, InstanceStore.trace_texts(record)
            )
            assert entry.verdict == expected

    @given(_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_fleet_traces_comply_with_their_own_model(self, seed):
        """Compliant and truncated logs always migrate onto the model
        that generated them; divergent logs never do."""
        model = random_annotated_afsa(seed=seed, states=6, labels=3)
        store = generate_fleet(
            model, 40, seed=seed, version="v1", distinct=4, max_steps=12
        )
        report = classify_fleet(store, model, version="v1",
                                old_model=model)
        for entry in report.verdicts:
            if entry.verdict != MIGRATABLE:
                # Only corrupted logs may fail — and they fail against
                # the old model too (they *are* the old model here).
                assert entry.compliant_with_old is False


class TestChoreographyIntegration:
    def _choreography(self):
        choreography = Choreography("procurement")
        for build in (buyer_private, accounting_private, logistics_private):
            choreography.add_partner(build())
        return choreography

    def test_spawn_and_replace_migrates(self):
        choreography = self._choreography()
        store = choreography.spawn_fleet("A", 150, seed=9)
        assert store is choreography.instances
        assert len(store) == 150
        assert choreography.current_version("A") == "A#v1"

        report = choreography.replace_private(
            "A",
            accounting_private_subtractive_change(),
            migrate_instances=True,
        )
        assert report is not None
        assert choreography.current_version("A") == "A#v2"
        assert report.new_version == "A#v2"
        assert len(store.instances(version="A#v2")) == len(
            report.migratable
        )

    def test_replace_without_migration_keeps_fleet(self):
        choreography = self._choreography()
        choreography.spawn_fleet("A", 50, seed=2)
        report = choreography.replace_private(
            "A", accounting_private_subtractive_change()
        )
        assert report is None
        assert choreography.instances.status_counts() == {RUNNING: 50}
        # Version still advances: the fleet is simply left behind.
        assert choreography.current_version("A") == "A#v2"

    def test_engine_carries_fleet_on_commit(self):
        choreography = self._choreography()
        choreography.spawn_fleet("A", 120, seed=21)
        engine = EvolutionEngine(choreography)
        report = engine.apply_private_change(
            "A",
            accounting_private_subtractive_change(),
            auto_adapt=True,
            commit=True,
            migrate_instances=True,
        )
        if report.migration is not None:  # committed
            assert sum(report.migration.counts.values()) == 120

    def test_engine_migrates_auto_adapted_partner_fleets(self):
        choreography = self._choreography()
        choreography.spawn_fleet("B", 60, seed=6)
        engine = EvolutionEngine(choreography)
        report = engine.apply_private_change(
            "A",
            accounting_private_subtractive_change(),
            auto_adapt=True,
            commit=True,
            migrate_instances=True,
        )
        impact = report.impact_for("B")
        if impact.adapted_private is not None:  # partner was adapted
            # The buyer's own fleet was not silently orphaned on v1:
            # it rode the same migration switch as the originator's.
            assert impact.migration is not None
            assert sum(impact.migration.counts.values()) == 60
            assert not choreography.instances.has(
                "B#v1", status=RUNNING
            )


class TestNegotiationIntegration:
    def test_committed_change_migrates_originator_fleet(self):
        store = InstanceStore()
        accounting = PartnerAgent(accounting_private(), instances=store)
        buyer = PartnerAgent(buyer_private())
        logistics = PartnerAgent(logistics_private())
        negotiation = ChangeNegotiation([accounting, buyer, logistics])

        generate_fleet(
            accounting.compiled.afsa,
            80,
            seed=4,
            version=accounting.version,
            store=store,
        )
        assert accounting.version == "A#v1"

        # Re-proposing the unchanged process is accepted by everyone
        # and exercises the commit → install → migrate path.
        outcome = negotiation.propose_change("A", accounting_private())
        assert outcome.committed
        assert accounting.version == "A#v2"
        report = accounting.last_migration
        assert report is not None
        assert sum(report.counts.values()) == 80
        # The public process is unchanged, so every non-corrupted log
        # carries forward.
        for entry in report.verdicts:
            if entry.verdict != MIGRATABLE:
                assert entry.compliant_with_old is False
