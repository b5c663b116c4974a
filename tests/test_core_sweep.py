"""Tests for the batched multiparty consistency sweep engine.

The engine must (a) reproduce exactly what the hand-rolled pairwise
loops produced before it, (b) honor the witness policy, and (c) return
identical verdicts and witnesses regardless of worker count — the
fan-out to shards is a pure wall-clock optimization.
"""

import pytest

from repro.afsa.emptiness import is_consistent
from repro.core.choreography import Choreography
from repro.core.negotiation import ChangeNegotiation, PartnerAgent
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_FAILURES,
    WITNESS_NONE,
    check_pair,
    conversing_pairs,
    sweep_choreography,
    sweep_pairs,
    sweep_serialized_pairs,
)
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_variant_change,
    buyer_private,
    logistics_private,
)
from repro.workload.generator import (
    generate_choreography,
    generate_partner_pair,
    random_afsa,
)


@pytest.fixture()
def procurement():
    choreography = Choreography("procurement")
    for build in (buyer_private, accounting_private, logistics_private):
        choreography.add_partner(build())
    return choreography


@pytest.fixture()
def broken_procurement(procurement):
    """Accounting silently installs a variant change: the buyer ↔
    accounting conversation becomes inconsistent."""
    procurement.replace_private("A", accounting_private_variant_change())
    return procurement


class TestCheckPair:
    def test_agrees_with_is_consistent(self):
        for seed in range(12):
            left = random_afsa(seed=seed, states=10, labels=5,
                               annotation_probability=0.4)
            right = random_afsa(seed=seed + 100, states=10, labels=5,
                                annotation_probability=0.4)
            consistent, witness = check_pair(left, right, WITNESS_ALL)
            assert consistent == is_consistent(left, right)
            assert witness is not None
            assert witness.empty == (not consistent)

    def test_witness_policies(self):
        left = random_afsa(seed=1, states=8, labels=4)
        right = random_afsa(seed=2, states=8, labels=4)
        _, none_witness = check_pair(left, right, WITNESS_NONE)
        assert none_witness is None
        consistent, failure_witness = check_pair(
            left, right, WITNESS_FAILURES
        )
        if consistent:
            assert failure_witness is None
        else:
            assert failure_witness is not None


class TestSweepChoreography:
    def test_matches_legacy_report(self, procurement):
        report = procurement.check_consistency()
        sweep = sweep_choreography(procurement, witnesses=WITNESS_ALL)
        assert report.consistent == sweep.consistent
        assert len(report.checks) == len(sweep.outcomes)
        for check, outcome in zip(report.checks, sweep.outcomes):
            assert check.consistent == outcome.consistent
            assert check.witness.describe() == outcome.witness.describe()

    def test_detects_inconsistency_with_witness(self, broken_procurement):
        sweep = sweep_choreography(broken_procurement)
        assert not sweep.consistent
        failures = sweep.failures()
        assert [(f.left, f.right) for f in failures] == [("A", "B")]
        assert failures[0].witness is not None
        assert failures[0].witness.empty
        assert "INCONSISTENT" in sweep.describe()

    def test_conversing_pairs_only(self, procurement):
        pairs = conversing_pairs(procurement)
        # Buyer↔accounting and accounting↔logistics converse; the buyer
        # and logistics never exchange messages directly.
        assert pairs == [("A", "B"), ("A", "L")]

    def test_explicit_pair_subset(self, procurement):
        sweep = sweep_choreography(procurement, pairs=[("A", "B")])
        assert len(sweep.outcomes) == 1
        assert sweep.outcomes[0].left == "A"


class TestWorkerDeterminism:
    def test_same_verdicts_any_worker_count(self):
        choreography = generate_choreography(seed=31, spokes=3, steps=3)
        serial = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        for workers in (2, 3):
            parallel = sweep_choreography(
                choreography, witnesses=WITNESS_ALL, workers=workers
            )
            assert parallel.workers == workers
            assert [
                (o.left, o.right, o.consistent)
                for o in parallel.outcomes
            ] == [
                (o.left, o.right, o.consistent)
                for o in serial.outcomes
            ]
            assert [
                [str(label) for label in o.witness.word]
                for o in parallel.outcomes
            ] == [
                [str(label) for label in o.witness.word]
                for o in serial.outcomes
            ]

    def test_parallel_detects_inconsistency(self, broken_procurement):
        serial = sweep_choreography(broken_procurement)
        parallel = sweep_choreography(broken_procurement, workers=2)
        assert [o.consistent for o in parallel.outcomes] == [
            o.consistent for o in serial.outcomes
        ]
        assert not parallel.consistent

    def test_choreography_check_consistency_workers(self, procurement):
        serial = procurement.check_consistency()
        parallel = procurement.check_consistency(workers=2)
        assert serial.describe() == parallel.describe()

    def test_sweep_pairs_order_is_input_order(self):
        initiator, responder = generate_partner_pair(seed=5, steps=3)
        from repro.bpel.compile import compile_process
        from repro.afsa.view import project_view

        left = project_view(compile_process(initiator).afsa, "R")
        right = project_view(compile_process(responder).afsa, "I")
        pairs = [(left, right), (right, left), (left, right)]
        results = sweep_pairs(pairs, witnesses=WITNESS_NONE, workers=2)
        assert len(results) == 3
        assert all(consistent for consistent, _ in results)


def _mixed_grid():
    """A pair grid containing both consistent and inconsistent pairs."""
    pairs = [
        (
            random_afsa(seed=2 * index, states=10, labels=5,
                        annotation_probability=0.4),
            random_afsa(seed=2 * index + 101, states=10, labels=5,
                        annotation_probability=0.4),
        )
        for index in range(6)
    ]
    verdicts = {
        consistent
        for consistent, _ in sweep_pairs(pairs, witnesses=WITNESS_NONE)
    }
    assert verdicts == {True, False}, "grid must mix verdicts"
    return pairs


class TestWitnessPoliciesUnderWorkers:
    """Satellite: every witness policy must produce identical verdicts
    *and* witnesses at workers=1 and workers=4 (the fan-out is a pure
    wall-clock optimization), including the empty-grid edge case."""

    @pytest.mark.parametrize(
        "policy", [WITNESS_NONE, WITNESS_FAILURES, WITNESS_ALL]
    )
    def test_policy_identical_at_1_and_4_workers(self, policy):
        pairs = _mixed_grid()
        serial = sweep_pairs(pairs, witnesses=policy, workers=1)
        fanned = sweep_pairs(pairs, witnesses=policy, workers=4)
        assert len(serial) == len(fanned) == len(pairs)
        for (s_ok, s_wit), (f_ok, f_wit) in zip(serial, fanned):
            assert s_ok == f_ok
            if s_wit is None:
                assert f_wit is None
            else:
                assert f_wit is not None
                assert s_wit.empty == f_wit.empty
                assert s_wit.describe() == f_wit.describe()
                assert s_wit.word == f_wit.word
                assert s_wit.blocked_states == f_wit.blocked_states
                assert s_wit.missing_variables == f_wit.missing_variables

    @pytest.mark.parametrize(
        "policy", [WITNESS_NONE, WITNESS_FAILURES, WITNESS_ALL]
    )
    def test_policy_shape(self, policy):
        pairs = _mixed_grid()
        for consistent, witness in sweep_pairs(
            pairs, witnesses=policy, workers=4
        ):
            if policy == WITNESS_NONE:
                assert witness is None
            elif policy == WITNESS_FAILURES:
                assert (witness is None) == consistent
            else:
                assert witness is not None

    def test_empty_pair_grid(self):
        for workers in (None, 1, 4):
            assert sweep_pairs([], workers=workers) == []
            assert sweep_serialized_pairs([], workers=workers) == []

    def test_single_pair_grid_with_workers(self):
        pairs = _mixed_grid()[:1]
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        fanned = sweep_pairs(pairs, witnesses=WITNESS_ALL, workers=4)
        assert [ok for ok, _ in serial] == [ok for ok, _ in fanned]


class TestNegotiationSweep:
    def test_check_consistency_serial_and_parallel(self):
        initiator, responder = generate_partner_pair(seed=9, steps=3)
        negotiation = ChangeNegotiation(
            [PartnerAgent(initiator), PartnerAgent(responder)]
        )
        assert negotiation.check_consistency()
        assert negotiation.check_consistency(workers=2)
