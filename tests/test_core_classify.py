"""Unit tests for change classification (Defs. 5 and 6)."""

from repro.afsa.view import project_view
from repro.core.classify import (
    ADDITIVE,
    BOTH,
    INVARIANT,
    NEUTRAL,
    SUBTRACTIVE,
    VARIANT,
    classify_against_partner,
    classify_change,
)
from repro.scenario.procurement import BUYER


class TestChangeFramework:
    """Def. 5 on the paper's own change scenarios."""

    def test_invariant_change_is_additive(
        self, accounting_compiled, accounting_invariant_compiled
    ):
        classification = classify_change(
            accounting_compiled.afsa, accounting_invariant_compiled.afsa
        )
        assert classification.additive
        assert not classification.subtractive
        assert classification.framework == ADDITIVE

    def test_cancel_change_is_additive(
        self, accounting_compiled, accounting_variant_compiled
    ):
        classification = classify_change(
            accounting_compiled.afsa, accounting_variant_compiled.afsa
        )
        assert classification.additive
        assert classification.framework in (ADDITIVE, BOTH)

    def test_tracking_bound_is_subtractive(
        self, accounting_compiled, accounting_subtractive_compiled
    ):
        classification = classify_change(
            accounting_compiled.afsa,
            accounting_subtractive_compiled.afsa,
        )
        assert classification.subtractive

    def test_no_change_is_neutral(self, accounting_compiled):
        classification = classify_change(
            accounting_compiled.afsa, accounting_compiled.afsa
        )
        assert classification.framework == NEUTRAL
        assert not classification.additive
        assert not classification.subtractive

    def test_added_sequences_diagnosed_by_difference(
        self, accounting_compiled, accounting_variant_compiled
    ):
        """Classification no longer carries ``A' \\ A``; the Def. 4
        difference still diagnoses which sequences the change added."""
        from repro.afsa.difference import difference
        from repro.afsa.language import accepted_words

        added = difference(
            accounting_variant_compiled.afsa, accounting_compiled.afsa
        )
        added_words = accepted_words(added, 3)
        assert any(
            "A#B#cancelOp" in word for word in map(set, added_words)
        )


class TestPropagationDimension:
    """Def. 6 on the paper's change scenarios, against the buyer."""

    def test_order2_invariant(
        self,
        accounting_compiled,
        accounting_invariant_compiled,
        buyer_compiled,
    ):
        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_invariant_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        assert classification.propagation == INVARIANT
        assert not classification.requires_propagation

    def test_cancel_variant(
        self,
        accounting_compiled,
        accounting_variant_compiled,
        buyer_compiled,
    ):
        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_variant_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        assert classification.propagation == VARIANT
        assert classification.requires_propagation

    def test_tracking_bound_variant(
        self,
        accounting_compiled,
        accounting_subtractive_compiled,
        buyer_compiled,
    ):
        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_subtractive_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        assert classification.propagation == VARIANT
        assert classification.framework == SUBTRACTIVE

    def test_variant_diagnosis_names_unsupported_message(
        self,
        accounting_compiled,
        accounting_variant_compiled,
        buyer_compiled,
    ):
        """Classification no longer carries ``A' ∩ B``; the lazy pair
        witness of the classified pair names the mandatory message the
        buyer does not support."""
        from repro.afsa.kernel import kernel_of
        from repro.afsa.witness import lazy_pair_witness

        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_variant_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        assert classification.variant
        witness = lazy_pair_witness(
            kernel_of(classification.new_public),
            kernel_of(buyer_compiled.afsa),
        )
        assert witness.empty
        missing = {
            name
            for names in witness.missing_variables.values()
            for name in names
        }
        assert "A#B#cancelOp" in missing

    def test_unchecked_propagation_is_none(self, accounting_compiled):
        classification = classify_change(
            accounting_compiled.afsa, accounting_compiled.afsa
        )
        assert classification.propagation is None
        assert not classification.requires_propagation


class TestStrictCriterion:
    """The Sect. 4.2 protocol-equivalence criterion is stricter than
    Def. 6 — the paper's motivation for introducing invariance."""

    def test_invariant_change_fails_strict_criterion(
        self,
        accounting_compiled,
        accounting_invariant_compiled,
        buyer_compiled,
    ):
        """order_2 is invariant, but NOT protocol-equivalent...
        actually the added sequences never intersect the buyer's
        current process, so it IS protocol-equivalent: the criterion
        accepts changes invisible to the partner."""
        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_invariant_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        buyer_view = project_view(buyer_compiled.afsa, BUYER)
        assert classification.protocol_equivalent(buyer_view)

    def test_variant_change_fails_strict_criterion(
        self,
        accounting_compiled,
        accounting_subtractive_compiled,
        buyer_compiled,
    ):
        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_subtractive_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        buyer_view = project_view(buyer_compiled.afsa, BUYER)
        assert not classification.protocol_equivalent(buyer_view)

    def test_describe_mentions_both_dimensions(
        self,
        accounting_compiled,
        accounting_variant_compiled,
        buyer_compiled,
    ):
        classification = classify_against_partner(
            accounting_compiled.afsa,
            accounting_variant_compiled.afsa,
            buyer_compiled.afsa,
            partner=BUYER,
        )
        description = classification.describe()
        assert "additive" in description
        assert "variant" in description
