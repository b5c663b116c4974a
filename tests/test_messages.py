"""Unit tests for message labels and alphabets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MessageLabelError
from repro.messages.alphabet import Alphabet, LabelInterner
from repro.messages.label import (
    EPSILON,
    MessageLabel,
    is_epsilon,
    label_involves,
    label_operation,
    label_text,
    parse_label,
)


class TestMessageLabel:
    def test_text_rendering(self):
        label = MessageLabel("B", "A", "orderOp")
        assert str(label) == "B#A#orderOp"
        assert label.text == "B#A#orderOp"

    def test_equality_and_hash(self):
        assert MessageLabel("A", "B", "x") == MessageLabel("A", "B", "x")
        assert len({MessageLabel("A", "B", "x")} | {
            MessageLabel("A", "B", "x")
        }) == 1

    def test_ordering_is_stable(self):
        labels = sorted(
            [MessageLabel("B", "A", "z"), MessageLabel("A", "B", "a")]
        )
        assert labels[0].sender == "A"

    def test_involves(self):
        label = MessageLabel("B", "A", "orderOp")
        assert label.involves("A")
        assert label.involves("B")
        assert not label.involves("L")

    def test_counterparty(self):
        label = MessageLabel("B", "A", "orderOp")
        assert label.counterparty("B") == "A"
        assert label.counterparty("A") == "B"

    def test_counterparty_rejects_stranger(self):
        with pytest.raises(MessageLabelError):
            MessageLabel("B", "A", "orderOp").counterparty("L")

    def test_reversed(self):
        label = MessageLabel("A", "L", "get_statusLOp")
        assert label.reversed() == MessageLabel("L", "A", "get_statusLOp")

    def test_rejects_empty_parts(self):
        with pytest.raises(MessageLabelError):
            MessageLabel("", "A", "op")
        with pytest.raises(MessageLabelError):
            MessageLabel("A", "B", "")

    def test_rejects_separator_in_parts(self):
        with pytest.raises(MessageLabelError):
            MessageLabel("A#B", "C", "op")

    def test_with_operation(self):
        label = MessageLabel("A", "B", "orderOp")
        assert label.with_operation("order_2Op") == MessageLabel(
            "A", "B", "order_2Op"
        )


class TestParseLabel:
    def test_parses_canonical_form(self):
        assert parse_label("B#A#orderOp") == MessageLabel(
            "B", "A", "orderOp"
        )

    def test_keeps_opaque_strings(self):
        assert parse_label("just-a-symbol") == "just-a-symbol"

    def test_epsilon_passthrough(self):
        assert parse_label(EPSILON) == EPSILON

    def test_label_passthrough(self):
        label = MessageLabel("A", "B", "x")
        assert parse_label(label) is label

    def test_malformed_three_part_rejected(self):
        with pytest.raises(MessageLabelError):
            parse_label("A##op")


class TestHelpers:
    def test_is_epsilon(self):
        assert is_epsilon(EPSILON)
        assert is_epsilon(None)
        assert not is_epsilon("A#B#x")

    def test_label_text(self):
        assert label_text(EPSILON) == "ε"
        assert label_text(MessageLabel("A", "B", "x")) == "A#B#x"

    def test_label_involves(self):
        assert label_involves("A#B#x", "A")
        assert not label_involves("A#B#x", "L")
        assert not label_involves(EPSILON, "A")
        assert not label_involves("opaque", "A")

    def test_label_operation(self):
        assert label_operation("A#B#orderOp") == "orderOp"
        assert label_operation("opaque") == "opaque"


class TestAlphabet:
    def test_normalizes_strings(self):
        alphabet = Alphabet(["A#B#x", MessageLabel("A", "B", "x")])
        assert len(alphabet) == 1

    def test_epsilon_never_member(self):
        alphabet = Alphabet([EPSILON, "A#B#x"])
        assert len(alphabet) == 1
        assert EPSILON not in alphabet

    def test_contains(self):
        alphabet = Alphabet(["A#B#x"])
        assert "A#B#x" in alphabet
        assert MessageLabel("A", "B", "x") in alphabet
        assert "A#B#y" not in alphabet

    def test_union_intersection_difference(self):
        left = Alphabet(["A#B#x", "A#B#y"])
        right = Alphabet(["A#B#y", "A#B#z"])
        assert len(left | right) == 3
        assert (left & right) == Alphabet(["A#B#y"])
        assert (left - right) == Alphabet(["A#B#x"])

    def test_partners(self):
        alphabet = Alphabet(["B#A#orderOp", "A#L#deliverOp"])
        assert alphabet.partners() == {"A", "B", "L"}

    def test_involving(self):
        alphabet = Alphabet(["B#A#orderOp", "A#L#deliverOp"])
        assert alphabet.involving("B") == Alphabet(["B#A#orderOp"])
        assert alphabet.not_involving("B") == Alphabet(["A#L#deliverOp"])

    def test_directional_queries(self):
        alphabet = Alphabet(["B#A#orderOp", "A#B#deliveryOp"])
        assert alphabet.sent_by("B") == Alphabet(["B#A#orderOp"])
        assert alphabet.received_by("B") == Alphabet(["A#B#deliveryOp"])

    def test_operations(self):
        alphabet = Alphabet(["B#A#orderOp", "A#B#deliveryOp"])
        assert alphabet.operations() == {"orderOp", "deliveryOp"}

    def test_iteration_sorted(self):
        alphabet = Alphabet(["B#A#z", "A#B#a"])
        assert [str(label) for label in alphabet] == ["A#B#a", "B#A#z"]

    def test_equality_with_sets(self):
        assert Alphabet(["A#B#x"]) == {MessageLabel("A", "B", "x")}


#: Label texts: short ones over the separator (well-formed, opaque,
#: ε and malformed ``"A##op"`` shapes), plus arbitrary text.
LABEL_TEXTS = st.one_of(st.text(alphabet="AB#x", max_size=7), st.text())


def _parses(text) -> bool:
    try:
        parse_label(text)
    except MessageLabelError:
        return False
    return True


class TestLabelInterner:
    @given(LABEL_TEXTS)
    def test_text_and_parsed_label_share_an_id(self, text):
        interner = LabelInterner()
        if not _parses(text):
            for _ in range(3):
                with pytest.raises(MessageLabelError):
                    interner.intern(text)
            assert len(interner) == 0
            return
        first = interner.intern(text)
        assert interner.intern(text) == first
        assert interner.intern(parse_label(text)) == first
        assert interner.label(first) == parse_label(text)
        assert interner.text(first) == label_text(parse_label(text))

    @given(st.lists(st.tuples(LABEL_TEXTS, st.booleans()), max_size=24))
    def test_ids_follow_first_sight_of_the_parsed_label(self, calls):
        """Any mix of texts and parsed labels gets the ids an interner
        that parses every call assigns."""
        interner = LabelInterner()
        reference: dict = {}
        for text, as_label in calls:
            if not _parses(text):
                with pytest.raises(MessageLabelError):
                    interner.intern(text)
                continue
            parsed = parse_label(text)
            expected = reference.setdefault(parsed, len(reference))
            assert interner.intern(parsed if as_label else text) == expected
