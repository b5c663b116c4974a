"""Unit tests for ε-handling and determinization."""

from repro.afsa.automaton import AFSABuilder
from repro.afsa.determinize import determinize, is_deterministic
from repro.afsa.emptiness import is_empty
from repro.afsa.epsilon import (
    closure_annotation,
    epsilon_closure,
    remove_epsilon,
)
from repro.afsa.language import accepted_words
from repro.formula.ast import FALSE, Var


class TestEpsilonClosure:
    def test_closure_includes_self(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        automaton = builder.build(start="a")
        assert epsilon_closure(automaton, "a") == {"a"}

    def test_closure_follows_chains(self):
        builder = AFSABuilder()
        builder.add_epsilon("a", "b")
        builder.add_epsilon("b", "c")
        automaton = builder.build(start="a")
        assert epsilon_closure(automaton, "a") == {"a", "b", "c"}

    def test_closure_handles_cycles(self):
        builder = AFSABuilder()
        builder.add_epsilon("a", "b")
        builder.add_epsilon("b", "a")
        automaton = builder.build(start="a")
        assert epsilon_closure(automaton, "a") == {"a", "b"}

    def test_closure_does_not_follow_labels(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_epsilon("b", "c")
        automaton = builder.build(start="a")
        assert epsilon_closure(automaton, "a") == {"a"}

    def test_closure_annotation_conjoins(self):
        builder = AFSABuilder()
        builder.add_epsilon("a", "b")
        builder.annotate("a", Var("A#B#x"))
        builder.annotate("b", Var("A#B#y"))
        automaton = builder.build(start="a")
        closure = epsilon_closure(automaton, "a")
        assert str(closure_annotation(automaton, closure)) == (
            "A#B#x AND A#B#y"
        )


class TestRemoveEpsilon:
    def test_noop_without_epsilon(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.mark_final("b")
        automaton = builder.build(start="a")
        assert remove_epsilon(automaton) == automaton.trimmed()

    def test_language_preserved(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_epsilon("b", "c")
        builder.add_transition("c", "A#B#y", "d")
        builder.mark_final("d")
        automaton = builder.build(start="a")
        cleaned = remove_epsilon(automaton)
        assert not cleaned.has_epsilon()
        assert accepted_words(cleaned, 4) == accepted_words(automaton, 4)

    def test_finality_propagates_through_closure(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_epsilon("b", "final")
        builder.mark_final("final")
        cleaned = remove_epsilon(builder.build(start="a"))
        assert "b" in cleaned.finals

    def test_annotations_conjoined_through_closure(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_epsilon("b", "c")
        builder.add_transition("c", "A#B#y", "d")
        builder.annotate("c", Var("A#B#y"))
        builder.mark_final("d")
        cleaned = remove_epsilon(builder.build(start="a"))
        assert cleaned.annotation("b") == Var("A#B#y")

    def test_epsilon_cycle(self):
        builder = AFSABuilder()
        builder.add_epsilon("a", "b")
        builder.add_epsilon("b", "a")
        builder.add_transition("b", "A#B#x", "c")
        builder.mark_final("c")
        cleaned = remove_epsilon(builder.build(start="a"))
        assert accepted_words(cleaned, 3) == {("A#B#x",)}


class TestIsDeterministic:
    def test_deterministic(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_transition("a", "A#B#y", "c")
        assert is_deterministic(builder.build(start="a"))

    def test_epsilon_is_nondeterministic(self):
        builder = AFSABuilder()
        builder.add_epsilon("a", "b")
        assert not is_deterministic(builder.build(start="a"))

    def test_duplicate_labels_nondeterministic(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_transition("a", "A#B#x", "c")
        assert not is_deterministic(builder.build(start="a"))


class TestDeterminize:
    def test_language_preserved(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_transition("a", "A#B#x", "c")
        builder.add_transition("b", "A#B#y", "d")
        builder.add_transition("c", "A#B#z", "e")
        builder.mark_final("d")
        builder.mark_final("e")
        automaton = builder.build(start="a")
        dfa = determinize(automaton)
        assert is_deterministic(dfa)
        assert accepted_words(dfa, 4) == accepted_words(automaton, 4)

    def test_macro_annotations_conjoined(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_transition("a", "A#B#x", "c")
        builder.annotate("b", Var("A#B#y"))
        builder.annotate("c", Var("A#B#z"))
        builder.add_transition("b", "A#B#y", "f")
        builder.add_transition("c", "A#B#z", "f")
        builder.mark_final("f")
        dfa = determinize(builder.build(start="a"))
        macro = frozenset({"b", "c"})
        assert str(dfa.annotation(macro)) == "A#B#y AND A#B#z"

    def test_deterministic_input_unchanged(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.mark_final("b")
        automaton = builder.build(start="a")
        assert determinize(automaton) == automaton.trimmed()

    def test_final_when_any_member_final(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_transition("a", "A#B#x", "c")
        builder.mark_final("c")
        dfa = determinize(builder.build(start="a"))
        assert frozenset({"b", "c"}) in dfa.finals

    def test_unmet_member_annotation_not_borrowed(self):
        # "f" is the only final state and its mandatory y leads to the
        # dead state "d", so the automaton is empty.  Merged with "m",
        # whose y loops back to the start, the macro state {f, m} must
        # not take the support f lacks from m's transition.
        builder = AFSABuilder()
        builder.add_transition("s", "A#B#x", "f")
        builder.add_transition("s", "A#B#x", "m")
        builder.add_transition("f", "A#B#y", "d")
        builder.add_transition("m", "A#B#y", "s")
        builder.annotate("f", Var("A#B#y"))
        builder.mark_final("f")
        automaton = builder.build(start="s")
        dfa = determinize(automaton)
        assert is_empty(automaton)
        assert is_empty(dfa)
        assert dfa.annotation(frozenset({"f", "m"})) == FALSE
        assert accepted_words(dfa, 4) == accepted_words(automaton, 4)
