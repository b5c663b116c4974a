"""The lazy Fig. 4 evolution step agrees with the eager constructions.

Classification (Defs. 5/6 and the Sect. 4.2 protocol-equivalence test)
answers emptiness questions without building automata, and propagation
(Sect. 5.2/5.3 steps 1-2) runs fused on the kernel.  Each is pinned
here against the eager pipeline it replaced, written out with the
public operators, on random, cyclic-mandatory and negated annotations:

* additive/subtractive equal ``not is_empty(difference(...),
  annotated=False)``;
* variance equals ``not eager_pair_verdict(...)`` and ``not
  is_consistent(...)`` on the same operands — for negated annotations
  that is the documented ``k_good_states_naive`` semantics;
* ``protocol_equivalent`` equals ``(A \\ A') ∩ B = ∅ ∧ (A' \\ A) ∩ B
  = ∅``;
* fused propagation yields a ``difference``, ``proposed_public``,
  ``deltas`` and suggestions byte-identical to the old chain.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.afsa.annotations import (
    strip_annotations,
    weaken_unsupported_annotations,
)
from repro.afsa.automaton import AFSA, AFSABuilder
from repro.afsa.difference import difference
from repro.afsa.emptiness import is_consistent, is_empty
from repro.afsa.epsilon import remove_epsilon
from repro.afsa.kernel import kernel_of
from repro.afsa.minimize import minimize
from repro.afsa.oracle import eager_pair_verdict
from repro.afsa.product import intersect
from repro.afsa.prune import prune_dead_states
from repro.afsa.serialize import afsa_to_json
from repro.afsa.union import union
from repro.bpel.compile import compile_process
from repro.core.classify import classify_against_partner, classify_change
from repro.core.propagate import (
    ADDED,
    REMOVED,
    propagate_additive,
    propagate_subtractive,
    transition_deltas,
)
from repro.core.suggestions import derive_suggestions
from repro.errors import ChangeError
from repro.scenario.procurement import ACCOUNTING, BUYER
from repro.formula.ast import And, Not, Var
from repro.workload.generator import (
    generate_partner_pair,
    random_afsa,
    random_annotated_afsa,
)
from repro.workload.mutations import (
    inject_invariant_additive,
    inject_variant_additive,
    inject_variant_subtractive,
)

_SEEDS = st.integers(min_value=0, max_value=10_000)
_SIZES = st.integers(min_value=2, max_value=12)
_SHAPES = st.sampled_from(("random", "cyclic", "negated"))


def _negate_some(afsa: AFSA, seed: int) -> AFSA:
    """Give some states a negated conjunct (``… ∧ ¬x``)."""
    rng = random.Random(seed)
    labels = sorted(str(label) for label in afsa.alphabet)
    annotations = dict(afsa.annotations)
    for state in sorted(afsa.states, key=repr):
        if rng.random() < 0.35:
            negated = Not(Var(rng.choice(labels)))
            current = annotations.get(state)
            annotations[state] = (
                negated if current is None else And(current, negated)
            )
    return AFSA(
        states=afsa.states,
        transitions=[t.as_tuple() for t in afsa.transitions],
        start=afsa.start,
        finals=afsa.finals,
        annotations=annotations,
        alphabet=[str(label) for label in afsa.alphabet],
        name=afsa.name,
    )


def _automaton(shape: str, seed: int, size: int) -> AFSA:
    if shape == "cyclic":
        return random_annotated_afsa(
            seed=seed, states=size, labels=3, loops=1,
            annotation_probability=0.4,
        )
    base = random_afsa(
        seed=seed, states=size, labels=3, annotation_probability=0.4
    )
    return _negate_some(base, seed) if shape == "negated" else base


def _evolve(afsa: AFSA, seed: int) -> AFSA:
    """A nearby version: drop, retarget or add one transition, or flip
    one final — so inclusion goes both ways often enough."""
    rng = random.Random(seed)
    transitions = [t.as_tuple() for t in afsa.transitions]
    states = sorted(afsa.states, key=repr)
    finals = set(afsa.finals)
    move = rng.randrange(4)
    if move == 0 and len(transitions) > 1:
        del transitions[rng.randrange(len(transitions))]
    elif move == 1 and transitions:
        index = rng.randrange(len(transitions))
        source, label, _ = transitions[index]
        transitions[index] = (source, label, rng.choice(states))
    elif move == 2:
        label = rng.choice(sorted(str(label) for label in afsa.alphabet))
        transitions.append((rng.choice(states), label, rng.choice(states)))
    else:
        finals ^= {rng.choice(states)}
    return AFSA(
        states=afsa.states,
        transitions=transitions,
        start=afsa.start,
        finals=finals,
        annotations=dict(afsa.annotations),
        alphabet=[str(label) for label in afsa.alphabet],
        name=f"{afsa.name}'",
    )


def _operands(shape, seed, size):
    """``(A, A', B)``: a version, a nearby successor, and a partner that
    is either another nearby version (mostly consistent) or unrelated
    (mostly not)."""
    old = _automaton(shape, seed, size)
    new = _evolve(old, seed + 1)
    if seed % 2:
        partner = _evolve(old, seed + 2)
    else:
        partner = _automaton(shape, seed + 7919, size)
    return old, new, partner


class TestClassificationAgreesWithEagerDifferences:
    @given(_SHAPES, _SEEDS, _SIZES)
    @settings(max_examples=120, deadline=None)
    def test_framework(self, shape, seed, size):
        old, new, _ = _operands(shape, seed, size)
        classification = classify_change(old, new)
        assert classification.additive == (
            not is_empty(difference(new, old), annotated=False)
        )
        assert classification.subtractive == (
            not is_empty(difference(old, new), annotated=False)
        )

    @given(_SHAPES, _SEEDS, _SIZES)
    @settings(max_examples=120, deadline=None)
    def test_variance(self, shape, seed, size):
        old, new, partner = _operands(shape, seed, size)
        classification = classify_against_partner(old, new, partner)
        assert classification.variant == (
            not eager_pair_verdict(kernel_of(new), kernel_of(partner))
        )
        assert classification.variant == (not is_consistent(new, partner))

    @given(_SHAPES, _SEEDS, _SIZES)
    @settings(max_examples=120, deadline=None)
    def test_protocol_equivalent(self, shape, seed, size):
        old, new, partner = _operands(shape, seed, size)
        eager = is_empty(
            intersect(difference(old, new), partner), annotated=False
        ) and is_empty(
            intersect(difference(new, old), partner), annotated=False
        )
        classification = classify_change(old, new)
        assert classification.protocol_equivalent(partner) == eager


def _builder_union(left: AFSA, right: AFSA) -> AFSA:
    """The direct union as it was built before the kernel construction:
    tagged operand states, a fresh ε-start, then ε-elimination."""
    builder = AFSABuilder(name=f"({left.name} ∪ {right.name})")
    fresh_start = ("∪", "start")
    builder.set_start(fresh_start)
    for tag, operand in ((0, left), (1, right)):
        for transition in operand.transitions:
            builder.add_transition(
                (tag, transition.source),
                transition.label,
                (tag, transition.target),
            )
        for state in operand.states:
            builder.add_state((tag, state))
        for state in operand.finals:
            builder.mark_final((tag, state))
        for state, formula in operand.annotations.items():
            builder.annotate((tag, state), formula)
        builder.add_epsilon(fresh_start, (tag, operand.start))
        builder.extend_alphabet(operand.alphabet)
    return remove_epsilon(builder.build())


def _assert_same_automaton(got: AFSA, want: AFSA) -> None:
    assert afsa_to_json(got) == afsa_to_json(want)
    assert got == want


class TestKernelChainsMatchPublicOperators:
    @given(_SHAPES, _SEEDS, _SIZES)
    @settings(max_examples=80, deadline=None)
    def test_union(self, shape, seed, size):
        left = _automaton(shape, seed, size)
        right = _automaton(shape, seed + 31, size)
        _assert_same_automaton(union(left, right), _builder_union(left, right))
        _assert_same_automaton(
            minimize(union(left, right)),
            minimize(_builder_union(left, right)),
        )


_INJECTORS = {
    ADDED: (inject_variant_additive, inject_invariant_additive),
    REMOVED: (inject_variant_subtractive,),
}


def _scenario(seed: int, steps: int, kind: str):
    """A generated partner pair and one change of *kind* to one side,
    compiled: ``(new public, opponent compiled, opponent, originator)``
    — or None when no change pattern applies."""
    rng = random.Random(seed)
    pair = generate_partner_pair(seed=seed, steps=steps, with_loop=True)
    for injector in _INJECTORS[kind]:
        for index in rng.sample(range(2), 2):
            originator, opponent = pair[index], pair[1 - index]
            try:
                change, _ = injector(originator, seed=seed)
            except ChangeError:
                continue
            new_public = compile_process(change.apply(originator)).afsa
            return (
                new_public,
                compile_process(opponent),
                opponent.party,
                originator.party,
            )
    return None


def _old_additive(result):
    view, base = result.originator_view, result.opponent_public
    added = minimize(
        prune_dead_states(strip_annotations(difference(view, base)))
    ).with_name("A'' (added sequences)")
    proposal = minimize(_builder_union(added, base)).with_name(
        f"{base.name}'"
    )
    deltas = [
        delta
        for delta in transition_deltas(base, proposal)
        if delta.kind == ADDED
    ]
    return added, proposal, deltas


def _old_subtractive(result):
    view, base = result.originator_view, result.opponent_public
    removed = minimize(
        prune_dead_states(strip_annotations(difference(base, view)))
    ).with_name("A'' (removed sequences)")
    proposal = weaken_unsupported_annotations(
        minimize(prune_dead_states(difference(base, removed)))
    ).with_name(f"{base.name}'")
    deltas = [
        delta
        for delta in transition_deltas(base, proposal)
        if delta.kind == REMOVED
    ]
    return removed, proposal, deltas


def _suggestions(opponent, result) -> list:
    return [
        (
            suggestion.description,
            suggestion.executable,
            suggestion.operation.describe() if suggestion.operation else None,
        )
        for suggestion in derive_suggestions(opponent, result)
    ]


def _assert_matches_old_chain(result, opponent, old_chain) -> None:
    difference_old, proposal_old, deltas_old = old_chain
    _assert_same_automaton(result.difference, difference_old)
    _assert_same_automaton(result.proposed_public, proposal_old)
    assert result.deltas == deltas_old
    old = replace(
        result,
        difference=difference_old,
        proposed_public=proposal_old,
        deltas=deltas_old,
    )
    assert _suggestions(opponent, result) == _suggestions(opponent, old)
    assert result.consistent_after == is_consistent(
        result.originator_view, proposal_old
    )


class TestFusedPropagationMatchesOldChain:
    @given(_SEEDS, st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_additive(self, seed, steps):
        scenario = _scenario(seed, steps, ADDED)
        if scenario is None:
            return
        new_public, opponent, party, originator = scenario
        result = propagate_additive(
            new_public, opponent, party, originator_party=originator
        )
        _assert_matches_old_chain(result, opponent, _old_additive(result))

    @given(_SEEDS, st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_subtractive(self, seed, steps):
        scenario = _scenario(seed, steps, REMOVED)
        if scenario is None:
            return
        new_public, opponent, party, originator = scenario
        result = propagate_subtractive(
            new_public, opponent, party, originator_party=originator
        )
        _assert_matches_old_chain(
            result, opponent, _old_subtractive(result)
        )

    @pytest.mark.parametrize(
        "change, propagate, old_chain",
        [
            ("accounting_variant_compiled", propagate_additive,
             _old_additive),
            ("accounting_subtractive_compiled", propagate_subtractive,
             _old_subtractive),
        ],
    )
    def test_paper_scenarios(
        self, request, buyer_compiled, change, propagate, old_chain
    ):
        """Figs. 13/14 and 17/18: the paper's own propagations."""
        new_public = request.getfixturevalue(change).afsa
        result = propagate(
            new_public, buyer_compiled, BUYER, originator_party=ACCOUNTING
        )
        assert result.deltas
        _assert_matches_old_chain(result, buyer_compiled, old_chain(result))
