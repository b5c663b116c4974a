"""The front end on the kernel is byte-identical to the reference chain.

τ_P (:func:`repro.afsa.view.project_view`), compilation
(:func:`repro.bpel.compile.compile_process`) and propagation's bilateral
base run on one kernel path: :func:`~repro.afsa.kernel.k_project`, the
survivors-only :func:`~repro.afsa.kernel.k_remove_epsilon`, and the
sparse Moore refinement with its origins report
(:func:`~repro.afsa.kernel.k_minimize_with_origins`).  The served
benchmark's reference calls the same functions as the server, so it
cannot catch a bug here; this suite pins every output against the chain
they replaced (``tests/front_end_oracle.py``): ``afsa_to_json`` of
views, raw and public automata, and sorted mapping tables.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from front_end_oracle import (
    minimize_dense,
    reference_bilateral_base,
    reference_compile,
    reference_view,
    remove_epsilon_every_state,
    state_correspondence,
)
from repro.afsa.automaton import AFSA
from repro.afsa.kernel import (
    k_minimize,
    k_minimize_with_origins,
    k_remove_epsilon,
    kernel_of,
)
from repro.afsa.minimize import minimize
from repro.afsa.serialize import afsa_to_json
from repro.afsa.view import project_view
from repro.bpel.compile import (
    ANNOTATE_ALL_CHOICES,
    ANNOTATE_NONE,
    ANNOTATE_SWITCH_ONLY,
    compile_process,
)
from repro.core.propagate import _bilateral_base
from repro.formula.ast import Not, Or, Var, all_of
from repro.scenario import procurement
from repro.workload.generator import (
    generate_choreography,
    generate_partner_pair,
)

POLICIES = (ANNOTATE_SWITCH_ONLY, ANNOTATE_ALL_CHOICES, ANNOTATE_NONE)

PAPER_PROCESSES = (
    "buyer_private",
    "accounting_private",
    "logistics_private",
    "accounting_private_invariant_change",
    "accounting_private_variant_change",
    "accounting_private_subtractive_change",
    "buyer_private_after_additive_propagation",
    "buyer_private_after_subtractive_propagation",
)


def _table(mapping) -> list:
    return sorted(
        (repr(state), mapping.paths_for_state(state))
        for state in mapping.states()
    )


def _assert_compiled_identical(process, policy):
    compiled = compile_process(process, policy=policy)
    reference = reference_compile(process, policy)
    assert afsa_to_json(compiled.raw) == afsa_to_json(reference.raw)
    assert afsa_to_json(compiled.afsa) == afsa_to_json(reference.afsa)
    assert _table(compiled.mapping) == _table(reference.mapping)
    assert _table(compiled.raw_mapping) == _table(reference.raw_mapping)
    assert compiled.correspondence == reference.correspondence
    assert list(compiled.correspondence) == list(reference.correspondence)
    return compiled


def _assert_views_identical(public, partners):
    for partner in sorted(partners):
        for minimized in (True, False):
            assert afsa_to_json(
                project_view(public, partner, minimize=minimized)
            ) == afsa_to_json(
                reference_view(public, partner, minimize=minimized)
            ), (partner, minimized)


def _assert_bilateral_identical(compiled, partners):
    for partner in sorted(partners):
        view, mapping = _bilateral_base(compiled, partner)
        ref_view, ref_mapping = reference_bilateral_base(compiled, partner)
        assert afsa_to_json(view) == afsa_to_json(ref_view)
        assert _table(mapping) == _table(ref_mapping)
        assert list(mapping._entries) == list(ref_mapping._entries)


def _partners(compiled) -> set:
    return compiled.afsa.alphabet.partners() - {compiled.process.party}


class TestGeneratedProcesses:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        steps=st.integers(1, 16),
        with_loop=st.booleans(),
        choice=st.sampled_from([0.0, 0.3, 0.7]),
        policy=st.sampled_from(POLICIES),
    )
    def test_partner_pair_compile_views_and_base(
        self, seed, steps, with_loop, choice, policy
    ):
        for process in generate_partner_pair(
            seed=seed,
            steps=steps,
            with_loop=with_loop,
            choice_probability=choice,
        ):
            compiled = _assert_compiled_identical(process, policy)
            partners = _partners(compiled) | {process.party, "Z"}
            _assert_views_identical(compiled.afsa, partners)
            _assert_bilateral_identical(compiled, partners)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        spokes=st.integers(2, 6),
        steps=st.integers(1, 5),
        policy=st.sampled_from(POLICIES),
    )
    def test_choreography_hub_and_spokes(self, seed, spokes, steps, policy):
        choreography = generate_choreography(
            seed=seed, spokes=spokes, steps=steps
        )
        for party in choreography.parties():
            compiled = _assert_compiled_identical(
                choreography.private(party), policy
            )
            partners = _partners(compiled)
            _assert_views_identical(compiled.afsa, partners)
            _assert_bilateral_identical(compiled, partners)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", PAPER_PROCESSES)
def test_paper_processes(name, policy):
    compiled = _assert_compiled_identical(
        getattr(procurement, name)(), policy
    )
    partners = _partners(compiled)
    _assert_views_identical(compiled.afsa, partners)
    _assert_bilateral_identical(compiled, partners)


# -- random ε-heavy automata -------------------------------------------------

LABELS = ("A#B#m0", "B#A#m1", "A#C#m2", "C#D#m3")


@st.composite
def epsilon_heavy(draw):
    """A random automaton whose transitions are mostly ε-moves, with
    annotations over own and foreign labels (conjunctions, plus some
    disjunctions and negations) and int or string state names."""
    n = draw(st.integers(1, 28))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        states = list(range(n))
    else:
        states = [f"s{index}" for index in range(n)]
    transitions = []
    for source in states:
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(states)
            label = "" if rng.random() < 0.65 else rng.choice(LABELS)
            transitions.append((source, label, target))
    annotations = {}
    for state in states:
        if rng.random() < 0.35:
            chosen = rng.sample(LABELS, rng.randint(1, 3))
            formula = all_of(Var(label) for label in chosen)
            roll = rng.random()
            if roll < 0.15:
                formula = Or(formula, Var(rng.choice(LABELS)))
            elif roll < 0.25:
                formula = Not(formula)
            annotations[state] = formula
    return AFSA(
        states=states,
        transitions=transitions,
        start=states[0],
        finals=[state for state in states if rng.random() < 0.3],
        annotations=annotations,
        alphabet=LABELS,
        name="eps-heavy",
    )


def _kernel_fields(kernel) -> tuple:
    return (
        kernel.n,
        kernel.start,
        list(kernel.names),
        kernel.finals,
        list(kernel.ann.items()),
        [list(row.items()) for row in kernel.adj],
        list(kernel.eps),
        kernel.alphabet_ids,
    )


class TestEpsilonHeavyKernels:
    @settings(max_examples=150, deadline=None)
    @given(automaton=epsilon_heavy())
    def test_survivors_only_epsilon_removal_matches_every_state(
        self, automaton
    ):
        kernel = kernel_of(automaton)
        assert _kernel_fields(k_remove_epsilon(kernel)) == _kernel_fields(
            remove_epsilon_every_state(kernel)
        )

    @settings(max_examples=100, deadline=None)
    @given(automaton=epsilon_heavy())
    def test_sparse_minimize_matches_dense(self, automaton):
        kernel = kernel_of(automaton)
        assert _kernel_fields(k_minimize(kernel)) == _kernel_fields(
            minimize_dense(kernel)
        )

    @settings(max_examples=100, deadline=None)
    @given(automaton=epsilon_heavy())
    def test_origins_match_lockstep_correspondence(self, automaton):
        kernel = kernel_of(automaton)
        reduced, origins = k_minimize_with_origins(kernel)
        by_name = {
            reduced.names[index]: {kernel.names[state] for state in states}
            for index, states in enumerate(origins)
        }
        lockstep = state_correspondence(automaton, minimize(automaton))
        assert by_name == lockstep
        assert list(by_name) == list(lockstep)

    @settings(max_examples=100, deadline=None)
    @given(
        automaton=epsilon_heavy(),
        partner=st.sampled_from(["A", "B", "C", "Z"]),
    )
    def test_views_match_reference(self, automaton, partner):
        _assert_views_identical(automaton, {partner})
