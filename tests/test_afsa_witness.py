"""Property suite for the streaming witness extractor.

The canonical witness form is defined once, in
:mod:`repro.afsa.witness`; :mod:`repro.afsa.oracle` recomputes it
from the materialized eager product.  The contract pinned down here:

* lazy witnesses are byte-identical to the oracle's — word, path,
  blocked states and missing variables — on random pairs, cyclic
  mandatory annotations, and negated annotations;
* non-empty lazy witnesses are additionally byte-identical to the
  *retired* eager form (``kernel_witness`` over the full product) —
  the non-empty canonical form did not migrate;
* negated-annotation verdicts equal ``k_good_states_naive`` on the
  materialized product (the documented dual-rail semantics);
* an evolution of either operand (warm-seeded exploration) never
  serves a stale witness;
* worker fan-out never changes a witness, and the witness-path
  counters surface in :class:`SweepReport` with zero eager-oracle
  invocations on every production path.
"""

from hypothesis import given, settings, strategies as st

from regimes import FAN_OUT, scheduler
from repro.afsa.automaton import AFSA
from repro.afsa.emptiness import kernel_witness
from repro.afsa.kernel import (
    k_good_states_naive,
    k_intersect,
    kernel_of,
)
from repro.afsa.lazy import (
    VERDICTS,
    clear_warm_state,
    note_lineage,
    pair_verdict,
    product_verdict,
    warm_stats,
)
from repro.afsa.oracle import eager_pair_witness
from repro.afsa.serialize import afsa_from_dict
from repro.afsa.witness import lazy_pair_witness
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_FAILURES,
    sweep_choreography,
    sweep_pairs,
)
from repro.formula.ast import Not, Var
from repro.workload.generator import (
    generate_choreography,
    random_afsa,
    random_annotated_afsa,
)

_SEEDS = st.integers(min_value=0, max_value=10_000)


def _mutate(afsa: AFSA, seed: int) -> AFSA:
    """One localized evolution step: retarget or drop one transition
    (the shape :func:`repro.afsa.lazy.note_lineage` warm starts are
    designed for)."""
    import random

    rng = random.Random(seed)
    transitions = [t.as_tuple() for t in afsa.transitions]
    index = rng.randrange(len(transitions))
    if rng.random() < 0.4 and len(transitions) > 1:
        del transitions[index]
    else:
        source, label, _ = transitions[index]
        states = sorted(afsa.states, key=repr)
        transitions[index] = (source, label, rng.choice(states))
    return AFSA(
        states=afsa.states,
        transitions=transitions,
        start=afsa.start,
        finals=afsa.finals,
        annotations=dict(afsa.annotations),
        alphabet=[str(label) for label in afsa.alphabet],
        name=f"{afsa.name}-v2",
    )


def _assert_identical(lazy, oracle):
    assert lazy.empty == oracle.empty
    assert lazy.word == oracle.word
    assert lazy.path == oracle.path
    assert lazy.blocked_states == oracle.blocked_states
    assert lazy.missing_variables == oracle.missing_variables
    assert lazy.describe() == oracle.describe()


class TestLazyWitnessMatchesOracle:
    @given(_SEEDS, st.integers(min_value=2, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_random_pairs(self, seed, size):
        left = kernel_of(random_afsa(
            seed=seed, states=size, labels=5, annotation_probability=0.4
        ))
        right = kernel_of(random_afsa(
            seed=seed + 7919, states=size, labels=5,
            annotation_probability=0.4,
        ))
        lazy = lazy_pair_witness(left, right)
        _assert_identical(lazy, eager_pair_witness(left, right))
        if not lazy.empty:
            # The non-empty canonical form did not migrate: it is the
            # retired eager pipeline's witness, byte for byte.
            old = kernel_witness(k_intersect(left, right))
            assert lazy.word == old.word
            assert lazy.path == old.path

    @given(_SEEDS, st.integers(min_value=4, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_mandatory_annotations(self, seed, size):
        left = kernel_of(random_annotated_afsa(
            seed=seed, states=size, labels=4, loops=2,
            annotation_probability=0.5,
        ))
        right = kernel_of(random_annotated_afsa(
            seed=seed + 131, states=size, labels=4, loops=2,
            annotation_probability=0.5,
        ))
        _assert_identical(
            lazy_pair_witness(left, right),
            eager_pair_witness(left, right),
        )

    def test_witness_is_memoized_on_the_exploration(self):
        left = kernel_of(random_afsa(seed=401, states=12, labels=5,
                                     annotation_probability=0.4))
        right = kernel_of(random_afsa(seed=502, states=12, labels=5,
                                      annotation_probability=0.4))
        clear_warm_state()
        first = lazy_pair_witness(left, right)
        extracted = warm_stats()["witness_lazy"]
        assert lazy_pair_witness(left, right) is first
        assert warm_stats()["witness_lazy"] == extracted


class TestNegatedAnnotations:
    def _negated(self):
        return AFSA(
            states=["q0", "q1", "q2"],
            transitions=[
                ("q0", "X#Y#op0", "q1"),
                ("q0", "X#Y#op1", "q2"),
            ],
            start="q0",
            finals=["q1", "q2"],
            annotations={"q0": Not(Var("X#Y#nothere"))},
            alphabet=["X#Y#op0", "X#Y#op1", "X#Y#nothere"],
        )

    def test_verdicts_match_naive_fixpoint(self):
        negated = kernel_of(self._negated())
        assert not negated.ann_profile()[2]
        for seed in range(10):
            other = kernel_of(random_afsa(
                seed=seed, states=8, labels=2,
                label_pool=["X#Y#op0", "X#Y#op1"],
            ))
            product = k_intersect(negated, other)
            assert product_verdict(negated, other) == (
                product.start in k_good_states_naive(product)
            )

    def test_witnesses_match_oracle(self):
        negated = kernel_of(self._negated())
        for seed in range(10):
            other = kernel_of(random_afsa(
                seed=seed, states=8, labels=2,
                label_pool=["X#Y#op0", "X#Y#op1"],
            ))
            _assert_identical(
                lazy_pair_witness(negated, other),
                eager_pair_witness(negated, other),
            )


class TestWitnessAcrossEvolution:
    @given(_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_either_operand_evolution_never_serves_stale(self, seed):
        """A warm-seeded post-evolution exploration starts with no
        witness memo: re-extraction must match the cold oracle for an
        evolution of either operand."""
        clear_warm_state()
        left = random_afsa(seed=2 * seed, states=12, labels=5,
                           annotation_probability=0.4)
        right = random_afsa(seed=2 * seed + 1, states=12, labels=5,
                            annotation_probability=0.4)
        left_kernel = kernel_of(left)
        right_kernel = kernel_of(right)
        # Decide + extract on the old pair so the retained exploration
        # carries a witness memo the seeding must not inherit.
        pair_verdict(left_kernel, right_kernel)
        lazy_pair_witness(left_kernel, right_kernel)
        if seed % 2:
            evolved_kernel = kernel_of(_mutate(left, seed))
            note_lineage(left_kernel, evolved_kernel)
            pair = (evolved_kernel, right_kernel)
        else:
            evolved_kernel = kernel_of(_mutate(right, seed))
            note_lineage(right_kernel, evolved_kernel)
            pair = (left_kernel, evolved_kernel)
        pair_verdict(*pair)  # possibly warm-seeded
        warm = lazy_pair_witness(*pair)
        _assert_identical(warm, eager_pair_witness(*pair))
        clear_warm_state()

    def test_boundary_support_stays_inside_the_diagnosed_region(self):
        """An empty pair whose warm-seeded exploration still holds good
        pairs the evolved product no longer reaches: a boundary pair's
        support must come from the recomputed region only, or the
        report names too few missing messages for ``(q4, q7)``."""
        clear_warm_state()
        left = kernel_of(_automaton(
            "q0", "q10 q2 q5",
            {"q1": "op1 AND op3", "q2": "op3 AND op0", "q3": "op3",
             "q4": "op1 AND op0", "q5": "op4", "q6": "op3"},
            "q0 op1 q8, q0 op3 q1, q0 op4 q2, q0 op4 q7, q1 op1 q8, "
            "q1 op3 q2, q10 op2 q2, q10 op2 q9, q11 op0 q4, q11 op1 q7, "
            "q11 op4 q5, q11 op4 q8, q2 op0 q11, q2 op1 q4, q2 op1 q8, "
            "q2 op3 q5, q2 op4 q3, q3 op1 q1, q3 op1 q4, q3 op3 q10, "
            "q4 op0 q10, q4 op0 q6, q4 op1 q6, q5 op4 q7, q6 op3 q6, "
            "q7 op3 q11, q7 op4 q5, q8 op3 q7, q8 op4 q9",
        ))
        right_transitions = (
            "q0 op3 q2, q0 op3 q3, q0 op3 q5, q0 op4 q1, q0 op4 q5, "
            "q1 op2 q3, q1 op3 q4, q1 op4 q10, q1 op4 q8, q10 op2 q11, "
            "q10 op3 q2, q10 op4 q0, q11 op0 q2, q2 op4 q11, q3 op1 q0, "
            "q3 op2 q4, q4 op1 q5, q4 op4 q5, q5 op0 q6, q5 op0 q7, "
            "q5 op2 q0, q6 op3 q3, q6 op4 q9, q7 op0 q4, q7 op0 q8, "
            "q7 op1 q4, q8 op2 q11, q8 op4 q4, q9 op3 q10"
        )
        right_annotations = {
            "q10": "op4", "q3": "op2 AND op1", "q6": "op3", "q9": "op3",
        }
        right = kernel_of(_automaton(
            "q0", "q4 q8 q9", right_annotations, right_transitions,
        ))
        evolved = kernel_of(_automaton(
            "q0", "q4 q8 q9", right_annotations,
            right_transitions.replace("q7 op1 q4, ", ""),
        ))
        pair_verdict(left, right)
        lazy_pair_witness(left, right)
        note_lineage(right, evolved)
        before = warm_stats()
        assert pair_verdict(left, evolved) is False
        warm = lazy_pair_witness(left, evolved)
        oracle = eager_pair_witness(left, evolved)
        assert oracle.missing_variables[("q4", "q7")] == [
            "X#Y#op0", "X#Y#op1",
        ]
        _assert_identical(warm, oracle)
        # The instance pins the seeded path: a cold exploration passes.
        assert warm_stats()["warm_seeded"] == before["warm_seeded"] + 1
        clear_warm_state()


def _automaton(start, finals, annotations, transitions):
    """An automaton over the labels ``X#Y#op0`` … ``X#Y#op4`` from a
    compact spelling: space-separated finals, annotations and
    comma-separated ``source op target`` transitions with the label
    prefix left out."""
    prefix = "X#Y#"
    edges = [edge.split() for edge in transitions.split(", ")]
    return afsa_from_dict({
        "states": sorted(
            {source for source, _, _ in edges}
            | {target for _, _, target in edges}
            | set(annotations) | set(finals.split()) | {start}
        ),
        "transitions": [
            (source, prefix + label, target)
            for source, label, target in edges
        ],
        "start": start,
        "finals": finals.split(),
        "annotations": {
            state: " AND ".join(prefix + term for term in text.split(" AND "))
            for state, text in annotations.items()
        },
        "alphabet": [f"{prefix}op{index}" for index in range(5)],
    })


def _mixed_kernel_grid():
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
        for consistent, _ in sweep_pairs(pairs, witnesses="none")
    }
    assert verdicts == {True, False}
    return pairs


class TestWitnessCountersAndWorkers:
    def test_workers_1_and_4_extract_identical_witnesses(self):
        pairs = _mixed_kernel_grid()
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL, workers=1)
        with scheduler(**FAN_OUT):
            fanned = sweep_pairs(pairs, witnesses=WITNESS_ALL, workers=4)
        for (s_ok, s_wit), (f_ok, f_wit) in zip(serial, fanned):
            assert s_ok == f_ok
            _assert_identical(s_wit, f_wit)

    def test_sweep_report_surfaces_witness_counters(self):
        clear_warm_state()
        VERDICTS.clear()
        choreography = generate_choreography(seed=23, spokes=2, steps=2)
        report = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        assert report.witness_lazy == len(report.outcomes)
        assert report.eager_oracle == 0
        assert "witness-path:" in report.describe()
        assert "0 eager-oracle call(s)" in report.describe()
        # A repeated sweep serves every witness from the cache.
        again = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        assert again.witness_lazy == 0
        assert "witness-path:" not in again.describe()

    def test_no_eager_oracle_invocations_on_production_paths(self):
        """The acceptance criterion: the eager pipeline is test-only.
        Verdicts, witnesses (both policies), and fan-out sweeps must
        leave the ``eager_oracle`` counter untouched."""
        clear_warm_state()
        VERDICTS.clear()
        before = warm_stats()["eager_oracle"]
        pairs = _mixed_kernel_grid()
        sweep_pairs(pairs, witnesses=WITNESS_FAILURES)
        with scheduler(**FAN_OUT):
            sweep_pairs(pairs, witnesses=WITNESS_ALL, workers=2)
        choreography = generate_choreography(seed=17, spokes=3, steps=3)
        sweep_choreography(choreography, witnesses=WITNESS_ALL)
        assert warm_stats()["eager_oracle"] == before
