"""Tests for the fused lazy product-emptiness engine.

The contract of :mod:`repro.afsa.lazy` is exact agreement with the
retired eager pipeline: for every negation-free operand pair, the
lazy verdict must equal ``start ∈ k_good_states(k_intersect(a, b))``
— including cyclic mandatory annotations (the greatest-fixpoint
shape) and empty-language operands — and for negated annotations it
must equal the documented dual-rail semantics,
``k_good_states_naive`` on the materialized product.  The eager
pipeline survives only as the independent test oracle
(:mod:`repro.afsa.oracle`).
"""

from hypothesis import given, settings, strategies as st

from repro.afsa.automaton import AFSA
from repro.afsa.emptiness import is_consistent, kernel_witness
from repro.afsa.kernel import (
    k_good_states,
    k_good_states_naive,
    k_intersect,
    kernel_of,
)
from repro.afsa.lazy import (
    VERDICTS,
    PairVerdictCache,
    pair_verdict,
    product_verdict,
)
from repro.afsa.oracle import eager_pair_witness
from repro.afsa.serialize import kernel_from_wire, kernel_to_wire
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_FAILURES,
    check_pair,
    sweep_choreography,
)
from repro.formula.ast import Not, Var
from repro.workload.generator import (
    generate_choreography,
    random_afsa,
    random_annotated_afsa,
)

_SEEDS = st.integers(min_value=0, max_value=10_000)
_SIZES = st.integers(min_value=2, max_value=14)


def _eager_verdict(left, right):
    """The eager oracle: materialized product + full good-set fixpoint."""
    product = k_intersect(kernel_of(left), kernel_of(right))
    return product.start in k_good_states(product)


def _eager_classical(left, right):
    product = k_intersect(kernel_of(left), kernel_of(right))
    return bool(product.reachable() & product.finals)


class TestLazyAgreesWithEagerOracle:
    @given(_SEEDS, _SIZES)
    @settings(max_examples=80, deadline=None)
    def test_random_pairs(self, seed, size):
        left = random_afsa(
            seed=seed, states=size, labels=5, annotation_probability=0.4
        )
        right = random_afsa(
            seed=seed + 7919, states=size, labels=5,
            annotation_probability=0.4,
        )
        lazy = product_verdict(kernel_of(left), kernel_of(right))
        assert lazy == _eager_verdict(left, right)

    @given(_SEEDS, st.integers(min_value=4, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_cyclic_mandatory_annotations(self, seed, size):
        """Tracking-loop gadgets: the annotation is only satisfiable
        under the greatest-fixpoint reading — the lazy bounds must not
        lose the cycle."""
        left = random_annotated_afsa(
            seed=seed, states=size, labels=4, loops=2,
            annotation_probability=0.5,
        )
        right = random_annotated_afsa(
            seed=seed + 131, states=size, labels=4, loops=2,
            annotation_probability=0.5,
        )
        lazy = product_verdict(kernel_of(left), kernel_of(right))
        assert lazy == _eager_verdict(left, right)

    @given(_SEEDS, _SIZES)
    @settings(max_examples=40, deadline=None)
    def test_classical_verdict(self, seed, size):
        left = random_afsa(seed=seed, states=size, labels=5)
        right = random_afsa(seed=seed + 37, states=size, labels=5)
        lazy = product_verdict(
            kernel_of(left), kernel_of(right), annotated=False
        )
        assert lazy == _eager_classical(left, right)

    def test_empty_language_operands(self):
        """Operands accepting nothing: no finals at all, and a final
        reachable only through an unsatisfiable annotation."""
        no_finals = AFSA(
            states=["q0", "q1"],
            transitions=[("q0", "X#Y#op0", "q1")],
            start="q0",
            finals=(),
            alphabet=["X#Y#op0"],
        )
        annotation_dead = AFSA(
            states=["q0", "q1"],
            transitions=[("q0", "X#Y#op0", "q1")],
            start="q0",
            finals=["q1"],
            annotations={"q0": Var("X#Y#unsupported")},
            alphabet=["X#Y#op0", "X#Y#unsupported"],
        )
        live = random_afsa(seed=3, states=6, labels=2,
                           label_pool=["X#Y#op0", "X#Y#op1"])
        for empty in (no_finals, annotation_dead):
            for other in (live, empty):
                lazy = product_verdict(kernel_of(empty), kernel_of(other))
                assert lazy == _eager_verdict(empty, other) is False
                lazy = product_verdict(kernel_of(other), kernel_of(empty))
                assert lazy == _eager_verdict(other, empty) is False
        # The annotation-dead operand is *classically* alive: the lazy
        # classical verdict must still see the structural completion.
        assert product_verdict(
            kernel_of(annotation_dead), kernel_of(annotation_dead),
            annotated=False,
        ) is True

    def test_negated_annotation_matches_naive_fixpoint(self):
        """The monotone bounds are only sound for negation-free
        formulas; with a ``NOT`` the engine switches to the dual-rail
        three-valued bounds, whose documented exact semantics is
        ``k_good_states_naive`` on the materialized product."""
        negated = AFSA(
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
        assert not kernel_of(negated).ann_profile()[2]
        for seed in range(6):
            other = random_afsa(
                seed=seed, states=6, labels=2,
                label_pool=["X#Y#op0", "X#Y#op1"],
            )
            product = k_intersect(kernel_of(negated), kernel_of(other))
            assert product_verdict(
                kernel_of(negated), kernel_of(other)
            ) == (product.start in k_good_states_naive(product))


class TestPairVerdictCache:
    def test_repeated_pair_hits_cache(self):
        left = random_afsa(seed=11, states=32, labels=6,
                           annotation_probability=0.3)
        right = random_afsa(seed=12, states=32, labels=6,
                            annotation_probability=0.3)
        kl, kr = kernel_of(left), kernel_of(right)
        first = pair_verdict(kl, kr)
        hits_before = VERDICTS.counters["cache_hits"]
        for _ in range(5):
            assert pair_verdict(kl, kr) == first
        hits_after = VERDICTS.counters["cache_hits"]
        assert hits_after - hits_before == 5

    def test_is_consistent_reuses_cache_across_calls(self):
        left = random_afsa(seed=21, states=16, labels=4)
        right = random_afsa(seed=22, states=16, labels=4)
        first = is_consistent(left, right)
        hits_before = VERDICTS.counters["cache_hits"]
        assert is_consistent(left, right) == first
        hits_after = VERDICTS.counters["cache_hits"]
        assert hits_after == hits_before + 1

    def test_direction_and_annotated_flag_are_distinct_keys(self):
        cache = PairVerdictCache(maxsize=8)
        left = kernel_of(random_afsa(seed=31, states=6, labels=3))
        right = kernel_of(random_afsa(seed=32, states=6, labels=3))
        cache.store(left, right, True, annotated=True)
        assert cache.lookup(right, left, annotated=True) is None
        assert cache.lookup(left, right, annotated=False) is None
        assert cache.lookup(left, right, annotated=True).consistent

    def test_lru_eviction_is_bounded(self):
        cache = PairVerdictCache(maxsize=3)
        kernels = [
            kernel_of(random_afsa(seed=40 + i, states=4, labels=2))
            for i in range(5)
        ]
        for kernel in kernels:
            cache.store(kernel, kernel, True)
        assert len(cache) == 3
        assert cache.lookup(kernels[0], kernels[0]) is None
        assert cache.lookup(kernels[-1], kernels[-1]) is not None

    def test_check_pair_caches_lazy_witness(self):
        """An inconsistent pair's witness is streamed from the lazy
        exploration once and then served from the cache."""
        for seed in range(20):
            left = random_afsa(seed=seed, states=10, labels=5,
                               annotation_probability=0.4)
            right = random_afsa(seed=seed + 101, states=10, labels=5,
                                annotation_probability=0.4)
            consistent, witness = check_pair(left, right, WITNESS_FAILURES)
            if consistent:
                continue
            assert witness is not None and witness.empty
            again_consistent, again = check_pair(
                left, right, WITNESS_FAILURES
            )
            assert not again_consistent
            assert again is witness  # served from the verdict entry
            oracle = eager_pair_witness(
                kernel_of(left), kernel_of(right)
            )
            assert witness.describe() == oracle.describe()
            break
        else:  # pragma: no cover - seeds above always mix verdicts
            raise AssertionError("no inconsistent pair found")

    def test_witness_all_policy_matches_oracle(self):
        left = random_afsa(seed=61, states=12, labels=4,
                           annotation_probability=0.4)
        right = random_afsa(seed=62, states=12, labels=4,
                            annotation_probability=0.4)
        consistent, witness = check_pair(left, right, WITNESS_ALL)
        oracle = eager_pair_witness(
            kernel_of(left), kernel_of(right)
        )
        assert witness.describe() == oracle.describe()
        assert consistent == (not oracle.empty)


class TestKernelWireFormat:
    def test_round_trip_preserves_checks(self):
        for seed in (1, 5, 9):
            automaton = random_afsa(
                seed=seed, states=12, labels=5, annotation_probability=0.4
            )
            kernel = kernel_of(automaton)
            rebuilt = kernel_from_wire(kernel_to_wire(kernel))
            assert rebuilt.n == kernel.n
            assert rebuilt.start == kernel.start
            assert rebuilt.names == kernel.names
            assert rebuilt.finals == kernel.finals
            assert rebuilt.adj == kernel.adj
            assert rebuilt.eps == kernel.eps
            assert rebuilt.alphabet_ids == kernel.alphabet_ids
            assert rebuilt.ann == kernel.ann
            assert k_good_states(rebuilt) == k_good_states(kernel)

    def test_round_trip_preserves_witnesses(self):
        left = kernel_of(random_afsa(seed=2, states=10, labels=4,
                                     annotation_probability=0.5))
        right = kernel_of(random_afsa(seed=103, states=10, labels=4,
                                      annotation_probability=0.5))
        direct = kernel_witness(k_intersect(left, right))
        rebuilt = kernel_witness(
            k_intersect(
                kernel_from_wire(kernel_to_wire(left)),
                kernel_from_wire(kernel_to_wire(right)),
            )
        )
        assert direct.describe() == rebuilt.describe()


class TestSweepCacheStats:
    def test_report_carries_hit_miss_delta(self):
        choreography = generate_choreography(seed=17, spokes=3, steps=3)
        cold = sweep_choreography(choreography)
        assert cold.consistent
        assert cold.cache_misses == len(cold.outcomes)
        warm = sweep_choreography(choreography)
        assert warm.cache_hits == len(warm.outcomes)
        assert warm.cache_misses == 0
        assert "pair-cache (serial):" in warm.describe()

    def test_verdicts_identical_cold_and_warm(self):
        choreography = generate_choreography(seed=23, spokes=2, steps=2)
        cold = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        warm = sweep_choreography(choreography, witnesses=WITNESS_ALL)
        assert [o.consistent for o in cold.outcomes] == [
            o.consistent for o in warm.outcomes
        ]
        assert [o.witness.describe() for o in cold.outcomes] == [
            o.witness.describe() for o in warm.outcomes
        ]
