"""Annotated Finite State Automata (aFSA) — Def. 2 of the paper.

An aFSA ``A = (Q, Σ, Δ, q0, F, QA)`` is a finite state automaton whose
states carry logical annotations over message variables.  Annotations
distinguish *mandatory* from *optional* messages: a conjunctive
annotation ``msg1 AND msg2`` at a state demands that a trading partner
support both messages from that state.

This package implements the full algebra the paper's change framework is
built on:

========================  ====================================================
:mod:`.automaton`         the aFSA type, builder, structural validation
:mod:`.kernel`            interned integer-dense kernel the algorithms run on
:mod:`.epsilon`           ε-closure and ε-elimination
:mod:`.determinize`       subset construction (annotations conjoined)
:mod:`.complete`          completion with a sink state (Def. 4 prerequisite)
:mod:`.product`           intersection (Def. 3)
:mod:`.difference`        difference (Def. 4)
:mod:`.union`             union (direct and De-Morgan constructions)
:mod:`.complement`        complement of the underlying FSA
:mod:`.emptiness`         annotated emptiness test / consistency (Sect. 3.2)
:mod:`.lazy`              fused on-the-fly product emptiness + verdict cache
:mod:`.minimize`          annotation-aware Moore minimization
:mod:`.language`          bounded language enumeration and membership
:mod:`.equivalence`       language equality / inclusion
:mod:`.view`              view generation τ_P (Sect. 3.4)
:mod:`.simulate`          conversation simulator (deadlock = inconsistency)
:mod:`.serialize`         JSON round-trip and DOT export
========================  ====================================================
"""

from repro.afsa.automaton import AFSA, AFSABuilder, Transition
from repro.afsa.kernel import Kernel, kernel_of, materialize
from repro.afsa.annotations import (
    strip_annotations,
    weaken_unsupported_annotations,
)
from repro.afsa.epsilon import epsilon_closure, remove_epsilon
from repro.afsa.metrics import AfsaMetrics, compute_metrics
from repro.afsa.prune import prune_dead_states
from repro.afsa.determinize import determinize, is_deterministic
from repro.afsa.complete import complete, is_complete
from repro.afsa.product import intersect
from repro.afsa.difference import difference
from repro.afsa.union import union, union_de_morgan
from repro.afsa.complement import complement
from repro.afsa.emptiness import (
    EmptinessWitness,
    good_states,
    is_consistent,
    is_empty,
    non_emptiness_witness,
)
from repro.afsa.lazy import PairVerdictCache, pair_verdict, product_verdict
from repro.afsa.minimize import minimize
from repro.afsa.language import (
    accepted_words,
    accepts,
    annotated_accepts,
    enumerate_language,
)
from repro.afsa.equivalence import (
    language_equal,
    language_included,
    language_equal_bounded,
)
from repro.afsa.view import project_view
from repro.afsa.simulate import ConversationResult, simulate_conversation
from repro.afsa.serialize import (
    afsa_from_dict,
    afsa_from_json,
    afsa_to_dict,
    afsa_to_dot,
    afsa_to_json,
)

__all__ = [
    "AFSA",
    "AFSABuilder",
    "ConversationResult",
    "EmptinessWitness",
    "Kernel",
    "Transition",
    "AfsaMetrics",
    "accepted_words",
    "accepts",
    "afsa_from_dict",
    "afsa_from_json",
    "afsa_to_dict",
    "afsa_to_dot",
    "afsa_to_json",
    "annotated_accepts",
    "complement",
    "compute_metrics",
    "complete",
    "determinize",
    "difference",
    "enumerate_language",
    "epsilon_closure",
    "good_states",
    "intersect",
    "is_complete",
    "is_consistent",
    "is_deterministic",
    "is_empty",
    "kernel_of",
    "language_equal",
    "language_equal_bounded",
    "language_included",
    "materialize",
    "minimize",
    "non_emptiness_witness",
    "pair_verdict",
    "PairVerdictCache",
    "product_verdict",
    "project_view",
    "prune_dead_states",
    "remove_epsilon",
    "simulate_conversation",
    "strip_annotations",
    "union",
    "union_de_morgan",
    "weaken_unsupported_annotations",
]
