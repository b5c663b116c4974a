"""aFSA union.

Step "ad 2" of additive propagation (Sect. 5.2) grafts the newly
introduced message sequences onto the partner's public process:
``B' := A'' ∪ B``.  The paper constructs the union via De Morgan
(``A ∪ B ≡ ¬(¬A ∩ ¬B)``); we provide that construction
(:func:`union_de_morgan`) for fidelity, but default to the direct
construction (:func:`union`) — a fresh start state with ε-moves into both
operands — because it *preserves annotations* of both operands, which the
complement-based route cannot (complement is only defined on the
unannotated language; see :mod:`repro.afsa.complement`).

Both constructions accept exactly ``L(A) ∪ L(B)``; the property-based
test suite checks them against each other on random automata.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.complement import complement
from repro.afsa.kernel import (
    k_remove_epsilon,
    k_union,
    kernel_of,
    materialize,
)
from repro.afsa.product import intersect


def union(left: AFSA, right: AFSA, name: str = "") -> AFSA:
    """Return the direct (annotation-preserving) union of two aFSAs.

    States of the operands are tagged with ``0``/``1`` to keep them
    disjoint; a fresh start state ``("∪", "start")`` reaches both via ε,
    and the result is ε-eliminated — built on the kernel
    (:func:`~repro.afsa.kernel.k_union`) and materialized once.
    Annotations are carried over per branch (the fresh start inherits
    the conjunction of both start annotations through ε-elimination — a
    requirement both alternatives impose is imposed by the union as
    well).
    """
    if not name:
        left_name = left.name or "A"
        right_name = right.name or "B"
        name = f"({left_name} ∪ {right_name})"
    return materialize(
        k_remove_epsilon(k_union(kernel_of(left), kernel_of(right))),
        name=name,
    )


def union_de_morgan(left: AFSA, right: AFSA, name: str = "") -> AFSA:
    """Return the union via De Morgan: ``¬(¬A ∩ ¬B)`` (paper, Sect. 5.2).

    The result has no annotations (complement erases them); use
    :func:`union` when annotations must survive.
    """
    sigma = left.alphabet.union(right.alphabet)
    not_left = complement(left, alphabet=sigma)
    not_right = complement(right, alphabet=sigma)
    both = intersect(not_left, not_right)
    result = complement(both, alphabet=sigma)
    if not name:
        left_name = left.name or "A"
        right_name = right.name or "B"
        name = f"({left_name} ∪ {right_name})"
    return result.with_name(name)
