"""Subset-construction determinization for aFSAs.

The paper's BPEL→aFSA mapping produces *deterministic* annotated automata
(cf. the companion paper "Transforming BPEL into annotated deterministic
finite state automata", ICWS 2004).  Nondeterminism arises transiently in
this library — from the union construction and from ε-elimination of
projected views — and is resolved by the classic subset construction.

Annotation handling mirrors ε-elimination: a macro-state's annotation is
the **conjunction** of its members' annotations.  Nondeterminism models a
choice the process resolves internally, so the partner must satisfy the
requirements of every state the process might privately occupy.  A
member whose annotation is unmet in the input (an annotated state
outside its good set) makes its macro-state ``false``: the merged
successors of its companions cannot supply the support its own
transitions lack.  This is conservative: the unannotated language is
preserved exactly, while the annotated language may shrink; on ε-free
input it never grows, so a non-empty result implies a non-empty input.
The paper's own pipelines only determinize automata whose merged states
carry compatible annotations, where the construction is exact.

The construction runs on the integer-dense kernel
(:mod:`repro.afsa.kernel`); the determinized kernel is memoized on the
operand so repeated determinization (difference, complement, minimize)
pays once.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import k_determinize, kernel_of, materialize


def is_deterministic(automaton: AFSA) -> bool:
    """Return True if the automaton is ε-free with ≤1 successor per label."""
    return kernel_of(automaton).deterministic


def determinize(automaton: AFSA) -> AFSA:
    """Return a deterministic aFSA accepting the same (unannotated)
    language, with macro-state annotations conjoined.

    ε-transitions are eliminated first.  Macro states are frozensets of
    original states; use :meth:`AFSA.relabel_states` for compact names.
    """
    kernel = kernel_of(automaton)
    result = k_determinize(kernel)
    if result is kernel:
        return automaton
    return materialize(result, name=automaton.name)
