"""Dead-state pruning for diagnostic and proposal automata.

The difference operator (Def. 4) completes its operands, so its results
contain sink states and other dead branches — states from which no final
state is reachable.  For the *annotated* emptiness test such branches
are meaningful (they falsify mandatory variables), but the propagation
pipeline (Sect. 5) strips annotations from its diagnostics before
presenting them, and there the dead branches are pure noise: they make
``A''`` appear to "support every message" and would flood the proposal
``B' = A'' ∪ B`` with sink transitions.

:func:`prune_dead_states` removes every state from which no final state
is reachable (keeping the start state so the automaton stays
well-formed).  The accepted language is unchanged.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import k_prune, kernel_of, materialize


def prune_dead_states(automaton: AFSA) -> AFSA:
    """Return *automaton* without states that cannot reach a final state.

    Language-preserving.  The start state is always kept (an automaton
    needs one) even when the language is empty.  Runs as
    :func:`repro.afsa.kernel.k_prune` and materializes once.
    """
    kernel = kernel_of(automaton)
    pruned = k_prune(kernel)
    if pruned is kernel:
        return automaton
    return materialize(pruned, name=automaton.name)
