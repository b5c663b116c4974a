"""Annotation post-processing used by the propagation pipeline.

Mechanical applications of Def. 4 keep the left operand's annotations
(QA1).  When the propagation algorithms of Sect. 5 turn difference
automata into *proposals* for a partner's new public process, two
adjustments reproduce the paper's published artifacts:

* :func:`strip_annotations` — a difference automaton derived from the
  *originator's* view (Fig. 13a, Fig. 17a) is a diagnostic: its
  annotations are requirements imposed **on** the opponent, not
  requirements the opponent's own public process would declare, so the
  proposal drops them (the opponent's recompiled private process is the
  authority for its annotations — Fig. 4's final step).

* :func:`weaken_unsupported_annotations` — subtracting behavior from a
  public process (Fig. 17b) can leave a state annotated with a message
  it no longer offers; the stale conjunct is weakened to ``true``
  because the corresponding internal choice branch was removed along
  with the transition.  Without this the proposal would be trivially
  empty and useless as a suggestion.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import Kernel, kernel_of, materialize
from repro.formula.ast import Formula, TRUE
from repro.formula.simplify import simplify
from repro.formula.transform import substitute
from repro.messages.alphabet import INTERNER


def _reannotated(automaton: AFSA, ann: dict) -> AFSA:
    """*automaton* with the kernel annotations *ann* (same states,
    transitions and alphabet), materialized on the trusted path."""
    kernel = kernel_of(automaton)
    return materialize(
        Kernel(
            n=kernel.n,
            start=kernel.start,
            names=kernel.names,
            finals=kernel.finals,
            ann=ann,
            adj=kernel.adj,
            eps=kernel.eps,
            alphabet_ids=kernel.alphabet_ids,
        ),
        name=automaton.name,
    )


def strip_annotations(automaton: AFSA) -> AFSA:
    """Return *automaton* with all state annotations removed."""
    if not automaton.annotations:
        return automaton
    return _reannotated(automaton, {})


def weaken_unsupported_annotations(automaton: AFSA) -> AFSA:
    """Weaken annotation variables with no supporting transition.

    For every annotated state, variables naming messages the state has
    no outgoing transition for are substituted with ``true``.  States
    whose whole annotation becomes ``true`` lose their entry.
    """
    kernel = kernel_of(automaton)
    text_of = INTERNER.text
    new_annotations: dict = {}
    changed = False
    for state, formula in kernel.ann.items():
        supported = {text_of(lid) for lid in kernel.adj[state]}

        def resolver(name: str):
            if name in supported:
                return None  # keep
            return True  # weaken

        weakened: Formula = simplify(substitute(formula, resolver))
        if weakened != formula:
            changed = True
        if weakened != TRUE:
            new_annotations[state] = weakened
    if not changed:
        return automaton
    return _reannotated(automaton, new_annotations)
