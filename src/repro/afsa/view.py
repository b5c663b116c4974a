"""View generation τ_P (Sect. 3.4).

Bilateral consistency checking compares processes "representing the
bilateral message exchanges only".  The view ``τ_P(wf)`` of party P on a
public process *wf* is generated by relabeling all transitions not
related to P with the empty word ε, then minimizing (the paper shows the
minimized buyer and logistics views of the accounting process, Fig. 8).

Annotations mentioning foreign messages are neutralized (variables
substituted with ``true``): such requirements belong to a *different*
bilateral conversation and can never be satisfied by an ε-labeled
transition — without neutralization every projected view would be
trivially empty, contradicting Figs. 8/10/12/16 (see DESIGN.md).

The whole chain runs on the kernel (:func:`repro.afsa.kernel.k_project`,
then survivors-only ε-elimination and minimization) and the view is
materialized once; no relabeled intermediate automaton is built.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import (
    k_minimize,
    k_project,
    k_remove_epsilon,
    kernel_of,
    materialize,
)


def view_name(automaton: AFSA, partner: str) -> str:
    """The name τ_partner gives its views of *automaton*."""
    return f"τ_{partner}({automaton.name or 'A'})"


def project_view(
    automaton: AFSA, partner: str, minimize: bool = True
) -> AFSA:
    """Return τ_partner(automaton): the bilateral view on *automaton*.

    Views are memoized per ``(partner, minimize)`` on the (immutable)
    automaton instance: the evolution engine projects the same public
    process once per conversation partner per assessment, and repeated
    consistency sweeps hit the memo instead of re-running
    relabel + minimize.

    Args:
        automaton: a public process aFSA.
        partner: the viewing party; messages not involving it become ε.
        minimize: minimize the result (paper default).  Pass False to
            get the ε-eliminated but unminimized automaton.
    """
    memo = automaton._view_memo
    if memo is None:
        memo = automaton._view_memo = {}
    key = (partner, minimize)
    view = memo.get(key)
    if view is None:
        projected = k_project(kernel_of(automaton), partner)
        reduced = (
            k_minimize(projected) if minimize
            else k_remove_epsilon(projected)
        )
        view = materialize(reduced, name=view_name(automaton, partner))
        memo[key] = view
    return view
