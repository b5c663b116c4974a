"""Change propagation to partner processes (Sect. 5.2 / 5.3).

Both variant scenarios follow the paper's 5-step recipe:

**Additive** (Sect. 5.2, Figs. 12–14):

1. ``A'' := τ_P(A') \\ B`` — the newly inserted message sequences, from
   the opponent's view of the originator's new public process;
2. ``B' := A'' ∪ B`` — the proposed new public process of the opponent;
3. locate the regions of the opponent's private process via the changed
   states and the mapping table;
4. (suggest) the private-process edits — :mod:`repro.core.suggestions`;
5. verify: the adapted public process must be consistent with
   ``τ_P(A')`` again, else iterate.

**Subtractive** (Sect. 5.3, Figs. 16–18):

1. ``A'' := B \\ τ_P(A')`` — the *removed* execution sequences.  (The
   paper's step "ad 1" prints ``τ_P(A') \\ B``, but describes — and
   Fig. 17a depicts — the sequences the opponent still supports and the
   originator no longer does, which is ``B \\ τ_P(A')``; see DESIGN.md
   deviation #2.)
2. ``B' := B \\ A''``;
3–5. as above (the region is found where *B* offers a transition that
   ``B'`` no longer supports, Sect. 5.3 "ad 3").

Steps 1–2 are the one place in the Fig. 4 loop whose *output* is an
automaton, so they are the only place that constructs differences and
unions; each chain (difference → strip + prune → minimize, and union →
minimize) runs on the kernel (:mod:`repro.afsa.kernel`) and is
materialized once.

Changed-state detection (step 3) is the "parallel traversal …
comparable to bi-simulation" the paper sketches:
:func:`transition_deltas` walks ``B`` and ``B'`` in lockstep over common
labels and records, per visited state pair, the labels present on one
side only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.annotations import weaken_unsupported_annotations
from repro.afsa.automaton import AFSA, State
from repro.afsa.emptiness import is_consistent
from repro.afsa.kernel import (
    k_difference,
    k_minimize,
    k_minimize_with_origins,
    k_project,
    k_prune,
    k_union,
    kernel_of,
    materialize,
)
from repro.afsa.view import project_view, view_name
from repro.bpel.compile import CompiledProcess
from repro.bpel.mapping import MappingTable
from repro.messages.label import Label, label_involves, label_text

#: Delta kinds recorded by :func:`transition_deltas`.
ADDED = "added"
REMOVED = "removed"


@dataclass(frozen=True)
class TransitionDelta:
    """One behavioral difference found by the parallel traversal.

    Attributes:
        state: the state of the opponent's *current* public process B.
        label: the message whose support differs.
        kind: :data:`ADDED` (B' offers it, B does not — the opponent
            must start supporting it) or :data:`REMOVED` (B offers it,
            B' does not — the opponent must stop relying on it).
        counterpart: the proposal-side (B') state paired with *state*
            when the delta was found; suggestion derivation inspects
            the proposal's behavior after the new message there.
    """

    state: State
    label: Label
    kind: str
    counterpart: State | None = None

    def describe(self) -> str:
        verb = "add support for" if self.kind == ADDED else "drop"
        return f"state {self.state!r}: {verb} {label_text(self.label)}"


def transition_deltas(base: AFSA, proposed: AFSA) -> list[TransitionDelta]:
    """Walk *base* and *proposed* in lockstep; report per-state label
    differences (the paper's bi-simulation-like traversal, Sect. 5.2/5.3
    step "ad 3").

    Both automata should be deterministic (they are minimized by the
    propagation pipeline); traversal follows labels common to the pair,
    so each reported delta is anchored at a reachable, shared
    conversation prefix.
    """
    deltas: list[TransitionDelta] = []
    seen_pairs = {(base.start, proposed.start)}
    seen_deltas: set[tuple[State, str, str]] = set()
    queue = [(base.start, proposed.start)]
    while queue:
        base_state, proposed_state = queue.pop(0)
        base_labels = base.labels_from(base_state)
        proposed_labels = proposed.labels_from(proposed_state)
        for label in sorted(proposed_labels - base_labels, key=label_text):
            key = (base_state, label_text(label), ADDED)
            if key not in seen_deltas:
                seen_deltas.add(key)
                deltas.append(
                    TransitionDelta(
                        base_state, label, ADDED,
                        counterpart=proposed_state,
                    )
                )
        for label in sorted(base_labels - proposed_labels, key=label_text):
            key = (base_state, label_text(label), REMOVED)
            if key not in seen_deltas:
                seen_deltas.add(key)
                deltas.append(
                    TransitionDelta(
                        base_state, label, REMOVED,
                        counterpart=proposed_state,
                    )
                )
        for label in sorted(base_labels & proposed_labels, key=label_text):
            for base_target in base.successors(base_state, label):
                for proposed_target in proposed.successors(
                    proposed_state, label
                ):
                    pair = (base_target, proposed_target)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        queue.append(pair)
    return deltas


@dataclass
class PropagationResult:
    """Outcome of one variant-change propagation (Sect. 5.2/5.3).

    Attributes:
        opponent: the partner whose processes must adapt.
        direction: ``"additive"`` or ``"subtractive"``.
        originator_view: ``τ_P(A')`` — the opponent's view of the
            changed public process.
        opponent_public: B — the opponent's public process *restricted
            to the bilateral conversation with the originator* (for a
            bilateral partner like the paper's buyer this is its public
            process unchanged, keeping the published state numbers).
        opponent_mapping: the state↔block mapping table keyed by
            :attr:`opponent_public` states.
        difference: the diagnostic automaton A'' (Fig. 13a / Fig. 17a).
        proposed_public: the proposal B' (Fig. 13b / Fig. 17b).
        deltas: the changed states of B with the affected messages.
        consistent_after: step-5 verification that the proposal restores
            bilateral consistency with the originator.
    """

    opponent: str
    direction: str
    originator_view: AFSA
    opponent_public: AFSA
    opponent_mapping: MappingTable
    difference: AFSA
    proposed_public: AFSA
    deltas: list[TransitionDelta] = field(default_factory=list)
    consistent_after: bool = False

    def describe(self) -> str:
        lines = [
            f"{self.direction} propagation to {self.opponent}:",
        ]
        for delta in self.deltas:
            lines.append(f"  - {delta.describe()}")
        lines.append(
            "  proposal restores consistency"
            if self.consistent_after
            else "  proposal does NOT restore consistency - iterate"
        )
        return "\n".join(lines)


def _bilateral_base(
    opponent: CompiledProcess, originator_party: str
) -> tuple[AFSA, MappingTable]:
    """Return the opponent's public process restricted to its bilateral
    conversation with the originator, plus a mapping table re-keyed to
    the restricted states.

    Sect. 3.4: "it has to be ensured that the processes to be compared
    are representing the bilateral message exchanges only."  When the
    opponent's public process already is bilateral (the paper's buyer),
    it is returned unchanged — keeping the published state numbers of
    Fig. 6 / Table 1.
    """
    public = opponent.afsa
    foreign = [
        label
        for label in public.alphabet
        if not label_involves(label, originator_party)
    ]
    if not foreign:
        return public, opponent.mapping
    reduced, origins = k_minimize_with_origins(
        k_project(kernel_of(public), originator_party)
    )
    view = materialize(reduced, name=view_name(public, originator_party))
    names = reduced.names
    public_names = kernel_of(public).names
    correspondence = {
        names[index]: {public_names[state] for state in states}
        for index, states in enumerate(origins)
    }
    mapping = opponent.mapping.composed_with(correspondence)
    return view, mapping


def _originator_party(view: AFSA, opponent_party: str) -> str:
    """Derive the originator's party name from a bilateral view."""
    others = view.alphabet.partners() - {opponent_party}
    if len(others) == 1:
        return others.pop()
    return ""


def _diagnostic(left: AFSA, right: AFSA, name: str) -> AFSA:
    """Step 1's ``A''``: ``left \\ right`` with annotations stripped,
    dead states pruned, minimized — fused on the kernel (difference →
    strip + prune → minimize) and materialized once.
    """
    return materialize(
        k_minimize(
            k_prune(
                k_difference(kernel_of(left), kernel_of(right)),
                strip_annotations=True,
            )
        ),
        name=name,
    )


def propagate_additive(
    originator_new_public: AFSA,
    opponent: CompiledProcess,
    opponent_party: str,
    originator_party: str = "",
) -> PropagationResult:
    """Propagate a variant additive change to *opponent* (Sect. 5.2).

    Args:
        originator_new_public: A', the changed public process.
        opponent: the opponent's compiled process (provides B and the
            mapping table used downstream for suggestions).
        opponent_party: the opponent's party identifier (the P of
            τ_P).
        originator_party: the change originator's party; derived from
            the view's alphabet when omitted (unambiguous whenever the
            bilateral conversation exchanges any message).
    """
    view = project_view(originator_new_public, opponent_party)
    if not originator_party:
        originator_party = _originator_party(view, opponent_party)
    current_public, mapping = _bilateral_base(opponent, originator_party)

    # Step 1: the newly inserted sequences.  Annotations of the view are
    # requirements imposed *on* the opponent, not declared by it; the
    # diagnostic drops them, and the sink branches that completion
    # introduced are pruned (see repro.afsa.annotations / .prune).
    added = _diagnostic(view, current_public, "A'' (added sequences)")

    # Step 2: the proposal B' = A'' ∪ B.
    proposal = materialize(
        k_minimize(k_union(kernel_of(added), kernel_of(current_public))),
        name=f"{current_public.name}'",
    )

    # Step 3 precursor: where does B' differ from B?
    deltas = [
        delta
        for delta in transition_deltas(current_public, proposal)
        if delta.kind == ADDED
    ]

    # Step 5: would the proposal restore consistency?  (Lazy
    # pair-exploration verdict; no product automaton is materialized
    # and a re-check of the same operand pair is a cache hit.)
    consistent = is_consistent(view, proposal)

    return PropagationResult(
        opponent=opponent.process.name,
        direction="additive",
        originator_view=view,
        opponent_public=current_public,
        opponent_mapping=mapping,
        difference=added,
        proposed_public=proposal,
        deltas=deltas,
        consistent_after=consistent,
    )


def propagate_subtractive(
    originator_new_public: AFSA,
    opponent: CompiledProcess,
    opponent_party: str,
    originator_party: str = "",
) -> PropagationResult:
    """Propagate a variant subtractive change to *opponent* (Sect. 5.3).

    Args mirror :func:`propagate_additive`.
    """
    view = project_view(originator_new_public, opponent_party)
    if not originator_party:
        originator_party = _originator_party(view, opponent_party)
    current_public, mapping = _bilateral_base(opponent, originator_party)

    # Step 1: the removed sequences (B \ τ_P(A'); DESIGN.md deviation #2).
    removed = _diagnostic(
        current_public, view, "A'' (removed sequences)"
    )

    # Step 2: B' = B \ A''.  B's own annotations survive, but conjuncts
    # whose transitions were subtracted away are weakened (Fig. 17b).
    proposal = weaken_unsupported_annotations(
        materialize(
            k_minimize(
                k_prune(
                    k_difference(
                        kernel_of(current_public), kernel_of(removed)
                    )
                )
            ),
            name=f"{current_public.name}'",
        )
    )

    deltas = [
        delta
        for delta in transition_deltas(current_public, proposal)
        if delta.kind == REMOVED
    ]

    # Step 5 (lazy verdict, as in propagate_additive).
    consistent = is_consistent(view, proposal)

    return PropagationResult(
        opponent=opponent.process.name,
        direction="subtractive",
        originator_view=view,
        opponent_public=current_public,
        opponent_mapping=mapping,
        difference=removed,
        proposed_public=proposal,
        deltas=deltas,
        consistent_after=consistent,
    )
