"""Reference chain for the front end: τ_P, compile and the bilateral base
as they were built before they moved onto the kernel.

Production code projects views (:func:`repro.afsa.view.project_view`),
compiles public processes (:func:`repro.bpel.compile.compile_process`)
and restricts an opponent to its bilateral conversation
(``repro.core.propagate._bilateral_base``) on one kernel path: the
survivors-only ε-elimination, the sparse Moore refinement and its
origins report.  This module keeps the chain those replaced, so the
property suite can pin them byte-identical:

* relabel into a validated :class:`AFSA` (:func:`project_view_raw`),
* close and merge *every* state, then trim
  (:func:`remove_epsilon_every_state`),
* determinize and refine on dense ``n × |Σ|`` successor rows
  (:func:`minimize_dense`),
* rebuild the renumbered public process through the validating
  constructor, and re-close the raw automaton in a lockstep subset
  simulation to find which raw states each public state represents
  (:func:`state_correspondence`).

Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA, State
from repro.afsa.epsilon import epsilon_closure
from repro.afsa.kernel import (
    Kernel,
    k_determinize,
    k_trim,
    kernel_of,
    materialize,
)
from repro.bpel.compile import CompiledProcess, _Compiler
from repro.bpel.mapping import BlockPath, MappingTable
from repro.bpel.model import ProcessModel
from repro.formula.ast import Formula, TRUE
from repro.formula.simplify import conjoin, simplify
from repro.formula.transform import substitute
from repro.messages.label import (
    EPSILON,
    MessageLabel,
    label_involves,
    label_text,
    parse_label,
)


def _neutralize_foreign_variables(formula: Formula, partner: str) -> Formula:
    """Substitute ``true`` for variables not involving *partner*."""

    def resolver(name: str):
        parsed = parse_label(name)
        if isinstance(parsed, MessageLabel) and parsed.involves(partner):
            return None  # keep
        return True  # neutralize

    return simplify(substitute(formula, resolver))


def project_view_raw(automaton: AFSA, partner: str) -> AFSA:
    """The *relabeled* view: foreign messages become ε, foreign
    annotation variables become ``true``, state identities are kept."""
    transitions = []
    for transition in automaton.transitions:
        if transition.is_silent or label_involves(
            transition.label, partner
        ):
            transitions.append(transition.as_tuple())
        else:
            transitions.append(
                (transition.source, EPSILON, transition.target)
            )

    annotations = {}
    for state, formula in automaton.annotations.items():
        neutralized = _neutralize_foreign_variables(formula, partner)
        if neutralized != TRUE:
            annotations[state] = neutralized

    return AFSA(
        states=automaton.states,
        transitions=transitions,
        start=automaton.start,
        finals=automaton.finals,
        annotations=annotations,
        alphabet=automaton.alphabet.involving(partner),
        name=f"τ_{partner}({automaton.name or 'A'})",
    )


def _every_closure(eps: list) -> list:
    """The ε-closure of every state, each a tuple."""
    closures: list = []
    for state in range(len(eps)):
        seen = {state}
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for target in eps[current]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        closures.append(tuple(seen))
    return closures


def remove_epsilon_every_state(kernel: Kernel) -> Kernel:
    """ε-elimination that closes and merges every state, then trims.

    Reads *kernel* only (no memo is read or written), so it can be
    compared against :func:`repro.afsa.kernel.k_remove_epsilon` on the
    same object.
    """
    if not kernel.has_epsilon:
        return k_trim(kernel)
    closures = _every_closure(kernel.eps)
    names = kernel.names
    finals = kernel.finals
    ann = kernel.ann
    adj = kernel.adj

    new_finals = set()
    new_ann: dict = {}
    new_adj: list = []
    for state in range(kernel.n):
        closure = closures[state]
        if len(closure) == 1:
            if state in finals:
                new_finals.add(state)
            formula = ann.get(state, TRUE)
            row = dict(adj[state])
        else:
            if any(member in finals for member in closure):
                new_finals.add(state)
            formula = TRUE
            for member in sorted(closure, key=lambda i: repr(names[i])):
                member_formula = ann.get(member)
                if member_formula is not None:
                    formula = conjoin(formula, member_formula)
            merged: dict = {}
            for member in closure:
                for lid, targets in adj[member].items():
                    bucket = merged.get(lid)
                    if bucket is None:
                        merged[lid] = set(targets)
                    else:
                        bucket.update(targets)
            row = {lid: tuple(targets) for lid, targets in merged.items()}
        if formula != TRUE:
            new_ann[state] = formula
        new_adj.append(row)

    return k_trim(
        Kernel(
            n=kernel.n,
            start=kernel.start,
            names=list(names),
            finals=frozenset(new_finals),
            ann=new_ann,
            adj=new_adj,
            eps=[()] * kernel.n,
            alphabet_ids=kernel.alphabet_ids,
        )
    )


def minimize_dense(kernel: Kernel) -> Kernel:
    """Moore minimization on dense successor rows (one slot per label
    of Σ, ``-1`` when missing), over :func:`remove_epsilon_every_state`."""
    dfa = k_trim(k_determinize(remove_epsilon_every_state(kernel)))
    n = dfa.n
    labels = dfa.sorted_label_ids()
    succ = [
        [row[lid][0] if lid in row else -1 for lid in labels]
        for row in dfa.adj
    ]

    finals = dfa.finals
    ann = dfa.ann
    class_ids: dict = {}
    block_of = [0] * n
    for state in range(n):
        key = (state in finals, ann.get(state, TRUE))
        block_of[state] = class_ids.setdefault(key, len(class_ids))
    block_count = len(class_ids)

    while True:
        signature_ids: dict = {}
        new_block_of = [0] * n
        for state in range(n):
            signature = (
                block_of[state],
                tuple(
                    block_of[target] if target >= 0 else -1
                    for target in succ[state]
                ),
            )
            new_block_of[state] = signature_ids.setdefault(
                signature, len(signature_ids)
            )
        block_of = new_block_of
        if len(signature_ids) == block_count:
            break
        block_count = len(signature_ids)

    representative: dict = {}
    for state in range(n):
        representative.setdefault(block_of[state], state)

    start_block = block_of[dfa.start]
    order = [start_block]
    seen = {start_block}
    cursor = 0
    while cursor < len(order):
        block = order[cursor]
        cursor += 1
        for target in succ[representative[block]]:
            if target >= 0 and block_of[target] not in seen:
                seen.add(block_of[target])
                order.append(block_of[target])
    for block in sorted(representative):
        if block not in seen:
            seen.add(block)
            order.append(block)

    position = {block: i for i, block in enumerate(order)}
    adj: list = [dict() for _ in order]
    new_finals = set()
    new_ann: dict = {}
    for block in order:
        rep = representative[block]
        row = adj[position[block]]
        for li, lid in enumerate(labels):
            target = succ[rep][li]
            if target >= 0:
                row[lid] = (position[block_of[target]],)
        if rep in finals:
            new_finals.add(position[block])
        formula = ann.get(rep)
        if formula is not None:
            new_ann[position[block]] = formula

    return Kernel(
        n=len(order),
        start=position[start_block],
        names=[f"m{i}" for i in range(len(order))],
        finals=frozenset(new_finals),
        ann=new_ann,
        adj=adj,
        eps=[()] * len(order),
        alphabet_ids=dfa.alphabet_ids,
    )


def reference_view(
    automaton: AFSA, partner: str, minimize: bool = True
) -> AFSA:
    """τ_partner through the relabeled automaton (no memo)."""
    projected = project_view_raw(automaton, partner)
    kernel = kernel_of(projected)
    if minimize:
        return materialize(minimize_dense(kernel), name=projected.name)
    reduced = remove_epsilon_every_state(kernel)
    if reduced is kernel:
        return projected
    return materialize(reduced, name=projected.name)


def state_correspondence(
    raw: AFSA, reduced: AFSA
) -> dict[State, set[State]]:
    """Map each state of *reduced* to the raw states it represents, by
    a lockstep breadth-first subset simulation of the two automata.

    *reduced* must be a deterministic quotient of *raw* (ε-elimination
    + determinization + minimization).
    """
    def closure(states: frozenset) -> frozenset:
        result: set[State] = set()
        for state in states:
            result |= epsilon_closure(raw, state)
        return frozenset(result)

    start = closure(frozenset({raw.start}))
    correspondence: dict[State, set[State]] = {reduced.start: set(start)}
    visited: set[tuple[State, frozenset]] = {(reduced.start, start)}
    queue: list[tuple[State, frozenset]] = [(reduced.start, start)]
    while queue:
        reduced_state, raw_states = queue.pop(0)
        for label in sorted(
            {
                transition.label
                for state in raw_states
                for transition in raw.transitions_from(state)
                if not transition.is_silent
            },
            key=label_text,
        ):
            reduced_targets = reduced.successors(reduced_state, label)
            if not reduced_targets:
                continue
            (reduced_target,) = reduced_targets
            raw_targets: set[State] = set()
            for state in raw_states:
                raw_targets |= raw.successors(state, label)
            raw_target_closure = closure(frozenset(raw_targets))
            correspondence.setdefault(reduced_target, set()).update(
                raw_target_closure
            )
            key = (reduced_target, raw_target_closure)
            if key not in visited:
                visited.add(key)
                queue.append((reduced_target, raw_target_closure))
    return correspondence


def reference_compile(process: ProcessModel, policy: str) -> CompiledProcess:
    """Compile *process* through the reference chain (no memo): raw
    automaton, dense minimization, validated renumbered public process,
    lockstep correspondence."""
    compiler = _Compiler(process.party, policy)
    root_path: BlockPath = (ProcessModel.ROOT_BLOCK,)
    entry = compiler.new_state(root_path)
    exit_state = compiler.compile_activity(process.activity, entry, root_path)
    if exit_state is not None:
        compiler.builder.mark_final(exit_state)
    for state in compiler.terminal_states:
        compiler.builder.mark_final(state)
    raw = compiler.builder.build(start=entry)
    raw = raw.with_name(f"{process.name} (raw public)")

    minimized = materialize(minimize_dense(kernel_of(raw)), name=raw.name)
    renumber = {
        state: int(str(state)[1:]) + 1 for state in minimized.states
    }
    public = AFSA(
        states=renumber.values(),
        transitions=[
            (
                renumber[transition.source],
                transition.label,
                renumber[transition.target],
            )
            for transition in minimized.transitions
        ],
        start=renumber[minimized.start],
        finals=[renumber[state] for state in minimized.finals],
        annotations={
            renumber[state]: formula
            for state, formula in minimized.annotations.items()
        },
        alphabet=minimized.alphabet,
        name=f"{process.name} public",
    )
    correspondence = state_correspondence(raw, public)
    return CompiledProcess(
        process=process,
        raw=raw,
        afsa=public,
        mapping=compiler.mapping.composed_with(correspondence),
        raw_mapping=compiler.mapping,
        correspondence=correspondence,
    )


def reference_bilateral_base(
    opponent: CompiledProcess, originator_party: str
) -> tuple[AFSA, MappingTable]:
    """The opponent's public process restricted to its conversation
    with *originator_party*, and the re-keyed mapping table."""
    public = opponent.afsa
    foreign = [
        label
        for label in public.alphabet
        if not label_involves(label, originator_party)
    ]
    if not foreign:
        return public, opponent.mapping
    relabeled = project_view_raw(public, originator_party)
    view = materialize(
        minimize_dense(kernel_of(relabeled)), name=relabeled.name
    )
    correspondence = state_correspondence(relabeled, view)
    return view, opponent.mapping.composed_with(correspondence)
