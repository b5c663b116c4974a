"""Public-process generation: BPEL → aFSA (Sect. 3.3).

The compiler performs the depth-first traversal the paper describes,
creating one automaton state per control point and one transition per
exchanged message.  Alongside it records the state↔block mapping table
(Table 1): every state is associated with the innermost block whose
sequencing created it plus every block that *begins* at it.

Annotation policy
-----------------
Mandatory-message annotations originate from choices the process decides
*internally* (a :class:`~repro.bpel.model.Switch`): partners must support
all branches, expressed as the conjunction of the branches' first
messages per partner (Fig. 6's ``terminateOp AND get_statusOp``;
Fig. 12a's ``cancelOp AND deliveryOp``).  Externally decided choices
(:class:`~repro.bpel.model.Pick`) offer *optional* alternatives and emit
no annotation — this is precisely why adding an alternative received
message (Fig. 9's ``order_2``) is an invariant change while adding an
alternatively *sent* message (Fig. 11's ``cancel``) is a variant one.

Three policies are available for the ablation study:

* :data:`ANNOTATE_SWITCH_ONLY` (default, reproduces the paper),
* :data:`ANNOTATE_ALL_CHOICES` (picks annotate too — overly strict),
* :data:`ANNOTATE_NONE` (plain FSA — misses mandatory-message
  deadlocks; quantified in ``benchmarks/bench_ablation_annotations.py``).

The published public processes are minimized (Figs. 6–8), so
:func:`compile_process` returns both the raw automaton and the minimized
one with integer states ``1..n`` (numbered breadth-first like the
paper's Fig. 6) plus the mapping table re-keyed to those states.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.afsa.automaton import AFSA, AFSABuilder, State
from repro.afsa.kernel import (
    k_minimize_with_origins,
    k_renamed,
    kernel_of,
    materialize,
)
from repro.bpel.firsts import first_messages
from repro.bpel.mapping import BlockPath, MappingTable
from repro.bpel.model import (
    Activity,
    Assign,
    Empty,
    Flow,
    Invoke,
    OnMessage,
    Opaque,
    Pick,
    ProcessModel,
    Receive,
    Reply,
    Scope,
    Sequence,
    Switch,
    Terminate,
    While,
)
from repro.bpel.validate import validate_process
from repro.errors import ProcessModelError
from repro.formula.ast import Formula, TRUE, Var, all_of
from repro.formula.simplify import conjoin, simplify
from repro.messages.label import MessageLabel

#: Annotate internally decided choices only (paper behavior).
ANNOTATE_SWITCH_ONLY = "switch-only"
#: Annotate every choice block, including picks (strict variant).
ANNOTATE_ALL_CHOICES = "all-choices"
#: Emit no annotations (plain FSA baseline for the ablation bench).
ANNOTATE_NONE = "none"

_POLICIES = (ANNOTATE_SWITCH_ONLY, ANNOTATE_ALL_CHOICES, ANNOTATE_NONE)

#: A *follow* function: for a partner, the messages that can come first
#: in the continuation after the current activity.  Threaded through the
#: compiler so that choice branches falling through to the continuation
#: (a branch whose own subtree exchanges nothing with the partner)
#: still contribute the continuation's first message to the mandatory
#: annotation — e.g. a credit-check switch whose fulfil branch only
#: messages logistics, while the buyer-visible deliveryOp follows the
#: switch.
Follow = Callable[[str], frozenset]


def _no_follow(partner: str) -> frozenset:
    return frozenset()


@dataclass
class CompiledProcess:
    """Result of :func:`compile_process`.

    Attributes:
        process: the compiled private process.
        raw: the direct compiler output (may contain ε-transitions and
            redundant states; state numbers follow creation order).
        afsa: the minimized public process with integer states ``1..n``
            in breadth-first order (the paper's published form).
        mapping: the state↔block mapping table keyed by ``afsa`` states.
        raw_mapping: the mapping table keyed by ``raw`` states.
        correspondence: minimized state → set of raw states.
    """

    process: ProcessModel
    raw: AFSA
    afsa: AFSA
    mapping: MappingTable
    raw_mapping: MappingTable
    correspondence: dict[State, set[State]]

    @property
    def public(self) -> AFSA:
        """Alias for :attr:`afsa` reading closer to the paper."""
        return self.afsa


class _Compiler:
    """Single-use depth-first compiler for one process."""

    def __init__(self, party: str, policy: str):
        self.party = party
        self.policy = policy
        self.builder = AFSABuilder()
        self.mapping = MappingTable()
        self.counter = 0
        self.terminal_states: set[State] = set()

    # -- infrastructure ----------------------------------------------------

    def new_state(self, path: BlockPath) -> State:
        """Create the next state, associated with the current block."""
        self.counter += 1
        state = self.counter
        if path:
            self.mapping.associate(state, path)
        return state

    def associate_block(self, state: State, path: BlockPath) -> None:
        """Associate *state* with a block beginning at it."""
        self.mapping.associate(state, path)

    # -- annotation policy ---------------------------------------------------

    def choice_annotation(
        self,
        branches: list[Activity],
        partners: list[str],
        follow: Follow,
    ) -> Formula:
        """Build the per-partner conjunctive first-message annotation.

        A branch that may complete without exchanging a message with a
        partner inherits the *continuation's* first messages (FOLLOW),
        so its observable first message is still accounted for.  A
        partner is only constrained when the choice is observable to it
        — at least two distinct first messages; a single shared first
        message imposes nothing beyond the transition itself.
        """
        formula: Formula = TRUE
        for partner in partners:
            labels: set[MessageLabel] = set()
            for branch in branches:
                firsts = first_messages(branch, self.party, partner)
                labels |= firsts.labels
                if not firsts.definite:
                    labels |= follow(partner)
            if len(labels) >= 2:
                conj = all_of(
                    Var(str(label))
                    for label in sorted(labels, key=str)
                )
                formula = conjoin(formula, conj)
        return simplify(formula)

    def annotate_choice(
        self,
        state: State,
        branches: list[Activity],
        internal: bool,
        follow: Follow,
    ) -> None:
        """Attach the choice annotation to *state* per the policy."""
        if self.policy == ANNOTATE_NONE:
            return
        if self.policy == ANNOTATE_SWITCH_ONLY and not internal:
            return
        partners = sorted(
            {
                activity.partner
                for branch in branches
                for activity in branch.walk()
                if isinstance(
                    activity, (Receive, Invoke, Reply, OnMessage)
                )
            }
        )
        formula = self.choice_annotation(branches, partners, follow)
        if formula != TRUE:
            self.builder.annotate(state, formula)

    # -- activity dispatch -----------------------------------------------------

    def compile_activity(
        self,
        activity: Activity,
        entry: State,
        path: BlockPath,
        follow: Follow = _no_follow,
    ) -> State | None:
        """Compile *activity* starting at *entry*; return the exit state
        or ``None`` when control never continues past it.

        *follow* carries the continuation's first messages for the
        choice-annotation FOLLOW computation (see :data:`Follow`).
        """
        if isinstance(activity, Receive):
            label = MessageLabel(
                activity.partner, self.party, activity.operation
            )
            exit_state = self.new_state(path)
            self.builder.add_transition(entry, label, exit_state)
            return exit_state

        if isinstance(activity, Invoke):
            request = MessageLabel(
                self.party, activity.partner, activity.operation
            )
            if activity.synchronous:
                middle = self.new_state(path)
                exit_state = self.new_state(path)
                self.builder.add_transition(entry, request, middle)
                self.builder.add_transition(
                    middle, request.reversed(), exit_state
                )
                return exit_state
            exit_state = self.new_state(path)
            self.builder.add_transition(entry, request, exit_state)
            return exit_state

        if isinstance(activity, Reply):
            label = MessageLabel(
                self.party, activity.partner, activity.operation
            )
            exit_state = self.new_state(path)
            self.builder.add_transition(entry, label, exit_state)
            return exit_state

        if isinstance(activity, (Assign, Empty, Opaque)):
            return entry  # silent: no state, no transition

        if isinstance(activity, Terminate):
            self.terminal_states.add(entry)
            return None

        if isinstance(activity, Sequence):
            return self.compile_sequence(activity, entry, path, follow)
        if isinstance(activity, While):
            return self.compile_while(activity, entry, path, follow)
        if isinstance(activity, Switch):
            return self.compile_switch(activity, entry, path, follow)
        if isinstance(activity, Pick):
            return self.compile_pick(activity, entry, path, follow)
        if isinstance(activity, Flow):
            return self.compile_flow(activity, entry, path)
        if isinstance(activity, Scope):
            inner = path + (activity.block_name(),)
            self.associate_block(entry, inner)
            return self.compile_activity(
                activity.activity, entry, inner, follow
            )

        raise ProcessModelError(
            f"cannot compile activity of type {type(activity).__name__}"
        )

    # -- structured activities ---------------------------------------------------

    def compile_sequence(
        self,
        sequence: Sequence,
        entry: State,
        path: BlockPath,
        follow: Follow,
    ) -> State | None:
        inner = path + (sequence.block_name(),)
        self.associate_block(entry, inner)
        current: State | None = entry
        children = sequence.activities
        for index, child in enumerate(children):
            rest = children[index + 1:]
            child_follow = self._sequence_follow(rest, follow)
            current = self.compile_activity(
                child, current, inner, child_follow
            )
            if current is None:
                return None
        return current

    def _sequence_follow(
        self, rest: list[Activity], outer: Follow
    ) -> Follow:
        """FOLLOW of a sequence child: firsts of the remaining
        children, falling through to the outer follow when they may
        complete silently."""
        if not rest:
            return outer
        remainder = Sequence(activities=list(rest))

        def follow(partner: str) -> frozenset:
            firsts = first_messages(remainder, self.party, partner)
            labels = frozenset(firsts.labels)
            if not firsts.definite:
                labels |= outer(partner)
            return labels

        return follow

    def compile_while(
        self,
        loop: While,
        entry: State,
        path: BlockPath,
        follow: Follow,
    ) -> State | None:
        inner = path + (loop.block_name(),)
        self.associate_block(entry, inner)

        def body_follow(partner: str) -> frozenset:
            # After the body the loop re-enters (body firsts) or exits
            # (outer follow, unless the loop never exits).
            firsts = first_messages(loop.body, self.party, partner)
            labels = frozenset(firsts.labels)
            if not loop.never_exits:
                labels |= follow(partner)
            return labels

        body_exit = self.compile_activity(
            loop.body, entry, inner, body_follow
        )
        if body_exit is not None and body_exit != entry:
            self.builder.add_epsilon(body_exit, entry)
        if loop.never_exits:
            return None
        exit_state = self.new_state(path)
        self.builder.add_epsilon(entry, exit_state)
        return exit_state

    def compile_switch(
        self,
        switch: Switch,
        entry: State,
        path: BlockPath,
        follow: Follow,
    ) -> State | None:
        inner = path + (switch.block_name(),)
        self.associate_block(entry, inner)
        branches = switch.branches()
        if not branches:
            raise ProcessModelError("switch requires at least one branch")
        self.annotate_choice(entry, branches, internal=True, follow=follow)
        exits = []
        for branch in branches:
            branch_exit = self.compile_activity(
                branch, entry, inner, follow
            )
            if branch_exit is not None:
                exits.append(branch_exit)
        if switch.otherwise is None:
            # The switch may fall through when no condition holds.
            exits.append(entry)
        return self._join(exits, inner)

    def compile_pick(
        self,
        pick: Pick,
        entry: State,
        path: BlockPath,
        follow: Follow,
    ) -> State | None:
        inner = path + (pick.block_name(),)
        self.associate_block(entry, inner)
        if not pick.branches:
            raise ProcessModelError("pick requires at least one branch")
        self.annotate_choice(
            entry, list(pick.branches), internal=False, follow=follow
        )
        exits = []
        for branch in pick.branches:
            label = MessageLabel(
                branch.partner, self.party, branch.operation
            )
            received = self.new_state(inner)
            self.builder.add_transition(entry, label, received)
            branch_exit = self.compile_activity(
                branch.activity, received, inner, follow
            )
            if branch_exit is not None:
                exits.append(branch_exit)
        return self._join(exits, inner)

    def compile_flow(
        self, flow: Flow, entry: State, path: BlockPath
    ) -> State | None:
        inner = path + (flow.block_name(),)
        self.associate_block(entry, inner)
        children = flow.activities
        if not children:
            return entry
        fragments = [
            _compile_fragment(child, self.party, self.policy)
            for child in children
        ]
        return self._splice_shuffle(fragments, entry, inner)

    def _join(self, exits: list[State], path: BlockPath) -> State | None:
        """Merge branch exits into a single continuation state."""
        unique = sorted(set(exits), key=repr)
        if not unique:
            return None
        if len(unique) == 1:
            return unique[0]
        join = self.new_state(path)
        for exit_state in unique:
            self.builder.add_epsilon(exit_state, join)
        return join

    # -- flow interleaving ---------------------------------------------------

    def _splice_shuffle(
        self,
        fragments: list["_Fragment"],
        entry: State,
        path: BlockPath,
    ) -> State | None:
        """Build the shuffle (interleaving) product of *fragments* and
        splice it between *entry* and a fresh exit state.

        Product states map to fresh compiler states associated with the
        flow's block (mapping granularity inside a flow is the flow
        itself; see DESIGN.md).
        """
        start = tuple(fragment.automaton.start for fragment in fragments)
        product_states: dict[tuple, State] = {}

        def state_for(product: tuple) -> State:
            if product not in product_states:
                product_states[product] = self.new_state(path)
                formula: Formula = TRUE
                for fragment, component in zip(fragments, product):
                    formula = conjoin(
                        formula, fragment.automaton.annotation(component)
                    )
                if formula != TRUE:
                    self.builder.annotate(product_states[product], formula)
            return product_states[product]

        frontier = [start]
        seen = {start}
        completed: list[tuple] = []
        while frontier:
            product = frontier.pop()
            source = state_for(product)
            if any(
                component in fragment.terminal_states
                for fragment, component in zip(fragments, product)
            ):
                # Some branch terminated the whole process.
                self.terminal_states.add(source)
                continue
            if all(
                component == fragment.exit
                for fragment, component in zip(fragments, product)
            ):
                completed.append(product)
                continue
            for index, (fragment, component) in enumerate(
                zip(fragments, product)
            ):
                for transition in fragment.automaton.transitions_from(
                    component
                ):
                    target = (
                        product[:index]
                        + (transition.target,)
                        + product[index + 1:]
                    )
                    self.builder.add_transition(
                        source, transition.label, state_for(target)
                    )
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)

        self.builder.add_epsilon(entry, state_for(start))
        if not completed:
            return None
        exit_state = self.new_state(path)
        for product in completed:
            self.builder.add_epsilon(state_for(product), exit_state)
        return exit_state


@dataclass
class _Fragment:
    """A standalone compiled sub-automaton used for flow interleaving."""

    automaton: AFSA
    exit: State | None
    terminal_states: set[State]


def _compile_fragment(
    activity: Activity, party: str, policy: str
) -> _Fragment:
    compiler = _Compiler(party, policy)
    entry = compiler.new_state(())
    exit_state = compiler.compile_activity(activity, entry, ())
    automaton = compiler.builder.build(start=entry)
    return _Fragment(
        automaton=automaton,
        exit=exit_state,
        terminal_states=compiler.terminal_states,
    )


#: Per-instance compile memo: ``id(process) -> (process, {policy: (compiled,
#: validated)})``.  Keyed by identity, *not* equality — a clone that is about
#: to be mutated must start with a fresh entry.  The table is a bounded LRU
#: (entries keep their process alive, so an unbounded table would leak every
#: version ever compiled); the stored process reference also guards against
#: id reuse after an eviction.
_COMPILE_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_COMPILE_CACHE_MAX = 256


def _compile_cache_for(process: ProcessModel) -> dict:
    key = id(process)
    entry = _COMPILE_CACHE.get(key)
    if entry is not None and entry[0] is process:
        _COMPILE_CACHE.move_to_end(key)
        return entry[1]
    cache: dict = {}
    _COMPILE_CACHE[key] = (process, cache)
    _COMPILE_CACHE.move_to_end(key)
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
    return cache


def compile_process(
    process: ProcessModel,
    policy: str = ANNOTATE_SWITCH_ONLY,
    validate: bool = True,
) -> CompiledProcess:
    """Compile a private process into its public aFSA (Sect. 3.3).

    Compilation is **memoized per process instance and policy**: the
    same ``process`` object returns the same :class:`CompiledProcess`
    on repeated calls.  Process models are treated as immutable
    versions — change operations rewrite clones
    (:meth:`~repro.bpel.model.ProcessModel.clone`), and a clone always
    compiles fresh.  Mutating a ``ProcessModel`` in place after
    compiling it is unsupported and would serve the stale result.

    Args:
        process: the private process model.
        policy: annotation policy (:data:`ANNOTATE_SWITCH_ONLY` default).
        validate: run structural validation first.

    Returns:
        A :class:`CompiledProcess` with the raw automaton, the minimized
        public process (integer states like the paper's figures), and
        the mapping tables.
    """
    if policy not in _POLICIES:
        raise ValueError(
            f"unknown annotation policy {policy!r}; expected one of "
            f"{', '.join(_POLICIES)}"
        )

    # Compilation is memoized per process *instance* (process models are
    # treated as immutable versions: change operations rewrite clones,
    # see repro.core.changes).  Assessing a change against N partners —
    # or re-running a benchmark round — compiles each version once.
    cache = _compile_cache_for(process)
    entry = cache.get(policy)
    if entry is not None:
        compiled, was_validated = entry
        if validate and not was_validated:
            validate_process(process)
            cache[policy] = (compiled, True)
        return compiled

    if validate:
        validate_process(process)

    compiler = _Compiler(process.party, policy)
    root_path: BlockPath = (ProcessModel.ROOT_BLOCK,)
    entry = compiler.new_state(root_path)
    exit_state = compiler.compile_activity(
        process.activity, entry, root_path
    )
    if exit_state is not None:
        compiler.builder.mark_final(exit_state)
    for state in compiler.terminal_states:
        compiler.builder.mark_final(state)
    raw = compiler.builder.build(start=entry)
    raw = raw.with_name(f"{process.name} (raw public)")

    # Minimize on the kernel; the blocks are named m0..mk in BFS order,
    # renumbered 1..n to match the paper's figures (Fig. 6, Table 1).
    # The same construction reports which raw states each public state
    # represents, which re-keys the mapping table.
    raw_kernel = kernel_of(raw)
    minimized, origins = k_minimize_with_origins(raw_kernel)
    public = materialize(
        k_renamed(minimized, list(range(1, minimized.n + 1))),
        name=f"{process.name} public",
    )
    raw_names = raw_kernel.names
    correspondence = {
        index + 1: {raw_names[state] for state in states}
        for index, states in enumerate(origins)
    }
    mapping = compiler.mapping.composed_with(correspondence)
    compiled = CompiledProcess(
        process=process,
        raw=raw,
        afsa=public,
        mapping=mapping,
        raw_mapping=compiler.mapping,
        correspondence=correspondence,
    )
    cache[policy] = (compiled, validate)
    return compiled
