"""Decentralized change negotiation (Sect. 6, refs [16, 17]).

The paper's implementation section sketches how the framework deploys
*without a central coordinator*: "the only information which has to be
exchanged between partners is about the changes applied to public
processes.  The difference calculation as well as the necessary
adaptations of the own public and private processes can be accomplished
locally.  Finally, decentralized consistency checking can be applied to
guarantee the successful introduction of the changes."

This module makes that deployment executable:

* :class:`PartnerAgent` — one autonomous partner.  It holds its private
  process *locally* and answers change proposals using **only** the
  serialized public view it receives on the wire;
* :class:`ChangeNegotiation` — a two-phase protocol instance:

  1. the originator sends each conversation partner a
     ``change-proposal`` carrying the partner's view of its new public
     process (as JSON — the wire format partners would really exchange);
  2. each partner *locally* classifies the change (Def. 6), runs the
     propagation algorithms on its own models if variant, applies
     executable suggestions to its own private process, and answers
     ``accept`` (invariant), ``adapt`` (variant, resolved locally), or
     ``reject`` (variant, no resolution found);
  3. the originator commits iff every partner accepted or adapted;
     otherwise it aborts and nobody installs anything.

Every message is recorded in a transcript whose payloads are plain
strings — the test suite asserts no private process ever crosses the
wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.emptiness import is_consistent
from repro.afsa.serialize import afsa_from_json, afsa_to_json
from repro.afsa.view import project_view
from repro.bpel.compile import CompiledProcess, compile_process
from repro.bpel.model import ProcessModel
from repro.core.changes import ChangeOperation
from repro.core.propagate import (
    propagate_additive,
    propagate_subtractive,
)
from repro.core.suggestions import derive_suggestions
from repro.core.sweep import WITNESS_NONE, sweep_pairs
from repro.errors import ChoreographyError
from repro.instances.migrate import MigrationReport, classify_migration
from repro.instances.store import InstanceStore

#: Message kinds on the negotiation wire.
PROPOSAL = "change-proposal"
ACCEPT = "accept"
ADAPT = "adapt"
REJECT = "reject"
COMMIT = "commit"
ABORT = "abort"


@dataclass
class WireMessage:
    """One message of the negotiation transcript.

    Attributes:
        sender: party identifier of the sending partner.
        receiver: party identifier of the receiving partner.
        kind: one of the module-level message kinds.
        payload: serialized public information (JSON text) or "".
    """

    sender: str
    receiver: str
    kind: str
    payload: str = ""

    def describe(self) -> str:
        size = f", {len(self.payload)} bytes" if self.payload else ""
        return f"{self.sender} → {self.receiver}: {self.kind}{size}"


class PartnerAgent:
    """An autonomous partner participating in change negotiations.

    The agent owns its private process; nothing private ever leaves it.
    It may also own the fleet of conversations it is currently running
    (*instances*): when a negotiated change commits, the fleet is
    classified against the new public process and migratable instances
    are carried to the new version — all locally, like everything else
    the agent does.
    """

    def __init__(
        self,
        process: ProcessModel,
        auto_adapt: bool = True,
        instances: InstanceStore | None = None,
    ):
        self.process = process
        self.auto_adapt = auto_adapt
        self.instances = instances
        self.last_migration: MigrationReport | None = None
        self._version = 1
        self._compiled: CompiledProcess | None = None
        self._staged: ProcessModel | None = None

    @property
    def party(self) -> str:
        """The party identifier."""
        return self.process.party

    @property
    def version(self) -> str:
        """Version id of the currently installed private process."""
        return f"{self.party}#v{self._version}"

    @property
    def compiled(self) -> CompiledProcess:
        """The compiled public process of the current private process."""
        if self._compiled is None:
            self._compiled = compile_process(self.process)
        return self._compiled

    def public_view_for(self, partner: str) -> str:
        """Serialize τ_partner(own public process) for the wire."""
        return afsa_to_json(project_view(self.compiled.afsa, partner))

    def handle_proposal(
        self, originator: str, new_view_json: str
    ) -> tuple[str, str]:
        """Process a change proposal; return ``(reply kind, detail)``.

        Everything happens locally: the received JSON is the
        originator's new public view; classification, propagation, and
        private adaptation use only the agent's own models.  The
        invariant/variant split is the lazy product-emptiness verdict
        (:mod:`repro.afsa.lazy`) — no intersection is materialized to
        answer a proposal.
        """
        new_view = afsa_from_json(new_view_json)
        own_view = project_view(self.compiled.afsa, originator)
        if is_consistent(new_view, own_view):
            self._staged = None
            return ACCEPT, "invariant - no local change needed"

        if not self.auto_adapt:
            return REJECT, "variant change; manual adaptation required"

        adapted = self._try_adapt(originator, new_view)
        if adapted is None:
            return REJECT, "variant change; no executable adaptation"
        self._staged = adapted
        return ADAPT, "variant change; local adaptation staged"

    def _try_adapt(self, originator, new_view) -> ProcessModel | None:
        """Run both propagation directions, apply executable
        suggestions, verify locally (steps ad 1–ad 5 of Sect. 5)."""
        operations: list[ChangeOperation] = []
        seen: set[str] = set()
        for propagate in (propagate_additive, propagate_subtractive):
            result = propagate(
                new_view,
                self.compiled,
                self.party,
                originator_party=originator,
            )
            for suggestion in derive_suggestions(self.compiled, result):
                if suggestion.operation is None:
                    continue
                description = suggestion.operation.describe()
                if description not in seen:
                    seen.add(description)
                    operations.append(suggestion.operation)
        if not operations:
            return None
        process = self.process
        for operation in operations:
            process = operation.apply(process)
        adapted_public = compile_process(process).afsa
        adapted_view = project_view(adapted_public, originator)
        if not is_consistent(new_view, adapted_view):
            return None
        return process

    def install(self, process: ProcessModel) -> None:
        """Install a new private process version, migrating the fleet.

        Advances the agent's version counter; when the agent runs
        instances, they are classified across the step (old public →
        new public) and migratable ones carry forward to the new
        version.  The report lands in :attr:`last_migration`.
        """
        migrating = self.instances is not None and self.instances.has(
            self.version
        )
        old_public = self.compiled.afsa if migrating else None
        old_version = self.version
        self.process = process
        self._compiled = None
        self._version += 1
        if migrating:
            self.last_migration = classify_migration(
                self.instances,
                old_public,
                self.compiled.afsa,
                version=old_version,
                new_version=self.version,
                apply=True,
            )

    def commit(self) -> None:
        """Install the staged adaptation (on COMMIT)."""
        if self._staged is not None:
            staged = self._staged
            self._staged = None
            self.install(staged)

    def abort(self) -> None:
        """Drop the staged adaptation (on ABORT)."""
        self._staged = None


@dataclass
class NegotiationOutcome:
    """Result of one negotiation round.

    Attributes:
        committed: True when every partner accepted or adapted and the
            change was installed everywhere.
        replies: partner party → reply kind.
        transcript: the full wire transcript (public payloads only).
    """

    committed: bool
    replies: dict[str, str] = field(default_factory=dict)
    transcript: list[WireMessage] = field(default_factory=list)

    def describe(self) -> str:
        lines = [message.describe() for message in self.transcript]
        lines.append(
            "outcome: committed" if self.committed else "outcome: aborted"
        )
        return "\n".join(lines)


class ChangeNegotiation:
    """A set of partner agents negotiating private-process changes."""

    def __init__(self, agents: list[PartnerAgent]):
        self.agents = {agent.party: agent for agent in agents}
        if len(self.agents) != len(agents):
            raise ChoreographyError("duplicate party among agents")

    def agent(self, party: str) -> PartnerAgent:
        """Return the agent of *party*."""
        if party not in self.agents:
            raise ChoreographyError(f"unknown party {party!r}")
        return self.agents[party]

    def conversation_partners(self, party: str) -> list[str]:
        """Parties the given party's public process converses with."""
        alphabet = self.agent(party).compiled.afsa.alphabet
        return sorted(
            name
            for name in alphabet.partners()
            if name != party and name in self.agents
        )

    def propose_change(
        self,
        originator: str,
        change: ChangeOperation | ProcessModel,
    ) -> NegotiationOutcome:
        """Run one two-phase negotiation round (see module docstring)."""
        agent = self.agent(originator)
        if isinstance(change, ProcessModel):
            new_private = change
        else:
            new_private = change.apply(agent.process)
        new_compiled = compile_process(new_private)

        outcome = NegotiationOutcome(committed=False)

        # Phase 1: proposals carrying only serialized public views.
        for partner in self.conversation_partners(originator):
            view_json = afsa_to_json(
                project_view(new_compiled.afsa, partner)
            )
            outcome.transcript.append(
                WireMessage(originator, partner, PROPOSAL, view_json)
            )
            reply, detail = self.agents[partner].handle_proposal(
                originator, view_json
            )
            outcome.replies[partner] = reply
            outcome.transcript.append(
                WireMessage(partner, originator, reply, detail)
            )

        # Phase 2: commit or abort.
        agreed = all(
            reply in (ACCEPT, ADAPT) for reply in outcome.replies.values()
        )
        decision = COMMIT if agreed else ABORT
        for partner in outcome.replies:
            outcome.transcript.append(
                WireMessage(originator, partner, decision)
            )
            if agreed:
                self.agents[partner].commit()
            else:
                self.agents[partner].abort()
        if agreed:
            agent.install(new_private)
            outcome.committed = True
        return outcome

    def check_consistency(self, workers: int | None = None) -> bool:
        """Decentralized post-negotiation check: every conversing pair
        exchanges views and verifies locally.

        The pair grid goes through the batched sweep engine; the views
        crossing the "wire" stay exactly the serialized public views
        partners exchange (each distinct view is parsed and interned
        once per sweep, and the worker pool receives dense arrays, not
        re-serialized JSON), and ``workers > 1`` distributes the
        checks without changing the verdict.  The serial path
        short-circuits on the first inconsistent pair; verdicts come
        from the lazy engine in both paths.
        """
        parties = sorted(self.agents)
        party_pairs = [
            (left, right)
            for index, left in enumerate(parties)
            for right in parties[index + 1:]
            if right in self.conversation_partners(left)
        ]
        if workers and workers > 1:
            wire_pairs = [
                (
                    self.agents[left].public_view_for(right),
                    self.agents[right].public_view_for(left),
                )
                for left, right in party_pairs
            ]
            # One parsed view per distinct wire text: the sweep builds
            # one kernel per distinct view object.
            views = {
                text: afsa_from_json(text)
                for text in {text for pair in wire_pairs for text in pair}
            }
            results = sweep_pairs(
                [(views[left], views[right]) for left, right in wire_pairs],
                witnesses=WITNESS_NONE,
                workers=workers,
            )
            return all(consistent for consistent, _ in results)
        for left, right in party_pairs:
            left_view = afsa_from_json(
                self.agents[left].public_view_for(right)
            )
            right_view = afsa_from_json(
                self.agents[right].public_view_for(left)
            )
            if not is_consistent(left_view, right_view):
                return False
        return True
