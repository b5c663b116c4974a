"""Multi-party choreographies and decentralized consistency checking.

A :class:`Choreography` holds the private processes of all partners and
derives/caches their public processes (Fig. 4's left-to-right flow).
Consistency is checked *bilaterally and decentralized* (Sect. 6: "the
only information which has to be exchanged between partners is about
the changes applied to public processes … decentralized consistency
checking can be applied"): every pair of partners that exchanges
messages checks the intersection of their mutual views, no central
coordinator required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.automaton import AFSA
from repro.afsa.emptiness import EmptinessWitness, is_consistent
from repro.afsa.kernel import kernel_of
from repro.afsa.lazy import note_lineage
from repro.afsa.view import project_view
from repro.core.sweep import WITNESS_ALL, sweep_choreography
from repro.bpel.compile import CompiledProcess, compile_process
from repro.bpel.model import ProcessModel
from repro.errors import ChoreographyError
from repro.instances.migrate import MigrationReport, classify_migration
from repro.instances.store import InstanceStore


@dataclass
class BilateralCheck:
    """Result of one pairwise consistency check.

    Attributes:
        left, right: partner names (process names).
        consistent: non-emptiness of the intersection of mutual views.
        witness: diagnosis (a witness conversation, or the blocked
            states with their unsupported mandatory messages).
    """

    left: str
    right: str
    consistent: bool
    witness: EmptinessWitness

    def describe(self) -> str:
        status = "consistent" if self.consistent else "INCONSISTENT"
        return f"{self.left} ↔ {self.right}: {status} ({self.witness.describe()})"


@dataclass
class ConsistencyReport:
    """Aggregate outcome of :meth:`Choreography.check_consistency`."""

    checks: list[BilateralCheck] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """True when every bilateral conversation is deadlock-free."""
        return all(check.consistent for check in self.checks)

    def failures(self) -> list[BilateralCheck]:
        """Return the inconsistent pairs."""
        return [check for check in self.checks if not check.consistent]

    def describe(self) -> str:
        lines = [check.describe() for check in self.checks]
        verdict = (
            "choreography is consistent"
            if self.consistent
            else "choreography is INCONSISTENT"
        )
        return "\n".join(lines + [verdict])


class Choreography:
    """The partners of a cross-organizational process and their models.

    Partners are identified by their *party* identifier (the letter in
    message labels); each holds a private process whose public process
    is compiled lazily and cached until the private process changes.
    """

    def __init__(self, name: str = "choreography"):
        self.name = name
        self._private: dict[str, ProcessModel] = {}
        self._compiled: dict[str, CompiledProcess] = {}
        self._policy: dict[str, str] = {}
        self._versions: dict[str, int] = {}
        self._lineage: dict[str, AFSA] = {}
        self.instances: InstanceStore | None = None

    # -- partner management ------------------------------------------------

    def add_partner(
        self, process: ProcessModel, policy: str | None = None
    ) -> None:
        """Register a partner by its private *process*.

        Args:
            process: the private process (its ``party`` must be unique
                within the choreography).
            policy: optional compiler annotation policy override.
        """
        party = process.party
        if party in self._private:
            raise ChoreographyError(
                f"party {party!r} already registered "
                f"(process {self._private[party].name!r})"
            )
        self._private[party] = process
        self._versions[party] = 1
        if policy is not None:
            self._policy[party] = policy

    def parties(self) -> list[str]:
        """Return the registered party identifiers (sorted)."""
        return sorted(self._private)

    def private(self, party: str) -> ProcessModel:
        """Return the private process of *party*."""
        self._require(party)
        return self._private[party]

    def replace_private(
        self,
        party: str,
        process: ProcessModel,
        migrate_instances: bool = False,
        migration_workers: int | None = None,
        migration_runtime=None,
    ) -> MigrationReport | None:
        """Install a new private process version for *party*.

        The cached public process is invalidated and the party's
        version counter advances; Fig. 4's flow (recreate the public
        view, then check partners) is driven by
        :class:`~repro.core.engine.EvolutionEngine`.  When the old
        version had been compiled, it is retained as the party's
        *lineage* anchor: the next projection of the party's views
        registers old → new kernel lineage
        (:func:`repro.afsa.lazy.note_lineage`), so post-evolution
        consistency sweeps seed their lazy explorations from the old
        products' surviving regions instead of starting cold.

        With ``migrate_instances=True`` and an attached instance store,
        the running instances of the party's *current* version are
        classified against the new public process (old model retained
        for the stranded-vs-divergent distinction) and the verdicts are
        applied: migratable instances carry forward to the new version,
        pending/stranded ones stay behind with their verdict as status.
        Returns the :class:`~repro.instances.migrate.MigrationReport`
        (None when no migration was requested or possible).
        """
        self._require(party)
        if process.party != party:
            raise ChoreographyError(
                f"process {process.name!r} belongs to party "
                f"{process.party!r}, not {party!r}"
            )
        old_version = self.current_version(party)
        old_public = None
        migrating = (
            migrate_instances
            and self.instances is not None
            and self.instances.has(old_version)
        )
        if migrating:
            old_public = self.public(party)
        old_compiled = self._compiled.get(party)
        previous_anchor = self._lineage.get(party)
        self._private[party] = process
        self._compiled.pop(party, None)
        self._versions[party] += 1
        if old_compiled is not None:
            # Latest ancestor only: chained evolutions re-anchor.
            self._lineage[party] = old_compiled.afsa
        if (
            previous_anchor is not None
            and old_compiled is not None
            and previous_anchor is not old_compiled.afsa
        ):
            # The n-2 version just lost its last pin: drop its
            # entry from the default arena (the same
            # moment the verdict cache and view memo lose it to
            # reachability — compile eviction, extended to the arena).
            from repro.core.runtime import discard_kernel

            discard_kernel(getattr(previous_anchor, "_kernel", None))
        if not migrating:
            return None
        return classify_migration(
            self.instances,
            old_public,
            self.public(party),
            version=old_version,
            new_version=self.current_version(party),
            workers=migration_workers,
            apply=True,
            runtime=migration_runtime,
        )

    # -- running instances -------------------------------------------------

    def current_version(self, party: str) -> str:
        """The version id instances of *party* are stamped with."""
        self._require(party)
        return f"{party}#v{self._versions[party]}"

    def attach_instances(
        self, store: InstanceStore | None = None
    ) -> InstanceStore:
        """Attach (creating if needed) the running-instance store."""
        if store is not None:
            self.instances = store
        elif self.instances is None:
            self.instances = InstanceStore()
        return self.instances

    def spawn_fleet(
        self, party: str, instances: int, seed: int = 0, **fleet_kwargs
    ) -> InstanceStore:
        """Generate a fleet running *party*'s current public process.

        Convenience wrapper over
        :func:`repro.workload.fleet.generate_fleet`: records are
        stamped with the party's current version id and appended to the
        attached store (attaching one on first use).
        """
        from repro.workload.fleet import generate_fleet

        return generate_fleet(
            self.public(party),
            instances,
            seed=seed,
            version=self.current_version(party),
            store=self.attach_instances(),
            **fleet_kwargs,
        )

    # -- derived artifacts ------------------------------------------------

    def compiled(self, party: str) -> CompiledProcess:
        """Return (and cache) the compiled public process of *party*."""
        self._require(party)
        if party not in self._compiled:
            kwargs = {}
            if party in self._policy:
                kwargs["policy"] = self._policy[party]
            self._compiled[party] = compile_process(
                self._private[party], **kwargs
            )
        return self._compiled[party]

    def public(self, party: str) -> AFSA:
        """Return the (minimized) public process of *party*."""
        return self.compiled(party).afsa

    def view(self, viewer: str, on: str) -> AFSA:
        """Return τ_viewer(public process of *on*) (Sect. 3.4).

        Effectively cached per process version: :func:`project_view`
        memoizes per public-aFSA instance and :meth:`compiled` serves
        the same instance until :meth:`replace_private` evicts it, so
        the consistency sweep and the evolution engine project each
        public process once per partner, not once per check.

        When *on* carries evolution lineage (its private process was
        replaced), the old and new view kernels are registered with
        :func:`repro.afsa.lazy.note_lineage` here — views are exactly
        the operands the consistency sweeps explore, so the first
        post-evolution sweep of every partner pair starts warm.
        """
        self._require(viewer)
        public = self.public(on)
        view = project_view(public, viewer)
        old_public = self._lineage.get(on)
        if old_public is not None:
            note_lineage(kernel_of(old_public), kernel_of(public))
            note_lineage(
                kernel_of(project_view(old_public, viewer)),
                kernel_of(view),
            )
        return view

    def conversation_partners(self, party: str) -> list[str]:
        """Return the parties *party* exchanges messages with."""
        alphabet = self.public(party).alphabet
        return sorted(
            name
            for name in alphabet.partners()
            if name != party and name in self._private
        )

    # -- consistency ---------------------------------------------------------

    def bilateral_consistent(self, left: str, right: str) -> bool:
        """Bilateral consistency (deadlock freedom) of two parties.

        Runs the fused lazy product-emptiness engine on the interned
        view kernels: pair states are explored on the fly and the
        check stops as soon as the verdict is certain; no intersection
        automaton is materialized.  Because the views are memoized per
        process version, re-asking about an unchanged pair is a
        :data:`~repro.afsa.lazy.VERDICTS` cache hit.
        """
        return is_consistent(
            self.view(right, on=left), self.view(left, on=right)
        )

    def check_consistency(self, workers: int | None = None) -> ConsistencyReport:
        """Run all pairwise checks (decentralized scheme of Sect. 6).

        Only pairs that actually exchange messages are checked; each
        check needs nothing but the two public processes, which is
        exactly the information partners exchange.  The pair grid is
        dispatched through the batched sweep engine
        (:mod:`repro.core.sweep`): verdicts come from the lazy
        pair-exploration engine, the full diagnostic witnesses this
        report carries are streamed from the same retained
        explorations (:func:`repro.afsa.witness.lazy_pair_witness`)
        and cached per pair, and ``workers > 1`` fans the grid out
        over forked shards without changing any verdict.
        """
        sweep = sweep_choreography(
            self, witnesses=WITNESS_ALL, workers=workers
        )
        report = ConsistencyReport()
        for outcome in sweep.outcomes:
            report.checks.append(
                BilateralCheck(
                    left=self._private[outcome.left].name,
                    right=self._private[outcome.right].name,
                    consistent=outcome.consistent,
                    witness=outcome.witness,
                )
            )
        return report

    # -- internal ---------------------------------------------------------

    def _require(self, party: str) -> None:
        if party not in self._private:
            raise ChoreographyError(
                f"unknown party {party!r}; registered: "
                f"{', '.join(self.parties()) or '(none)'}"
            )
