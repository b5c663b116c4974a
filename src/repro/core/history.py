"""Process version histories.

The paper's outlook (Sect. 8): "The co-existence of different versions
of a process choreography is a must" for long-running choreographies.
This module provides the version bookkeeping that makes the change
framework operational over time:

* :class:`ProcessHistory` — an append-only sequence of private-process
  versions with the change operation (or free-form note) that produced
  each one;
* per-step public-process classification (Def. 5) between consecutive
  versions, computed lazily and cached;
* lookup of the last version whose public process is consistent with a
  given partner view (the version a not-yet-migrated partner can keep
  talking to).

Histories are in-memory value objects; persistence is one
``to_dict``/``from_dict`` pair away and deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.automaton import AFSA
from repro.afsa.emptiness import is_consistent
from repro.bpel.compile import CompiledProcess, compile_process
from repro.bpel.model import ProcessModel
from repro.core.changes import ChangeOperation
from repro.core.classify import ChangeClassification, classify_change
from repro.errors import ChoreographyError


@dataclass
class ProcessVersion:
    """One version of a private process.

    Attributes:
        number: 1-based version number.
        process: the private process model (treat as immutable).
        note: how this version came to be (change description).
    """

    number: int
    process: ProcessModel
    note: str = ""
    _compiled: CompiledProcess | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def compiled(self) -> CompiledProcess:
        """The compiled public process (cached)."""
        if self._compiled is None:
            self._compiled = compile_process(self.process)
        return self._compiled

    @property
    def public(self) -> AFSA:
        """The minimized public process of this version."""
        return self.compiled.afsa


class ProcessHistory:
    """Append-only version history of one partner's private process."""

    def __init__(self, initial: ProcessModel, note: str = "initial"):
        self._versions: list[ProcessVersion] = [
            ProcessVersion(number=1, process=initial, note=note)
        ]

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._versions)

    def version(self, number: int) -> ProcessVersion:
        """Return version *number* (1-based)."""
        if not 1 <= number <= len(self._versions):
            raise ChoreographyError(
                f"version {number} out of range 1..{len(self._versions)}"
            )
        return self._versions[number - 1]

    @property
    def head(self) -> ProcessVersion:
        """The newest version."""
        return self._versions[-1]

    def versions(self) -> list[ProcessVersion]:
        """All versions, oldest first."""
        return list(self._versions)

    # -- evolution ----------------------------------------------------------

    def commit(
        self,
        change: ChangeOperation | ProcessModel,
        note: str = "",
    ) -> ProcessVersion:
        """Append a new version produced by *change*.

        Args:
            change: a change operation applied to the head version, or
                a complete replacement process.
            note: free-form description; defaults to the operation's
                ``describe()``.
        """
        if isinstance(change, ProcessModel):
            process = change
            note = note or f"replaced with {change.name!r}"
        else:
            process = change.apply(self.head.process)
            note = note or change.describe()
        version = ProcessVersion(
            number=len(self._versions) + 1, process=process, note=note
        )
        self._versions.append(version)
        return version

    # -- analysis -------------------------------------------------------------

    def classify_step(self, number: int) -> ChangeClassification:
        """Classify the public-process change from version *number* to
        *number + 1* (Def. 5)."""
        old = self.version(number)
        new = self.version(number + 1)
        return classify_change(old.public, new.public)

    def changelog(self) -> list[tuple[int, str, str]]:
        """Return ``(version, note, Def. 5 verdict)`` rows.

        The first version's verdict is ``"-"``; later rows classify the
        step *into* that version.
        """
        rows: list[tuple[int, str, str]] = [(1, self._versions[0].note, "-")]
        for number in range(1, len(self._versions)):
            classification = self.classify_step(number)
            rows.append(
                (
                    number + 1,
                    self._versions[number].note,
                    classification.framework,
                )
            )
        return rows

    def latest_consistent_with(
        self, partner_view: AFSA, partner: str
    ) -> int | None:
        """Return the newest version number whose public process is
        bilaterally consistent with *partner_view*, or ``None``.

        This answers the migration question of Sect. 8: a partner that
        has not migrated yet can keep interacting with any version
        consistent with its own public process.

        Args:
            partner_view: the partner's (bilateral) public process.
            partner: the partner's party identifier — each version's
                public process is projected onto that conversation
                before the check (Sect. 3.4).

        Each check is the lazy (cached) consistency verdict; no
        product automaton is built.
        """
        from repro.afsa.view import project_view

        for version in reversed(self._versions):
            bilateral = project_view(version.public, partner)
            if is_consistent(bilateral, partner_view):
                return version.number
        return None

    def render(self) -> str:
        """Render the changelog as a table."""
        lines = ["Ver | Def. 5      | Note", "-" * 56]
        for number, note, verdict in self.changelog():
            lines.append(f"{number:>3} | {verdict:<11} | {note}")
        return "\n".join(lines)
