"""The instance store: lightweight records for running conversations.

A fleet of running choreography instances is, per instance, nothing but
``(version id, executed trace, status)``.  The store keeps records cheap
enough for fleets of thousands to millions:

* traces are interned twice — every label through the process-wide
  :data:`repro.messages.alphabet.INTERNER` (so a trace is a tuple of
  dense ints comparable by identity-friendly equality), and every
  distinct trace *tuple* through a store-local table, so ten thousand
  instances replaying the same conversation share one tuple object;
* records are ``__slots__`` objects with no behavior;
* the store's primary read path is :meth:`classes` — the
  (version, trace) equivalence classes the batched migration sweep
  groups by before touching the kernel.
"""

from __future__ import annotations

from repro.messages.alphabet import INTERNER

#: Status of an instance that is live on its version (the initial one;
#: migration verdicts from :mod:`repro.instances.migrate` replace it).
RUNNING = "running"


class InstanceRecord:
    """One running instance: version id, interned trace, status."""

    __slots__ = ("id", "version", "trace", "status")

    def __init__(self, id: int, version: str, trace: tuple, status: str):
        self.id = id
        self.version = version
        self.trace = trace
        self.status = status

    def __repr__(self) -> str:
        return (
            f"InstanceRecord(id={self.id}, version={self.version!r}, "
            f"events={len(self.trace)}, status={self.status!r})"
        )


class InstanceStore:
    """Holds the running-instance fleet of a choreography."""

    def __init__(self):
        self._records: list[InstanceRecord] = []
        self._trace_table: dict = {}
        self._dirty: dict = {}

    # -- building ----------------------------------------------------------

    def intern_trace(self, labels) -> tuple:
        """Intern a message log to a shared tuple of dense label ids.

        Accepts label objects, ``"A#B#op"`` strings, or already-interned
        dense ids; distinct logs with equal content come back as the
        *same* tuple object.
        """
        intern = INTERNER.intern
        trace = tuple(
            label if isinstance(label, int) else intern(label)
            for label in labels
        )
        shared = self._trace_table.get(trace)
        if shared is None:
            self._trace_table[trace] = trace
            return trace
        return shared

    def add(self, version: str, labels, status: str = RUNNING) -> InstanceRecord:
        """Register one instance; returns its record.

        New records count as dirty: an incremental classifier built
        before the spawn folds them in on its next refresh instead of
        silently reporting a fleet that no longer exists.
        """
        return self.add_interned(version, self.intern_trace(labels), status)

    def add_interned(
        self, version: str, trace: tuple, status: str = RUNNING
    ) -> InstanceRecord:
        """:meth:`add` for a *trace* this store's :meth:`intern_trace`
        returned: the shared tuple is recorded as is, without interning
        its labels again (fleet generation adds thousands of records
        drawn from a few dozen traces)."""
        record = InstanceRecord(
            id=len(self._records),
            version=version,
            trace=trace,
            status=status,
        )
        self._records.append(record)
        self._dirty[record.id] = record
        return record

    def spawn(self, version: str, traces) -> list[InstanceRecord]:
        """Register one instance per trace in *traces*."""
        return [self.add(version, labels) for labels in traces]

    def extend(self, instance_id: int, events) -> InstanceRecord:
        """Append executed *events* to an instance's trace.

        The extended trace is re-interned (instances converging on the
        same conversation share one tuple again) and the record is
        marked dirty, so an incremental classifier
        (:class:`~repro.instances.migrate.FleetClassifier`) re-checks
        only the affected (version, trace) classes — and because the
        old trace is a *prefix* of the new one, its replay resumes
        from the trie's stored prefix states.
        """
        record = self._records[instance_id]
        intern = INTERNER.intern
        suffix = tuple(
            event if isinstance(event, int) else intern(event)
            for event in events
        )
        if suffix:
            record.trace = self.intern_trace(record.trace + suffix)
            self._dirty[record.id] = record
        return record

    def collect_dirty(
        self, version: str | None = None
    ) -> list[InstanceRecord]:
        """Return (and clear) the records extended since the last
        collection — the delta an incremental classifier consumes.

        With *version*, only matching records are collected; dirt of
        other versions stays queued for its own consumer (a classifier
        bound to ``A#v2`` must not lose extensions because an ``A#v1``
        classifier refreshed first).
        """
        if version is None:
            records = list(self._dirty.values())
            self._dirty.clear()
            return records
        records = [
            record
            for record in self._dirty.values()
            if record.version == version
        ]
        for record in records:
            del self._dirty[record.id]
        return records

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def get(self, instance_id: int) -> InstanceRecord:
        """Return the record with the given id."""
        return self._records[instance_id]

    def has(
        self, version: str | None = None, status: str | None = None
    ) -> bool:
        """True when any record matches — short-circuits at the first
        hit instead of materializing the filtered list."""
        return any(
            (version is None or record.version == version)
            and (status is None or record.status == status)
            for record in self._records
        )

    def instances(
        self, version: str | None = None, status: str | None = None
    ) -> list[InstanceRecord]:
        """Records filtered by version and/or status (None = any)."""
        return [
            record
            for record in self._records
            if (version is None or record.version == version)
            and (status is None or record.status == status)
        ]

    def classes(
        self, version: str | None = None, status: str | None = None
    ) -> dict:
        """The ``(version, trace) → records`` equivalence classes.

        This is what the migration sweep batches over: every class is
        replayed and classified once, however many instances share it.
        Keys are ``(version id, shared interned trace tuple)`` pairs —
        records of *different* versions never merge, even when they
        executed the same log — listed in first-seen (= instance id)
        order.
        """
        # Traces are interned to shared tuple objects, so grouping can
        # key on object identity — O(1) per record instead of hashing
        # the whole tuple for every instance of a long conversation.
        classes: dict = {}
        by_identity: dict = {}
        for record in self._records:
            if version is not None and record.version != version:
                continue
            if status is not None and record.status != status:
                continue
            trace = record.trace
            key = (record.version, id(trace))
            bucket = by_identity.get(key)
            if bucket is None:
                bucket = by_identity[key] = [record]
                classes[(record.version, trace)] = bucket
            else:
                bucket.append(record)
        return classes

    def versions(self) -> list[str]:
        """The version ids present in the store (sorted)."""
        return sorted({record.version for record in self._records})

    def status_counts(self, version: str | None = None) -> dict:
        """Histogram of statuses (optionally restricted to a version)."""
        counts: dict = {}
        for record in self.instances(version=version):
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @staticmethod
    def trace_texts(record: InstanceRecord) -> list[str]:
        """The record's trace as canonical label texts."""
        text_of = INTERNER.text
        return [text_of(label_id) for label_id in record.trace]
