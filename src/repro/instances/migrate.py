"""Batched migration classification of running-instance fleets.

When a partner evolves (Sect. 5), every instance already running on the
old model must be dispositioned.  Per the paper's compliance criterion
an instance is

* **migratable** — its executed log replays into the new model and the
  residual language from the reached states is non-empty under the
  annotated emptiness test (the incremental
  :func:`~repro.afsa.kernel.k_good_states` of PR 2): the conversation
  can be carried forward on the new version and complete correctly;
* **pending** — the log replays and a completion exists structurally,
  but every continuation is blocked on mandatory messages without
  support in the new model (annotated residual empty, classical
  residual non-empty): migration must wait for partner confirmation;
* **stranded** — the log has diverged from the new model or sits in a
  dead region; the instance cannot be migrated.

Classification is *batched*: the fleet is grouped into (version, trace)
equivalence classes first (:meth:`~repro.instances.store.InstanceStore.
classes`), each class is replayed once through the memoized
:class:`~repro.instances.replay.ReplayCache`, and verdicts are
broadcast to every member.  With ``workers > 1`` the distinct classes
are fanned out through the persistent evolution runtime
(:mod:`repro.core.runtime`): the models are *published once* to the
content-addressed kernel arena and chunks carry digest references plus
trace texts, workers resolve and memoize the kernels (and their replay
tries) by digest across dispatches, trace classes route to shards by
rendezvous hashing on model digest + trace content, and results return
in input order, so verdicts and witnesses are identical for every
worker count, transport, completion order, and across pool restarts.
The classes travel through the runtime's one pipelined scheduler
(:meth:`~repro.core.runtime.EvolutionRuntime.map_chunked`, one chunk
per shard), so migration gets the sweep's window, speculation and
drain.  The residual-liveness verdicts themselves ride the memoized
incremental good set of each model's kernel; repeated classifications
against an unchanged model pair reuse it for free.

Between evolution steps, running instances keep exchanging messages.
:class:`FleetClassifier` is the *incremental* maintenance path for that
regime: it holds the per-trace verdicts of one fleet classification,
and after :meth:`InstanceStore.extend` grows some instances' logs,
:meth:`FleetClassifier.refresh` re-checks only the affected
(version, trace) classes — each replay resumes from the
:class:`~repro.instances.replay.ReplayCache` trie's stored prefix
states, so the cost is proportional to the *new events and touched
classes*, not to the fleet.

:func:`classify_trace_reference` is the deliberately naive oracle: one
instance at a time, stepping public :class:`~repro.afsa.automaton.AFSA`
state sets exactly like :mod:`repro.afsa.simulate` does, no cache, no
grouping.  The property suite asserts verdict-for-verdict agreement and
the scaling bench measures the fleet-level speedup against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import Kernel, kernel_of
from repro.core.runtime import (
    EvolutionRuntime,
    _injected_fault_delay,
    get_runtime,
    kernel_for,
)
from repro.instances.replay import (
    MIGRATABLE,
    PENDING,
    STRANDED,
    ReplayCache,
    blocked_messages,
    classify_states,
    continuation_witness,
)
from repro.instances.store import RUNNING, InstanceStore
from repro.messages.alphabet import INTERNER
from repro.messages.label import label_text

#: Witness policies (mirroring :mod:`repro.core.sweep`): no witnesses,
#: diagnosis only for pending/stranded classes, or the full report with
#: continuation witnesses for migratable classes as well.
WITNESS_NONE = "none"
WITNESS_FAILURES = "failures"
WITNESS_ALL = "all"


@dataclass(slots=True)
class InstanceVerdict:
    """Disposition of one instance in a migration report.

    Attributes:
        instance: instance id in the store.
        verdict: :data:`MIGRATABLE`, :data:`PENDING` or :data:`STRANDED`.
        continuation: for migratable instances under the ``all`` witness
            policy, a shortest completion word on the new model (label
            texts; may be empty when a good final is already occupied).
        blocked_on: for pending (and annotation-dead stranded)
            instances, the unsupported mandatory messages.
        compliant_with_old: for non-migratable instances when the old
            model was provided — True when the log still replays to a
            live state of the *old* model (genuinely stranded by the
            evolution step) and False for divergent garbage logs.
    """

    instance: int
    verdict: str
    continuation: list | None = None
    blocked_on: list = field(default_factory=list)
    compliant_with_old: bool | None = None


@dataclass(slots=True)
class ClassVerdict:
    """Disposition of one (version, trace) equivalence class.

    ``records`` is the *shared* member list from the store grouping —
    a class verdict costs O(1) however many instances share the trace.
    """

    records: list
    verdict: str
    continuation: list | None = None
    blocked_on: list = field(default_factory=list)
    compliant_with_old: bool | None = None


class MigrationReport:
    """Aggregate outcome of one fleet classification.

    The primary representation is *per class* (:attr:`class_verdicts`):
    the sweep determines one verdict per distinct trace and the report
    keeps it that way, so classifying a 10k-instance fleet allocates a
    few dozen objects, not ten thousand.  :attr:`verdicts` expands to
    per-instance :class:`InstanceVerdict` records lazily (cached) for
    callers that want the flat view.

    Attributes:
        old_version / new_version: version ids (informational).
        class_verdicts: per-class dispositions, in first-seen order.
        classes: number of distinct (version, trace) equivalence
            classes actually replayed — the batching denominator.
        workers: worker processes used (1 = serial).
        applied: True when the verdicts were written back to the store.
    """

    def __init__(
        self,
        old_version: str = "",
        new_version: str = "",
        workers: int = 1,
        live: bool = False,
    ):
        self.old_version = old_version
        self.new_version = new_version
        self.class_verdicts: list[ClassVerdict] = []
        self.workers = workers
        self.applied = False
        #: Classifier-built reports share *live* record views that a
        #: later refresh mutates; they re-expand per access so counts
        #: and verdicts always describe the same (current) state.
        self.live = live
        self._expanded: list[InstanceVerdict] | None = None

    @property
    def classes(self) -> int:
        """Distinct (version, trace) classes replayed — the batching
        denominator of the O(classes) cost model."""
        return len(self.class_verdicts)

    @property
    def verdicts(self) -> list[InstanceVerdict]:
        """Per-instance dispositions, in instance-id order (lazy; not
        cached on :attr:`live` reports)."""
        if self._expanded is None or self.live:
            expanded = [
                InstanceVerdict(
                    instance=record.id,
                    verdict=entry.verdict,
                    continuation=entry.continuation,
                    blocked_on=entry.blocked_on,
                    compliant_with_old=entry.compliant_with_old,
                )
                for entry in self.class_verdicts
                for record in entry.records
            ]
            expanded.sort(key=lambda verdict: verdict.instance)
            if self.live:
                return expanded
            self._expanded = expanded
        return self._expanded

    @property
    def counts(self) -> dict:
        """Histogram verdict → instance count (O(classes))."""
        result: dict = {}
        for entry in self.class_verdicts:
            result[entry.verdict] = result.get(entry.verdict, 0) + len(
                entry.records
            )
        return result

    def of(self, verdict: str) -> list[InstanceVerdict]:
        """The per-instance verdicts with the given disposition."""
        return [entry for entry in self.verdicts if entry.verdict == verdict]

    @property
    def migratable(self) -> list[InstanceVerdict]:
        """Instances that can carry forward to the new version."""
        return self.of(MIGRATABLE)

    @property
    def pending(self) -> list[InstanceVerdict]:
        """Instances compliant so far but not yet decidable."""
        return self.of(PENDING)

    @property
    def stranded(self) -> list[InstanceVerdict]:
        """Instances whose executed trace the new version rejects."""
        return self.of(STRANDED)

    def describe(self) -> str:
        """The version arrow, totals, and the verdict histogram."""
        counts = self.counts
        total = sum(counts.values())
        arrow = (
            f"{self.old_version or '?'} → {self.new_version or '?'}"
        )
        lines = [
            f"migration {arrow}: {total} instance(s) in "
            f"{self.classes} trace class(es)",
            "  migratable: {m}  pending: {p}  stranded: {s}".format(
                m=counts.get(MIGRATABLE, 0),
                p=counts.get(PENDING, 0),
                s=counts.get(STRANDED, 0),
            ),
        ]
        divergent = sum(
            len(entry.records)
            for entry in self.class_verdicts
            if entry.compliant_with_old is False
        )
        if divergent:
            lines.append(
                f"  ({divergent} non-migratable log(s) were divergent "
                f"from the old model already)"
            )
        blocked: set = set()
        for entry in self.class_verdicts:
            blocked.update(entry.blocked_on)
        if blocked:
            lines.append(
                "  blocked on unsupported mandatory message(s): "
                + ", ".join(sorted(blocked))
            )
        return "\n".join(lines)


# -- per-class classification -------------------------------------------------


def _classify_ids(
    new_kernel: Kernel,
    cache: ReplayCache,
    old_kernel: Kernel | None,
    old_cache: ReplayCache | None,
    label_ids,
    witnesses: str,
) -> tuple:
    """Classify one trace class; returns a picklable result tuple."""
    states = cache.replay(label_ids)
    verdict = classify_states(new_kernel, states)
    continuation = None
    blocked: list = []
    if verdict == MIGRATABLE:
        if witnesses == WITNESS_ALL:
            continuation = [
                label_text(label)
                for label in continuation_witness(new_kernel, states)
            ]
    elif witnesses != WITNESS_NONE and states:
        blocked = blocked_messages(new_kernel, states)
    compliant_with_old = None
    if old_kernel is not None and verdict != MIGRATABLE:
        old_states = old_cache.replay(label_ids)
        compliant_with_old = (
            classify_states(old_kernel, old_states) == MIGRATABLE
        )
    return (verdict, continuation, blocked, compliant_with_old)


def _classify_arena_chunk(payload):
    """Shard worker: resolve the models by content digest (a memo hit
    after the first dispatch — the kernel *and* its replay trie
    persist across a long-lived shard's tasks, on any transport),
    classify a chunk of classes."""
    new_digest, old_digest, traces, witnesses = payload
    _injected_fault_delay(len(traces))
    new_kernel = kernel_for(new_digest)
    cache = ReplayCache.for_kernel(new_kernel)
    old_kernel = None
    old_cache = None
    if old_digest is not None:
        old_kernel = kernel_for(old_digest)
        old_cache = ReplayCache.for_kernel(old_kernel)
    intern = INTERNER.intern
    return [
        _classify_ids(
            new_kernel,
            cache,
            old_kernel,
            old_cache,
            [intern(text) for text in trace_texts],
            witnesses,
        )
        for trace_texts in traces
    ], None


# -- fleet classification -----------------------------------------------------


def classify_fleet(
    store: InstanceStore,
    target: AFSA,
    version: str | None = None,
    old_model: AFSA | None = None,
    new_version: str = "",
    witnesses: str = WITNESS_ALL,
    workers: int | None = None,
    apply: bool = False,
    runtime: EvolutionRuntime | None = None,
) -> MigrationReport:
    """Classify the (filtered) fleet against *target*.

    Args:
        store: the running-instance fleet.
        target: the new public model instances should migrate to.
        version: only classify instances of this version (None = all).
        old_model: the old model; when given, non-migratable verdicts
            carry the stranded-by-evolution vs. divergent-log
            distinction (``compliant_with_old``).
        new_version: version id recorded in the report and written to
            migrated records when *apply* is set.
        witnesses: witness policy (:data:`WITNESS_NONE`,
            :data:`WITNESS_FAILURES`, :data:`WITNESS_ALL`).
        workers: fan the distinct trace classes out over this many
            worker processes; ``None``/``0``/``1`` classifies serially.
            Verdicts and witnesses are identical for every value.
        apply: write the verdicts back to the store — migratable
            records move to *new_version* (status stays running),
            pending/stranded records keep their version with the
            verdict as status.
        runtime: the persistent runtime to dispatch through (defaults
            to the process-wide :func:`~repro.core.runtime.get_runtime`
            when fan-out is requested).
    """
    classes = store.classes(version=version)
    # Replay each distinct trace once even when several versions share
    # it (identity-deduped; the verdict depends only on the trace).
    trace_by_id: dict = {}
    for _, trace in classes:
        trace_by_id.setdefault(id(trace), trace)
    ordered = list(trace_by_id.values())

    if workers and workers > 1 and len(ordered) > 1:
        # The models are published once to the content-addressed
        # arena (an arena hit for every later classification of the
        # same version pair); chunks carry digests + trace texts.
        runtime = runtime or get_runtime()
        kernels = [kernel_of(target)]
        if old_model is not None:
            kernels.append(kernel_of(old_model))
        text_of = INTERNER.text
        with runtime.published(kernels) as digests:
            new_digest = digests[0]
            old_digest = digests[1] if old_model is not None else None
            ordered_results, _, _ = runtime.map_chunked(
                _classify_arena_chunk,
                ordered,
                lambda chunk: (
                    new_digest,
                    old_digest,
                    [
                        [text_of(label_id) for label_id in trace]
                        for trace in chunk
                    ],
                    witnesses,
                ),
                workers,
                # Content routing key: the model pair's digests plus
                # the trace texts — interner ids are process-local, so
                # the key ships as text, exactly like the payload.
                key_of=lambda trace: "|".join(
                    [digests[0]]
                    + [text_of(label_id) for label_id in trace]
                ),
            )
        results_by_id = {
            id(trace): result
            for trace, result in zip(ordered, ordered_results)
        }
    else:
        new_kernel = kernel_of(target)
        cache = ReplayCache.for_kernel(new_kernel)
        old_kernel = None
        old_cache = None
        if old_model is not None:
            old_kernel = kernel_of(old_model)
            old_cache = ReplayCache.for_kernel(old_kernel)
        results_by_id = {
            id(trace): _classify_ids(
                new_kernel, cache, old_kernel, old_cache, trace, witnesses
            )
            for trace in ordered
        }

    report = MigrationReport(
        old_version=version or "",
        new_version=new_version,
        workers=workers or 1,
    )
    for (_, trace), records in classes.items():
        verdict, continuation, blocked, compliant_with_old = results_by_id[
            id(trace)
        ]
        report.class_verdicts.append(
            ClassVerdict(
                records=records,
                verdict=verdict,
                continuation=continuation,
                blocked_on=blocked,
                compliant_with_old=compliant_with_old,
            )
        )
        if apply:
            for record in records:
                if verdict == MIGRATABLE:
                    if new_version:
                        record.version = new_version
                    record.status = RUNNING
                else:
                    record.status = verdict
    report.applied = apply
    return report


def classify_migration(
    store: InstanceStore,
    old: AFSA,
    new: AFSA,
    version: str | None = None,
    new_version: str = "",
    witnesses: str = WITNESS_ALL,
    workers: int | None = None,
    apply: bool = False,
    runtime: EvolutionRuntime | None = None,
) -> MigrationReport:
    """Classify a fleet across one evolution step (*old* → *new*).

    Thin wrapper over :func:`classify_fleet` that always carries the
    old model, so the report distinguishes instances stranded *by the
    change* from logs that never fit the old model either.
    """
    return classify_fleet(
        store,
        new,
        version=version,
        old_model=old,
        new_version=new_version,
        witnesses=witnesses,
        workers=workers,
        apply=apply,
        runtime=runtime,
    )


# -- incremental fleet maintenance --------------------------------------------


class _ClassEntry:
    """One live (version, trace) class inside a :class:`FleetClassifier`:
    its shared trace, its members keyed by instance id, and the class's
    :class:`ClassVerdict` (whose ``records`` is a *live view* of the
    member dict, so membership edits show up in already-built reports
    without any per-instance copying)."""

    __slots__ = ("trace", "members", "verdict")

    def __init__(self, trace: tuple, result: tuple):
        self.trace = trace
        self.members: dict = {}
        verdict, continuation, blocked, compliant_with_old = result
        self.verdict = ClassVerdict(
            records=self.members.values(),
            verdict=verdict,
            continuation=continuation,
            blocked_on=blocked,
            compliant_with_old=compliant_with_old,
        )


class FleetClassifier:
    """Incremental re-classification of a fleet as its logs grow.

    Binds one (store, old model, new model) triple, classifies the
    fleet once, then maintains the verdicts as instances *extend*
    their traces (:meth:`InstanceStore.extend`):

    * per-trace results are memoized by trace identity (the store
      interns trace tuples, so identity is a sound key and ids are
      pinned for the store's lifetime);
    * :meth:`refresh` consumes the store's dirty set and touches only
      the affected (version, trace) classes — a record leaves its old
      class in O(1), joins an existing class in O(1), and only a
      never-seen trace is classified, with the replay resuming from
      the :class:`~repro.instances.replay.ReplayCache` trie's stored
      prefix states (cost: the *new* events, not the whole log);
    * the returned :class:`MigrationReport` shares live class views,
      so building it costs O(classes), never O(fleet).

    The classifier never writes verdicts back to the store; it is the
    monitoring path, not the commit path.  It stays valid while the
    bound models are unchanged — an evolution step means a new
    classifier (and a fresh full classification).
    """

    def __init__(
        self,
        store: InstanceStore,
        target: AFSA,
        version: str | None = None,
        old_model: AFSA | None = None,
        new_version: str = "",
        witnesses: str = WITNESS_ALL,
    ):
        self.store = store
        self.version = version
        self.new_version = new_version
        self.witnesses = witnesses
        self._new_kernel = kernel_of(target)
        self._cache = ReplayCache.for_kernel(self._new_kernel)
        self._old_kernel = (
            kernel_of(old_model) if old_model is not None else None
        )
        self._old_cache = (
            ReplayCache.for_kernel(self._old_kernel)
            if self._old_kernel is not None
            else None
        )
        self._results: dict = {}  # id(trace) -> result tuple
        self._classes: dict = {}  # (version, id(trace)) -> _ClassEntry
        self._membership: dict = {}  # instance id -> class key
        self.reclassified = 0  # distinct traces actually classified
        # The initial build covers this classifier's whole slice; only
        # its own version's dirt is consumed — other versions' deltas
        # stay queued for their consumers.
        store.collect_dirty(version=version)
        for (record_version, trace), records in store.classes(
            version=version
        ).items():
            entry = self._class_for(record_version, trace)
            for record in records:
                entry.members[record.id] = record
                self._membership[record.id] = (
                    record_version,
                    id(trace),
                )

    def _result_for(self, trace: tuple) -> tuple:
        result = self._results.get(id(trace))
        if result is None:
            result = _classify_ids(
                self._new_kernel,
                self._cache,
                self._old_kernel,
                self._old_cache,
                trace,
                self.witnesses,
            )
            self._results[id(trace)] = result
            self.reclassified += 1
        return result

    def _class_for(self, version: str, trace: tuple) -> _ClassEntry:
        key = (version, id(trace))
        entry = self._classes.get(key)
        if entry is None:
            entry = _ClassEntry(trace, self._result_for(trace))
            self._classes[key] = entry
        return entry

    def refresh(self) -> MigrationReport:
        """Fold the store's extended instances into the verdicts.

        Only the classes that gained or lost members are touched; the
        report lists classes in first-seen order with re-classified
        classes appended, exactly like a from-scratch classification
        started from the same store state would group them.
        """
        for record in self.store.collect_dirty(version=self.version):
            old_key = self._membership.get(record.id)
            new_key = (record.version, id(record.trace))
            if old_key == new_key:
                continue
            if old_key is not None:
                old_entry = self._classes.get(old_key)
                if old_entry is not None:
                    old_entry.members.pop(record.id, None)
                    if not old_entry.members:
                        del self._classes[old_key]
            entry = self._class_for(record.version, record.trace)
            entry.members[record.id] = record
            self._membership[record.id] = new_key
        return self.report()

    def report(self) -> MigrationReport:
        """The current per-class verdicts as a :class:`MigrationReport`
        (O(classes); ``records`` views stay live across refreshes)."""
        report = MigrationReport(
            old_version=self.version or "",
            new_version=self.new_version,
            live=True,
        )
        report.class_verdicts = [
            entry.verdict for entry in self._classes.values()
        ]
        return report


# -- naive per-instance reference ---------------------------------------------


def classify_trace_reference(automaton: AFSA, labels) -> str:
    """Reference verdict for one instance, the naive way.

    Steps public state sets through the automaton exactly like the
    conversation simulator (:mod:`repro.afsa.simulate`) does — per
    instance, no prefix cache, no class grouping — then applies the
    same residual-language criterion.  Independent oracle for the
    kernel replay path and the baseline the scaling bench beats.
    """
    from repro.afsa.emptiness import good_states
    from repro.afsa.simulate import _closure, _step

    states = _closure(automaton, frozenset({automaton.start}))
    for label in labels:
        states = _step(automaton, states, label)
        if not states:
            return STRANDED
    if states & good_states(automaton):
        return MIGRATABLE
    if states & automaton.coreachable_states():
        return PENDING
    return STRANDED
