"""Batched multiparty consistency sweeps (Sect. 6, scaled out).

The decentralized deployment scheme checks consistency *pairwise*:
every conversing pair of partners intersects their mutual views and
runs the annotated emptiness test.  Before this module, every caller
hand-rolled that loop (``Choreography.check_consistency``,
``ChangeNegotiation.check_consistency``, the multiparty benches) and
each check materialized a public intersection automaton, recomputed the
good-state fixpoint twice (once for the verdict, once for the witness),
and ran strictly serially.

The sweep engine batches the whole pair grid into one pass:

* **lazy verdicts and witnesses** — :func:`check_pair` runs the fused
  on-the-fly product-emptiness engine (:mod:`repro.afsa.lazy`): pair
  states are explored with bitset successor sets and the check stops
  as soon as the start pair's verdict is certain; no product is
  materialized for the verdict.  When the witness policy asks for a
  diagnosis, the *same* retained exploration is BFSed by the
  streaming extractor (:func:`repro.afsa.witness.lazy_pair_witness`),
  expanding the frontier on demand — the unhappy path no longer
  materializes the product either (the canonical witness form lives
  in :mod:`repro.afsa.witness`);
* **cross-call verdict cache** — verdicts (and lazily-extracted
  witnesses) land in the shared :data:`repro.afsa.lazy.VERDICTS`
  LRU keyed on kernel identity, so sweeping an unchanged pair again —
  propagation step 5, engine auto-adapt, repeated grids — is ~O(1);
  hit/miss deltas are reported per sweep in
  :meth:`SweepReport.describe`;
* **shared memos** — operand views are projected once per partner,
  their kernels are built once per participant (the grid dedupes view
  objects by identity, and ``kernel_of`` memoizes on the view
  instance), and the ε-free forms are memo hits across every pair a
  participant appears in;
* **persistent fan-out** — with ``workers > 1`` the pair grid may be
  dispatched through the shared evolution runtime
  (:mod:`repro.core.runtime`), which fans it out only when its
  measured costs predict the shards finish sooner than the parent
  (:meth:`~repro.core.runtime.EvolutionRuntime.decide`; ``workers``
  caps the shards).  Fanned out, unique participant kernels are
  *published once* into the content-addressed arena and chunks carry
  only content digests + pair indices, pairs are routed to shards by
  rendezvous hashing on their kernel digests (so repeated *and
  evolved* grids keep hitting warm worker caches), the shards are
  long-lived (their kernel memos and
  :data:`~repro.afsa.lazy.VERDICTS` caches survive across sweeps),
  and results come back in input order, so verdicts and witnesses are
  identical regardless of worker count, transport, pool restarts,
  completion order, or how often the session swept before (the determinism
  the test suite asserts).  Re-sweeping an unchanged choreography
  ships **zero** kernel payloads — every publish is an arena hit, and
  no shard fires a fetch-on-miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.afsa.automaton import AFSA
from repro.afsa.emptiness import EmptinessWitness
from repro.afsa.kernel import Kernel, kernel_of
from repro.afsa.lazy import (
    VERDICTS,
    cached_witness,
    lineage_of,
    note_lineage,
    pair_verdict,
    store_witness,
    warm_stats,
)
from repro.afsa.serialize import kernel_digest
from repro.afsa.witness import lazy_pair_witness
from repro.core.runtime import (
    Decision,
    EvolutionRuntime,
    get_runtime,
    kernel_for,
)

#: Witness policies: compute no witnesses, only for inconsistent pairs,
#: or for every pair (the full diagnostic report).
WITNESS_NONE = "none"
WITNESS_FAILURES = "failures"
WITNESS_ALL = "all"


@dataclass
class PairOutcome:
    """Verdict of one bilateral check inside a sweep.

    Attributes:
        left, right: identifiers of the checked pair (party ids when
            produced by :func:`sweep_choreography`).
        consistent: non-emptiness of the intersection of mutual views.
        witness: diagnosis, present according to the witness policy.
    """

    left: str
    right: str
    consistent: bool
    witness: EmptinessWitness | None = None

    def describe(self) -> str:
        """One line: the pair, its verdict, and any diagnosis."""
        status = "consistent" if self.consistent else "INCONSISTENT"
        detail = f" ({self.witness.describe()})" if self.witness else ""
        return f"{self.left} ↔ {self.right}: {status}{detail}"


@dataclass
class SweepReport:
    """Aggregate outcome of one batched consistency sweep.

    The report is the sweep's one counter record: the grid code adds
    to it in place (:meth:`add`) where the counts happen, and
    ``as_dict()["counters"]`` serves every field except ``outcomes``
    and ``undecided`` — a new counter is one field plus the statement
    that counts it.

    ``cache_hits`` / ``cache_misses`` are the sweep's
    :class:`~repro.afsa.lazy.PairVerdictCache` deltas aggregated
    *pool-wide*: the serial path reads the in-process counters, the
    fan-out path sums the per-chunk deltas reported by every persistent
    worker — so a warm pool's cache hits show up here even though they
    happened in other processes.  ``arena_published`` /
    ``arena_hits`` are the kernel-arena deltas of this sweep: a
    repeated sweep over an unchanged choreography reports zero
    publishes (all arena hits — no kernel payload left the parent).
    ``witness_lazy`` / ``witness_expansions`` / ``eager_oracle`` are
    the witness-path deltas, aggregated the same way: streaming
    extractions, on-demand frontier expansions those needed, and
    test-only eager-oracle invocations — the last must stay zero on
    every production sweep.  ``shard_loads`` / ``routing_spilled``
    describe how the fan-out's rendezvous routing placed this sweep's
    pairs (the per-shard pair counts, and how many pairs overflowed
    their top candidate under the hot-shard spill cap);
    ``payload_fetches`` / ``payload_fetch_bytes`` count the shards'
    fetch-on-miss traffic — a repeated sweep reports zero on any
    transport.  ``chunks`` / ``speculative_*`` / ``stolen_chunks`` /
    ``cancelled_chunks`` / ``inflight_high_water`` describe the
    pipelined scheduler's behaviour on this sweep (empty/zero on
    serial sweeps).  ``decisions_fanned`` / ``decisions_serial``
    count the runtime's fan-out decision for the grid (one of them is
    1 when the caller allowed more than one worker), with the seconds
    the runtime ``predicted_s`` for the path it chose and the
    ``actual_s`` that path took; ``workers`` is 1 when the grid ran in
    the parent.  ``undecided`` counts the pairs a fail-fast
    sweep (``stop_on_first_inconsistency``) cancelled before they were
    checked — a completed sweep always reports zero.
    """

    outcomes: list[PairOutcome] = field(default_factory=list)
    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    arena_published: int = 0
    arena_hits: int = 0
    warm_seeded: int = 0
    warm_decided: int = 0
    witness_lazy: int = 0
    witness_expansions: int = 0
    eager_oracle: int = 0
    shard_loads: list = field(default_factory=list)
    routing_spilled: int = 0
    payload_fetches: int = 0
    payload_fetch_bytes: int = 0
    chunks: int = 0
    speculative_dispatches: int = 0
    speculative_wins: int = 0
    stolen_chunks: int = 0
    cancelled_chunks: int = 0
    inflight_high_water: int = 0
    decisions_fanned: int = 0
    decisions_serial: int = 0
    predicted_s: float = 0.0
    actual_s: float = 0.0
    undecided: int = 0

    @property
    def consistent(self) -> bool:
        """True when every checked pair is deadlock-free."""
        return all(outcome.consistent for outcome in self.outcomes)

    def failures(self) -> list[PairOutcome]:
        """Return the inconsistent pairs."""
        return [
            outcome for outcome in self.outcomes if not outcome.consistent
        ]

    def describe(self) -> str:
        """Per-pair lines followed by the aggregate verdict."""
        lines = [outcome.describe() for outcome in self.outcomes]
        verdict = (
            "sweep: all pairs consistent"
            if self.consistent
            else f"sweep: {len(self.failures())} inconsistent pair(s)"
        )
        if self.undecided:
            verdict += f" ({self.undecided} undecided: fail-fast)"
        lines.append(verdict)
        if self.cache_hits or self.cache_misses:
            scope = "pool-wide" if self.workers > 1 else "serial"
            lines.append(
                f"pair-cache ({scope}): {self.cache_hits} hit(s) / "
                f"{self.cache_misses} miss(es)"
            )
        if self.workers > 1:
            lines.append(
                f"kernel-arena: {self.arena_published} publish(es) / "
                f"{self.arena_hits} hit(s)"
            )
        if self.shard_loads:
            loads = ", ".join(str(load) for load in self.shard_loads)
            line = (
                f"shard-routing: loads [{loads}] / "
                f"{self.routing_spilled} spill(s)"
            )
            if self.payload_fetches:
                line += (
                    f"; {self.payload_fetches} payload fetch(es) "
                    f"({self.payload_fetch_bytes} bytes)"
                )
            lines.append(line)
        if self.chunks:
            line = (
                f"scheduler: {self.chunks} chunk(s), "
                f"in-flight high water {self.inflight_high_water}"
            )
            if self.speculative_dispatches:
                line += (
                    f", {self.speculative_dispatches} speculated "
                    f"({self.speculative_wins} win(s))"
                )
            if self.stolen_chunks:
                line += f", {self.stolen_chunks} stolen"
            if self.cancelled_chunks:
                line += f", {self.cancelled_chunks} cancelled"
            lines.append(line)
        if self.decisions_fanned or self.decisions_serial:
            path = "fanned out" if self.decisions_fanned else "in the parent"
            lines.append(
                f"fan-out decision: {path} (predicted "
                f"{self.predicted_s * 1e3:.2f} ms, took "
                f"{self.actual_s * 1e3:.2f} ms)"
            )
        if self.warm_seeded:
            lines.append(
                f"warm-start: {self.warm_seeded} verdict(s) seeded "
                f"across versions, {self.warm_decided} decided from "
                f"the seed"
            )
        if self.witness_lazy or self.witness_expansions or self.eager_oracle:
            lines.append(
                f"witness-path: {self.witness_lazy} lazy "
                f"extraction(s) / {self.witness_expansions} frontier "
                f"expansion(s) / {self.eager_oracle} eager-oracle "
                f"call(s)"
            )
        return "\n".join(lines)

    def add(self, counts: dict) -> None:
        """Fold one counter record, keyed by field name, into the report.

        Numbers add and lists concatenate.  Every source reports this
        way: a shard worker's per-chunk engine deltas, the serial
        path's engine delta, the scheduler's per-dispatch record and
        the parent's arena deltas.  A sweep makes at most one fan-out
        dispatch, so its ``shard_loads`` and ``inflight_high_water``
        land on empty fields.
        """
        for name, value in counts.items():
            setattr(self, name, getattr(self, name) + value)

    def totals(self, *counters: str) -> dict:
        """The sweep's verdict totals, with the named counters between
        ``failures`` and ``undecided``.

        ``pairs`` is the whole grid: decided plus undecided, so a
        fail-fast sweep reports the same grid size as a completed one.
        The ``POST /sweep`` body and its streamed summary line both
        start from this dict.
        """
        return {
            "consistent": self.consistent,
            "pairs": len(self.outcomes) + self.undecided,
            "failures": len(self.failures()),
            **{name: getattr(self, name) for name in counters},
            "undecided": self.undecided,
        }

    def as_dict(self) -> dict:
        """The report as one JSON-serializable dict.

        The wire shape the service front-end returns from ``POST
        /sweep``: the :meth:`totals`, per-pair verdicts with rendered
        witness descriptions, and every counter field ``describe``
        prints.
        """
        return {
            **self.totals(),
            "outcomes": [
                {
                    "left": outcome.left,
                    "right": outcome.right,
                    "consistent": outcome.consistent,
                    "witness": (
                        outcome.witness.describe()
                        if outcome.witness is not None
                        else None
                    ),
                }
                for outcome in self.outcomes
            ],
            "counters": {
                counter.name: getattr(self, counter.name)
                for counter in fields(self)
                if counter.name not in ("outcomes", "undecided")
            },
        }


def check_kernel_pair(
    left: Kernel, right: Kernel, witnesses: str = WITNESS_FAILURES
) -> tuple[bool, EmptinessWitness | None]:
    """One bilateral check on operand kernels.

    Witnesses are streamed from the lazy exploration the verdict
    retained (:func:`repro.afsa.witness.lazy_pair_witness`) — computed
    at most once per operand pair and cached alongside the verdict.
    When the policy *guarantees* a witness (``all``), the verdict is
    read off the witness (one extraction decides both).  Otherwise the
    verdict is the (cached) lazy-engine verdict, and only an
    inconsistent pair under the ``failures`` policy pays for the
    extraction — which reuses the verdict's explored prefix instead of
    materializing the product.
    """
    witness = None
    if witnesses == WITNESS_ALL:
        witness = _pair_witness(left, right, counted=True)
        return not witness.empty, witness
    consistent = pair_verdict(left, right)
    if witnesses == WITNESS_FAILURES and not consistent:
        witness = _pair_witness(left, right, counted=False)
    return consistent, witness


def _pair_witness(
    left: Kernel, right: Kernel, counted: bool
) -> EmptinessWitness:
    """The pair's canonical lazily-extracted witness (cached).

    ``counted=True`` routes the probe through the hit/miss counters —
    used when the witness lookup *replaces* the verdict lookup (the
    ``all`` policy), so repeated-sweep cache stats keep reporting;
    ``counted=False`` rides silently on a verdict already counted.
    """
    if counted:
        entry = VERDICTS.lookup(left, right)
        witness = entry.witness if entry is not None else None
    else:
        witness = cached_witness(left, right)
    if witness is None:
        witness = lazy_pair_witness(left, right)
        store_witness(left, right, witness)
    return witness


def check_pair(
    left: AFSA, right: AFSA, witnesses: str = WITNESS_FAILURES
) -> tuple[bool, EmptinessWitness | None]:
    """One bilateral check, entirely on the (memoized) kernels."""
    return check_kernel_pair(
        kernel_of(left), kernel_of(right), witnesses
    )


# -- persistent-runtime fan-out ------------------------------------------------


def _engine_counters() -> dict:
    """A copy of this process's running verdict-cache, warm-start and
    witness-path counters, which carry :class:`SweepReport` field
    names."""
    return {**VERDICTS.counters, **warm_stats()}


def _arena_counters(runtime: EvolutionRuntime) -> dict:
    """*runtime*'s running arena and fetch-on-miss counters that a
    :class:`SweepReport` carries, under their shared names."""
    stats = runtime.stats()
    return {
        name: stats[name]
        for name in (
            "arena_published", "arena_hits", "payload_fetches",
            "payload_fetch_bytes",
        )
    }


def _since(before: dict, now: dict) -> dict:
    """The counter deltas from snapshot *before* to snapshot *now*."""
    return {name: now[name] - before[name] for name in now}


def _check_arena_chunk(payload):
    """Shard worker: resolve each referenced kernel by content digest
    (a memo hit after the first dispatch that shipped it, on any
    transport), re-register any shipped version
    lineage against the *worker's own* kernel objects — lineage and
    retained explorations are per-process state, and digest routing
    brings the repeat of a pair back here, so the worker can seed
    post-evolution verdicts from the exploration it retained itself —
    then check the chunk's pairs against the worker's persistent
    verdict cache.  Returns the verdicts and the chunk's engine
    counter deltas (:func:`_engine_counters` names)."""
    digests, lineage, index_pairs, witnesses = payload
    kernels = [kernel_for(digest) for digest in digests]
    for local_index, old_digest in lineage:
        note_lineage(kernel_for(old_digest), kernels[local_index])
    before = _engine_counters()
    results = [
        check_kernel_pair(kernels[li], kernels[ri], witnesses)
        for li, ri in index_pairs
    ]
    return results, _since(before, _engine_counters())


def _unanswered(kernels: list, index_pairs: list, witnesses: str) -> int:
    """The grid's pairs the parent cannot answer from
    :data:`~repro.afsa.lazy.VERDICTS` — no verdict, or no witness where
    the policy asks for one.  The lookups are uncounted
    (:meth:`~repro.afsa.lazy.PairVerdictCache.peek`)."""
    missing = 0
    for li, ri in index_pairs:
        entry = VERDICTS.peek(kernels[li], kernels[ri])
        if entry is None or (entry.witness is None and (
            witnesses == WITNESS_ALL
            or (witnesses == WITNESS_FAILURES and not entry.consistent)
        )):
            missing += 1
    return missing


def _chunk_payload(chunk, digests, lineage_digests, witnesses):
    """One worker payload: the chunk's pairs re-indexed against only
    the kernel digests it uses (plus the ancestor digests of its
    evolved participants, for worker-side lineage).  Payloads are
    self-contained — every pair's kernels travel in the chunk's own
    digest list — which is what lets the spill policy overflow a
    hot pair to any shard without a correctness risk."""
    local: dict = {}
    local_digests: list = []
    local_pairs: list = []
    local_lineage: list = []
    for li, ri in chunk:
        for index in (li, ri):
            if index not in local:
                local[index] = len(local_digests)
                local_digests.append(digests[index])
                old_digest = lineage_digests.get(index)
                if old_digest is not None:
                    local_lineage.append((local[index], old_digest))
        local_pairs.append((local[li], local[ri]))
    return (local_digests, local_lineage, local_pairs, witnesses)


def _lineage_root(kernel: Kernel) -> Kernel:
    """The transitive ancestor of *kernel* through the lineage
    registry — *kernel* itself when it never evolved.

    Routing keys on the root rather than the kernel's own content:
    an evolved participant must land on the shard whose retained
    exploration can seed it, and that shard was chosen by the
    *ancestor's* digest when the pre-evolution grid was swept.  The
    walk is cycle-guarded by object identity (an A→B→A re-evolution
    stops at the first repeat)."""
    seen = {id(kernel)}
    while True:
        old = lineage_of(kernel)
        if old is None or id(old) in seen:
            return kernel
        seen.add(id(old))
        kernel = old


def _sweep_grid_streaming(
    kernels: list,
    index_pairs: list,
    witnesses: str,
    workers: int | None,
    runtime: EvolutionRuntime | None,
    report: SweepReport,
    stop_on_first: bool = False,
):
    """Check a deduplicated grid, yielding verdicts as they complete.

    Yields ``(position, (consistent, witness))`` where *position*
    indexes into *index_pairs* — **completion order** on the fan-out
    path, input order on the serial one.
    Verdicts and witnesses are a pure function of the grid either way
    (ARCHITECTURE.md contract 9): every yield is tagged with its input
    position, and pair identity is the kernels' content digest.

    With *stop_on_first*, the first inconsistent verdict ends the
    sweep: outstanding chunks are cancelled (counted in
    ``report.cancelled_chunks``) and the remaining pairs stay
    undecided.  The sweep's counters are added to *report* as they
    happen; they are complete once the generator is exhausted or
    closed.

    With ``workers > 1`` the runtime decides whether the grid fans out
    (:meth:`~repro.core.runtime.EvolutionRuntime.decide`); a grid it
    keeps in the parent runs the serial loop below, whose time per
    computed verdict feeds the runtime's cost estimate.
    """
    decision = None
    if workers and workers > 1:
        runtime = runtime or get_runtime()
        decision = runtime.decide(
            _check_arena_chunk, workers, len(index_pairs),
            _unanswered(kernels, index_pairs, witnesses),
        )
        if decision.fan_out:
            yield from _sweep_grid_fanout(
                kernels, index_pairs, witnesses, workers, runtime,
                report, stop_on_first, decision,
            )
            return
        report.workers = 1

    before = _engine_counters()
    try:
        for position, (li, ri) in enumerate(index_pairs):
            result = check_kernel_pair(
                kernels[li], kernels[ri], witnesses
            )
            yield position, result
            if stop_on_first and not result[0]:
                break
    finally:
        counts = _since(before, _engine_counters())
        report.add(counts)
        if decision is not None:
            report.add(runtime.ran_serial(decision, counts["cache_misses"]))


def _sweep_grid_fanout(
    kernels: list,
    index_pairs: list,
    witnesses: str,
    workers: int,
    runtime: EvolutionRuntime,
    report: SweepReport,
    stop_on_first: bool,
    decision: Decision,
):
    """The fan-out half of :func:`_sweep_grid_streaming`: publish the
    grid's kernels once, dispatch through the runtime's pipelined
    scheduler, and yield verdicts chunk by chunk as they complete."""
    arena_before = _arena_counters(runtime)
    # Evolved participants ship their ancestor too, as a second
    # arena digest: workers re-register the lineage locally and
    # seed post-evolution verdicts from their own retained
    # explorations (digest routing brings the pair back to them).
    ancestors: dict = {}
    for index, kernel in enumerate(kernels):
        old = lineage_of(kernel)
        if old is not None:
            ancestors[index] = old
    try:
        with runtime.published(
            list(kernels) + list(ancestors.values())
        ) as digests:
            lineage_digests = {
                index: digests[len(kernels) + position]
                for position, index in enumerate(ancestors)
            }
            # The routing key is the pair's *lineage-rooted* content:
            # rendezvous hashing on concatenated digests keeps an
            # evolved-but-overlapping grid landing on warm shards, and
            # an evolved participant keys on its ancestry's root so the
            # pair returns to the shard that retained the pre-evolution
            # exploration it will seed from.  Publishing set every
            # published kernel's digest, so only a root further back
            # than the shipped ancestor is serialized here.
            route_digests = [
                kernel_digest(_lineage_root(kernel)) for kernel in kernels
            ]

            def payload_of(chunk):
                return _chunk_payload(
                    chunk, digests, lineage_digests, witnesses
                )

            def key_of(pair):
                return route_digests[pair[0]] + route_digests[pair[1]]

            dispatch: dict = {}
            # The pairs the shards computed are their verdict-cache
            # misses, the measure the serial loop's cost uses too.
            decision.computed = 0
            grid = runtime.map_streaming(
                _check_arena_chunk,
                index_pairs,
                payload_of,
                workers,
                key_of=key_of,
                info=dispatch,
                decision=decision,
            )
            try:
                stopped = False
                for positions, chunk_results, counts in grid:
                    report.add(counts)
                    decision.computed += counts["cache_misses"]
                    for position, result in zip(positions, chunk_results):
                        yield position, result
                        if stop_on_first and not result[0]:
                            stopped = True
                            break
                    if stopped:
                        break
            finally:
                # Cancels queued chunks and drains every attempt
                # before the arena pins are released below.
                grid.close()
                report.add(dispatch)
    finally:
        report.add(_since(arena_before, _arena_counters(runtime)))


def _sweep_views(
    view_pairs: list,
    witnesses: str,
    workers: int | None,
    runtime: EvolutionRuntime | None,
    report: SweepReport,
    stop_on_first: bool = False,
):
    """Check ``(left, right)`` view pairs through
    :func:`_sweep_grid_streaming`, yielding ``(position, result)``.

    Views are deduplicated by object identity and each distinct view's
    kernel is built once, so a participant that appears in many pairs
    is interned, published and shipped once per sweep.
    """
    kernels: list = []
    slots: dict = {}
    index_pairs: list = []
    for pair in view_pairs:
        indices = []
        for view in pair:
            slot = slots.get(id(view))
            if slot is None:
                slot = slots[id(view)] = len(kernels)
                kernels.append(kernel_of(view))
            indices.append(slot)
        index_pairs.append(tuple(indices))
    yield from _sweep_grid_streaming(
        kernels, index_pairs, witnesses, workers, runtime,
        report, stop_on_first,
    )


def _sweep_pairs_report(
    pairs,
    witnesses: str = WITNESS_FAILURES,
    workers: int | None = None,
    runtime: EvolutionRuntime | None = None,
) -> tuple[list, SweepReport]:
    """:func:`sweep_pairs` plus its counters: ``(results, report)``,
    with results in input order and the report's ``outcomes`` empty."""
    pairs = list(pairs)
    report = SweepReport(workers=workers or 1)
    results: list = [None] * len(pairs)
    for position, result in _sweep_views(
        pairs, witnesses, workers, runtime, report
    ):
        results[position] = result
    return results, report


def sweep_pairs(
    pairs,
    witnesses: str = WITNESS_FAILURES,
    workers: int | None = None,
    runtime: EvolutionRuntime | None = None,
) -> list[tuple[bool, EmptinessWitness | None]]:
    """Check a batch of ``(left, right)`` view pairs.

    Each distinct view object's kernel is built once per sweep, and the
    fan-out path publishes it to the runtime's kernel arena once rather
    than shipping it per chunk.

    Args:
        pairs: sequence of ``(AFSA, AFSA)`` mutual-view pairs.
        witnesses: witness policy (:data:`WITNESS_NONE`,
            :data:`WITNESS_FAILURES`, :data:`WITNESS_ALL`).
        workers: fan the grid out over this many worker processes;
            ``None``/``0``/``1`` checks serially in-process.
        runtime: the persistent runtime to dispatch through (defaults
            to the process-wide :func:`~repro.core.runtime.get_runtime`
            when fan-out is requested).

    Returns:
        ``(consistent, witness)`` per pair, **in input order** — worker
        count never changes the result.
    """
    return _sweep_pairs_report(pairs, witnesses, workers, runtime)[0]


def conversing_pairs(choreography) -> list[tuple[str, str]]:
    """The pair grid of a choreography: sorted party pairs that
    actually exchange messages (the only ones Sect. 6 checks).  Each
    party's partner set is computed once."""
    parties = choreography.parties()
    partners = {
        party: set(choreography.conversation_partners(party))
        for party in parties
    }
    return [
        (left, right)
        for index, left in enumerate(parties)
        for right in parties[index + 1:]
        if right in partners[left]
    ]


class SweepStream:
    """Iterator over a streaming sweep's :class:`PairOutcome` verdicts.

    Yields outcomes **in completion order** (unspecified under the
    pipelined scheduler — the served NDJSON stream documents exactly
    that); once exhausted, :attr:`report` holds the full
    :class:`SweepReport` with outcomes re-assembled in input order.
    :meth:`close` abandons the sweep early: outstanding chunks are
    cancelled and drained, and :attr:`report` stays ``None``.
    """

    __slots__ = ("_generator", "report")

    def __init__(self, generator):
        self._generator = generator
        self.report: SweepReport | None = None

    def __iter__(self) -> "SweepStream":
        return self

    def __next__(self) -> PairOutcome:
        try:
            return next(self._generator)
        except StopIteration as stop:
            if self.report is None and stop.value is not None:
                self.report = stop.value
            raise StopIteration from None

    def close(self) -> None:
        """Cancel the sweep (safe after exhaustion, idempotent)."""
        self._generator.close()


def sweep_choreography_streaming(
    choreography,
    pairs: list[tuple[str, str]] | None = None,
    witnesses: str = WITNESS_FAILURES,
    workers: int | None = None,
    runtime: EvolutionRuntime | None = None,
    stop_on_first_inconsistency: bool = False,
) -> SweepStream:
    """Sweep a choreography, yielding verdicts as pairs complete.

    The streaming face of :func:`sweep_choreography`: same grid, same
    fan-out, but each :class:`PairOutcome` is yielded the moment its
    chunk returns — under the pipelined scheduler that is completion
    order, so a long sweep surfaces progress without a barrier.  With
    *stop_on_first_inconsistency* the first inconsistent verdict ends
    the sweep: outstanding chunks are cancelled, and the report counts
    the unchecked pairs as ``undecided``.
    """
    if pairs is None:
        pairs = conversing_pairs(choreography)

    def generate():
        view_pairs = [
            (
                choreography.view(right, on=left),
                choreography.view(left, on=right),
            )
            for left, right in pairs
        ]
        report = SweepReport(workers=workers or 1)
        decided: dict = {}
        for position, (consistent, witness) in _sweep_views(
            view_pairs, witnesses, workers, runtime,
            report, stop_on_first_inconsistency,
        ):
            left, right = pairs[position]
            outcome = PairOutcome(
                left=left, right=right,
                consistent=consistent, witness=witness,
            )
            decided[position] = outcome
            yield outcome
        report.outcomes = [decided[position] for position in sorted(decided)]
        report.undecided = len(pairs) - len(report.outcomes)
        return report

    return SweepStream(generate())


def sweep_choreography(
    choreography,
    pairs: list[tuple[str, str]] | None = None,
    witnesses: str = WITNESS_FAILURES,
    workers: int | None = None,
    runtime: EvolutionRuntime | None = None,
    stop_on_first_inconsistency: bool = False,
) -> SweepReport:
    """Check all (or the given) partner pairs of a choreography.

    Views are projected once per (viewer, viewed) partner combination —
    :meth:`Choreography.view` memoizes per process version — and the
    resulting view pairs are dispatched through the deduplicated
    kernel grid.  The report carries the sweep's pool-wide pair-cache
    and kernel-arena deltas: re-sweeping an unchanged choreography is
    all cache hits and ships zero kernel payloads.  With
    *stop_on_first_inconsistency* the sweep is fail-fast: the first
    inconsistent verdict cancels every outstanding chunk and the
    unchecked remainder is reported as ``undecided``.
    """
    stream = sweep_choreography_streaming(
        choreography,
        pairs=pairs,
        witnesses=witnesses,
        workers=workers,
        runtime=runtime,
        stop_on_first_inconsistency=stop_on_first_inconsistency,
    )
    for _ in stream:
        pass
    return stream.report
