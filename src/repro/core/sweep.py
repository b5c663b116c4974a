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
  their kernels are built once per participant (``kernel_of`` memoizes
  on the view instance, and the serialized entry point dedupes
  identical wire payloads before rebuilding), and the ε-free forms are
  memo hits across every pair a participant appears in;
* **persistent fan-out** — with ``workers > 1`` the pair grid is
  dispatched through the shared evolution runtime
  (:mod:`repro.core.runtime`): unique participant kernels are
  *published once* into the content-addressed arena and chunks carry
  only ``(digest, locator)`` references + pair indices, pairs are
  routed to shards by rendezvous hashing on their kernel digests (so
  repeated *and evolved* grids keep hitting warm worker caches), the
  worker pool is long-lived (its kernel memos and
  :data:`~repro.afsa.lazy.VERDICTS` caches survive across sweeps),
  and results come back in input order, so verdicts and witnesses are
  identical regardless of worker count, transport, pool restarts,
  completion order, or how often the session swept before (the determinism
  the test suite asserts).  Re-sweeping an unchanged choreography
  ships **zero** kernel payloads — every publish is an arena hit, and
  over TCP no fetch-on-miss fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.afsa.serialize import afsa_from_json, kernel_digest
from repro.afsa.witness import lazy_pair_witness
from repro.core.runtime import (
    EvolutionRuntime,
    _injected_fault_delay,
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
    ``payload_fetches`` / ``payload_fetch_bytes`` count the TCP
    fetch-on-miss traffic — a repeated sweep reports zero on any
    transport.  ``chunks`` / ``speculative_*`` / ``stolen_chunks`` /
    ``cancelled_chunks`` / ``inflight_high_water`` describe the
    pipelined scheduler's behaviour on this sweep (empty/zero on
    serial sweeps); ``undecided`` counts the pairs a fail-fast
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

    def as_dict(self) -> dict:
        """The report as one JSON-serializable dict.

        The wire shape the service front-end returns from ``POST
        /sweep`` (and what the streaming variant emits as its summary
        line): per-pair verdicts with rendered witness descriptions,
        plus all the pool-wide counter deltas ``describe`` prints.
        """
        return {
            "consistent": self.consistent,
            "pairs": len(self.outcomes),
            "failures": len(self.failures()),
            "undecided": self.undecided,
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
                "workers": self.workers,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "arena_published": self.arena_published,
                "arena_hits": self.arena_hits,
                "warm_seeded": self.warm_seeded,
                "warm_decided": self.warm_decided,
                "witness_lazy": self.witness_lazy,
                "witness_expansions": self.witness_expansions,
                "eager_oracle": self.eager_oracle,
                "shard_loads": list(self.shard_loads),
                "routing_spilled": self.routing_spilled,
                "payload_fetches": self.payload_fetches,
                "payload_fetch_bytes": self.payload_fetch_bytes,
                "chunks": self.chunks,
                "speculative_dispatches": self.speculative_dispatches,
                "speculative_wins": self.speculative_wins,
                "stolen_chunks": self.stolen_chunks,
                "cancelled_chunks": self.cancelled_chunks,
                "inflight_high_water": self.inflight_high_water,
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


def _check_arena_chunk(payload):
    """Pool worker: resolve each referenced kernel by content digest (a
    memo hit after the first dispatch that shipped it — on any
    transport, under any segment name), re-register any shipped version
    lineage against the *worker's own* kernel objects — lineage and
    retained explorations are per-process state, and digest routing
    brings the repeat of a pair back here, so the worker can seed
    post-evolution verdicts from the exploration it retained itself —
    then check the chunk's pairs against the worker's persistent
    verdict cache."""
    refs, lineage, index_pairs, witnesses = payload
    _injected_fault_delay(len(index_pairs))
    kernels = [kernel_for(ref) for ref in refs]
    for local_index, old_ref in lineage:
        note_lineage(kernel_for(old_ref), kernels[local_index])
    hits0, misses0 = VERDICTS.stats()
    warm0 = warm_stats()
    results = [
        check_kernel_pair(kernels[li], kernels[ri], witnesses)
        for li, ri in index_pairs
    ]
    hits1, misses1 = VERDICTS.stats()
    warm1 = warm_stats()
    return results, (
        hits1 - hits0,
        misses1 - misses0,
        {key: warm1[key] - warm0[key] for key in warm1},
    )


def _chunk_payload(chunk, refs, lineage_refs, witnesses):
    """One worker payload: the chunk's pairs re-indexed against only
    the kernel references it uses (plus the ancestor references of its
    evolved participants, for worker-side lineage).  Payloads are
    self-contained — every pair's kernels travel in the chunk's own
    reference list — which is what lets the spill policy overflow a
    hot pair to any shard without a correctness risk."""
    local: dict = {}
    local_refs: list = []
    local_pairs: list = []
    local_lineage: list = []
    for li, ri in chunk:
        for index in (li, ri):
            if index not in local:
                local[index] = len(local_refs)
                local_refs.append(refs[index])
                old_ref = lineage_refs.get(index)
                if old_ref is not None:
                    local_lineage.append((local[index], old_ref))
        local_pairs.append((local[li], local[ri]))
    return (local_refs, local_lineage, local_pairs, witnesses)


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


def _empty_stats() -> dict:
    return {
        "cache_hits": 0,
        "cache_misses": 0,
        "arena_published": 0,
        "arena_hits": 0,
        "warm_seeded": 0,
        "warm_decided": 0,
        "witness_lazy": 0,
        "witness_expansions": 0,
        "eager_oracle": 0,
        "shard_loads": [],
        "routing_spilled": 0,
        "payload_fetches": 0,
        "payload_fetch_bytes": 0,
        "chunks": 0,
        "speculative_dispatches": 0,
        "speculative_wins": 0,
        "stolen_chunks": 0,
        "cancelled_chunks": 0,
        "inflight_high_water": 0,
        "undecided": 0,
    }


def _merge_warm_delta(stats: dict, delta: dict) -> None:
    """Fold one :func:`warm_stats` delta dict into sweep *stats*."""
    stats["warm_seeded"] += delta["seeded"]
    stats["warm_decided"] += delta["decided_from_seed"]
    stats["witness_lazy"] += delta["witness_lazy"]
    stats["witness_expansions"] += delta["witness_expansions"]
    stats["eager_oracle"] += delta["eager_oracle"]


def _sweep_grid_streaming(
    kernels: list,
    index_pairs: list,
    witnesses: str,
    workers: int | None,
    runtime: EvolutionRuntime | None,
    stats: dict,
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
    ``stats["cancelled_chunks"]``) and the remaining pairs stay
    undecided.  *stats* (an :func:`_empty_stats` dict) is filled in
    place and is complete once the generator is exhausted or closed.
    """
    if workers and workers > 1 and len(index_pairs) > 1:
        runtime = runtime or get_runtime()
        yield from _sweep_grid_fanout(
            kernels, index_pairs, witnesses, workers, runtime,
            stats, stop_on_first,
        )
        return

    hits0, misses0 = VERDICTS.stats()
    warm0 = warm_stats()
    try:
        for position, (li, ri) in enumerate(index_pairs):
            result = check_kernel_pair(
                kernels[li], kernels[ri], witnesses
            )
            yield position, result
            if stop_on_first and not result[0]:
                break
    finally:
        hits1, misses1 = VERDICTS.stats()
        warm1 = warm_stats()
        stats["cache_hits"] += hits1 - hits0
        stats["cache_misses"] += misses1 - misses0
        _merge_warm_delta(
            stats, {key: warm1[key] - warm0[key] for key in warm1}
        )


def _sweep_grid_fanout(
    kernels: list,
    index_pairs: list,
    witnesses: str,
    workers: int,
    runtime: EvolutionRuntime,
    stats: dict,
    stop_on_first: bool,
):
    """The fan-out half of :func:`_sweep_grid_streaming`: publish the
    grid's kernels once, dispatch through the runtime's pipelined
    scheduler, and yield verdicts chunk by chunk as they complete."""
    published0 = runtime.arena.published
    arena_hits0 = runtime.arena.hits
    fetches0 = runtime.payload_fetches
    fetch_bytes0 = runtime.payload_fetch_bytes
    # Evolved participants ship their ancestor too, as a second
    # arena reference: workers re-register the lineage locally and
    # seed post-evolution verdicts from their own retained
    # explorations (digest routing brings the pair back to them).
    ancestors: dict = {}
    for index, kernel in enumerate(kernels):
        old = lineage_of(kernel)
        if old is not None:
            ancestors[index] = old
    # The routing key is the pair's *lineage-rooted* content:
    # rendezvous hashing on concatenated digests keeps an
    # evolved-but-overlapping grid landing on warm shards, and an
    # evolved participant keys on its ancestry's root so the pair
    # returns to the shard that retained the pre-evolution
    # exploration it will seed from.
    route_digests = [
        kernel_digest(_lineage_root(kernel)) for kernel in kernels
    ]
    try:
        with runtime.published(
            list(kernels) + list(ancestors.values())
        ) as digests:
            refs = [runtime.ref_of(digest) for digest in digests]
            lineage_refs = {
                index: refs[len(kernels) + position]
                for position, index in enumerate(ancestors)
            }

            def payload_of(chunk):
                return _chunk_payload(
                    chunk, refs[: len(kernels)], lineage_refs, witnesses
                )

            def key_of(pair):
                return route_digests[pair[0]] + route_digests[pair[1]]

            info: dict = {}
            grid = runtime.map_streaming(
                _check_arena_chunk,
                index_pairs,
                payload_of,
                workers,
                key_of=key_of,
                info=info,
            )
            try:
                stopped = False
                for positions, chunk_results, extra in grid:
                    hits, misses, warm_delta = extra
                    stats["cache_hits"] += hits
                    stats["cache_misses"] += misses
                    _merge_warm_delta(stats, warm_delta)
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
                stats["shard_loads"] = info["loads"]
                stats["routing_spilled"] = info["spilled"]
                stats["chunks"] = info["chunks"]
                stats["speculative_dispatches"] = info["speculated"]
                stats["speculative_wins"] = info["spec_wins"]
                stats["stolen_chunks"] = info["stolen"]
                stats["cancelled_chunks"] = info["cancelled"]
                stats["inflight_high_water"] = info["inflight_high_water"]
    finally:
        stats["arena_published"] = runtime.arena.published - published0
        stats["arena_hits"] = runtime.arena.hits - arena_hits0
        stats["payload_fetches"] = runtime.payload_fetches - fetches0
        stats["payload_fetch_bytes"] = (
            runtime.payload_fetch_bytes - fetch_bytes0
        )


def _sweep_kernel_grid(
    kernels: list,
    index_pairs: list,
    witnesses: str,
    workers: int | None,
    runtime: EvolutionRuntime | None = None,
) -> tuple[list, dict]:
    """Check a deduplicated grid: *kernels* holds one kernel per unique
    participant view, *index_pairs* the ``(left, right)`` indices into
    it.  Returns ``(results, stats)`` with results in input order for
    every worker count and transport; with ``workers > 1``
    the grid is dispatched through the (given or default) persistent
    runtime — pipelined completion order is reassembled here, so the
    batch API's determinism contract is untouched."""
    stats = _empty_stats()
    results: list = [None] * len(index_pairs)
    for position, result in _sweep_grid_streaming(
        kernels, index_pairs, witnesses, workers, runtime, stats
    ):
        results[position] = result
    return results, stats


def _dedupe_views(pairs, key):
    """Collapse the participants of *pairs* to unique entries.

    Returns ``(unique, index_pairs)`` where *unique* lists each
    distinct participant once (first-seen order) and *index_pairs*
    maps every input pair to its indices into *unique*.
    """
    unique: list = []
    positions: dict = {}
    index_pairs: list = []
    for left, right in pairs:
        indices = []
        for view in (left, right):
            view_key = key(view)
            position = positions.get(view_key)
            if position is None:
                position = positions[view_key] = len(unique)
                unique.append(view)
            indices.append(position)
        index_pairs.append(tuple(indices))
    return unique, index_pairs


def sweep_serialized_pairs(
    pairs,
    witnesses: str = WITNESS_FAILURES,
    workers: int | None = None,
    runtime: EvolutionRuntime | None = None,
) -> list[tuple[bool, EmptinessWitness | None]]:
    """Check a batch of ``(left_json, right_json)`` wire-format pairs.

    The entry point for callers that already hold the serialized public
    views (the negotiation protocol does).  Each *distinct* JSON view
    is parsed and its kernel built exactly once per sweep — not once
    per pair it participates in — and the worker path publishes it to
    the runtime's kernel arena rather than re-shipping it per chunk.
    """
    results, _ = _sweep_serialized_stats(pairs, witnesses, workers, runtime)
    return results


def _sweep_serialized_stats(
    pairs,
    witnesses: str,
    workers: int | None,
    runtime: EvolutionRuntime | None = None,
) -> tuple[list, dict]:
    unique, index_pairs = _dedupe_views(list(pairs), key=lambda j: j)
    kernels = [kernel_of(afsa_from_json(text)) for text in unique]
    return _sweep_kernel_grid(
        kernels, index_pairs, witnesses, workers, runtime
    )


def sweep_pairs(
    pairs,
    witnesses: str = WITNESS_FAILURES,
    workers: int | None = None,
    runtime: EvolutionRuntime | None = None,
) -> list[tuple[bool, EmptinessWitness | None]]:
    """Check a batch of ``(left, right)`` view pairs.

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
    results, _ = _sweep_pairs_stats(pairs, witnesses, workers, runtime)
    return results


def _sweep_pairs_stats(
    pairs,
    witnesses: str,
    workers: int | None,
    runtime: EvolutionRuntime | None = None,
) -> tuple[list, dict]:
    unique, index_pairs = _dedupe_views(list(pairs), key=id)
    kernels = [kernel_of(view) for view in unique]
    return _sweep_kernel_grid(
        kernels, index_pairs, witnesses, workers, runtime
    )


def conversing_pairs(choreography) -> list[tuple[str, str]]:
    """The pair grid of a choreography: sorted party pairs that
    actually exchange messages (the only ones Sect. 6 checks)."""
    parties = choreography.parties()
    return [
        (left, right)
        for index, left in enumerate(parties)
        for right in parties[index + 1:]
        if right in choreography.conversation_partners(left)
    ]


def _report_from_stats(
    outcomes: list, workers: int | None, stats: dict
) -> SweepReport:
    """Assemble a :class:`SweepReport` from completed outcomes and the
    sweep's filled :func:`_empty_stats` dict."""
    return SweepReport(
        outcomes=outcomes,
        workers=workers or 1,
        cache_hits=stats["cache_hits"],
        cache_misses=stats["cache_misses"],
        arena_published=stats["arena_published"],
        arena_hits=stats["arena_hits"],
        warm_seeded=stats["warm_seeded"],
        warm_decided=stats["warm_decided"],
        witness_lazy=stats["witness_lazy"],
        witness_expansions=stats["witness_expansions"],
        eager_oracle=stats["eager_oracle"],
        shard_loads=stats["shard_loads"],
        routing_spilled=stats["routing_spilled"],
        payload_fetches=stats["payload_fetches"],
        payload_fetch_bytes=stats["payload_fetch_bytes"],
        chunks=stats["chunks"],
        speculative_dispatches=stats["speculative_dispatches"],
        speculative_wins=stats["speculative_wins"],
        stolen_chunks=stats["stolen_chunks"],
        cancelled_chunks=stats["cancelled_chunks"],
        inflight_high_water=stats["inflight_high_water"],
        undecided=stats["undecided"],
    )


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
        unique, index_pairs = _dedupe_views(view_pairs, key=id)
        kernels = [kernel_of(view) for view in unique]
        stats = _empty_stats()
        decided: dict = {}
        for position, (consistent, witness) in _sweep_grid_streaming(
            kernels, index_pairs, witnesses, workers, runtime,
            stats, stop_on_first_inconsistency,
        ):
            left, right = pairs[position]
            outcome = PairOutcome(
                left=left, right=right,
                consistent=consistent, witness=witness,
            )
            decided[position] = outcome
            yield outcome
        ordered = [decided[position] for position in sorted(decided)]
        stats["undecided"] = len(pairs) - len(ordered)
        return _report_from_stats(ordered, workers, stats)

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
