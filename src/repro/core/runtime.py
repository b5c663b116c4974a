"""The persistent evolution runtime: kernel arena + long-lived shards.

The paper's evolution loop is *session-shaped* — a choreography evolves
through versions v1 → v2 → v3 while consistency sweeps and instance
migrations repeatedly re-examine near-identical models — so the
fan-out layer is a long-lived artifact that amortizes across an entire
evolution session:

* **content-addressed kernel arena** — :class:`KernelArena` publishes
  interned kernels *once*: it keeps the payload bytes of
  :func:`~repro.afsa.serialize.kernel_to_payload` (the pickled dense
  wire tuple) and names every entry by the blake2b digest of those
  bytes (:func:`~repro.afsa.serialize.payload_digest`).  The digest is
  the identity that crosses process boundaries: publishes dedup by
  digest (two kernel objects with identical bytes share one entry),
  chunk payloads carry digests only, and workers memoize rebuilt
  kernels by digest, fetching a payload over their own connection the
  first time they meet it.  The arena is a bounded LRU with pin
  counts: entries referenced by an in-flight dispatch are never
  evicted, so their payloads stay fetchable for the whole dispatch,
  and a kernel needed again after eviction is transparently
  republished — same digest, same worker memo hit.
* **rendezvous-routed shards** — :class:`EvolutionRuntime` owns a
  lazily started, reusable shard fleet and routes work to shards by
  rendezvous hashing on content digests (:mod:`repro.core.routing`),
  so a repeated *or evolved* grid keeps landing every pair on the shard
  that already holds its kernels, replay tries and
  :data:`~repro.afsa.lazy.VERDICTS` entries.  A hot-shard spill policy
  overflows past the load cap to the next rendezvous candidate.  Every
  fan-out — sweeps and fleet migration alike — goes through the one
  pipelined scheduler, :meth:`EvolutionRuntime.map_streaming`.
* **one shard abstraction** — every shard is a
  :class:`~repro.core.transport.Shard`: a connected socket speaking
  the frame protocol of :mod:`repro.core.transport`.  Shards are
  forked children of this process, as many as a dispatch asks for,
  unless the runtime is given ``shards`` — addresses of remote workers
  (``repro shard-worker --listen``).  A shard whose connection ends
  fails its pending attempts at once; the scheduler re-sends them to
  the next rendezvous candidate, and the next dispatch re-forks a dead
  local shard in its own slot.
* **fan out only when it pays** — a caller's worker count is a cap:
  :meth:`EvolutionRuntime.decide` runs a grid in the parent whenever
  the measured costs of its chunk function predict that the shards
  cannot finish it sooner (:class:`Decision`).
* **shard memos follow the arena** — every digest the arena drops is
  queued, at the next dispatch, for every shard (and unqueued once the
  arena holds it again) and rides the shard's next task frame, so a
  worker forgets what the parent no longer holds.

The scheduler's policy (window, chunk sizing, spill cap, straggler
threshold) is a set of module constants, not options: one dispatch
object (:class:`_Dispatch`) holds a dispatch's state and moves only
on events whose time it is given, so tests drive it with scripted
shards and virtual times.

The process-wide default runtime (:func:`get_runtime`) is what
:mod:`repro.core.sweep` and :mod:`repro.instances.migrate` route their
fan-out through when no explicit runtime is given; it is shut down via
``atexit``.
"""

from __future__ import annotations

import atexit
import functools
import os
import queue
import threading
import time
from collections import OrderedDict, defaultdict, deque

from repro.afsa.kernel import Kernel
from repro.afsa.serialize import (
    kernel_from_payload,
    kernel_to_payload,
    payload_digest,
)
from repro.core.routing import rendezvous_rank, route
from repro.core.transport import Shard, ShardLostError
from repro.histogram import Histogram


# -- worker-side kernel resolution ---------------------------------------------

#: Per-worker kernel memo: content digest -> rebuilt Kernel.  Memoized
#: kernels keep their derived facts (good set, replay trie, verdict
#: cache entries) alive across dispatches — the whole point of the
#: persistent shards.  Keyed by digest, the memo is transport-agnostic.
#: A digest leaves it when the parent's arena drops it
#: (:func:`forget_kernels`, fed by the task frames); the count bound
#: is the backstop for a parent that never says so.
_WORKER_KERNELS: OrderedDict = OrderedDict()
_WORKER_KERNELS_MAX = 128

#: Fetch-on-miss hook: the worker loop installs a callable ``digest ->
#: payload bytes`` around each task so :func:`kernel_for` can pull
#: payloads it has not memoized over the task's own connection.
#: Thread-local because each connection is served by its own thread —
#: a fetch must go out over the very socket whose task triggered it,
#: never a sibling's (the in-process shard servers the tests run make
#: that a live hazard).
_FETCH_HOOK = threading.local()


def set_payload_fetcher(fetch):
    """Install the calling thread's fetch-on-miss hook; returns the
    previous one so the worker loop can restore it (hooks are
    per-task, not global state leaks)."""
    previous = getattr(_FETCH_HOOK, "fetch", None)
    _FETCH_HOOK.fetch = fetch
    return previous


def kernel_for(digest: str) -> Kernel:
    """Resolve a kernel by content digest (memoized per worker).

    A memo miss fetches the payload through the calling thread's
    fetch-on-miss hook — over the connection of the task being served —
    so every shard, forked or remote, receives a payload at most once
    while it stays in the memo.
    """
    kernel = _WORKER_KERNELS.get(digest)
    if kernel is None:
        fetch = getattr(_FETCH_HOOK, "fetch", None)
        if fetch is None:
            raise RuntimeError(
                f"no payload source for kernel {digest!r}: no fetcher "
                f"is installed"
            )
        kernel = kernel_from_payload(fetch(digest))
        kernel._digest = digest
        _WORKER_KERNELS[digest] = kernel
        while len(_WORKER_KERNELS) > _WORKER_KERNELS_MAX:
            _WORKER_KERNELS.popitem(last=False)
    else:
        _WORKER_KERNELS.move_to_end(digest)
    return kernel


def forget_kernels(digests) -> None:
    """Drop *digests* from this worker's kernel memo — the digests the
    parent's arena dropped since it last sent a task here.  Runs on the
    task thread, before the task resolves its own digests, so a digest
    the parent published again is simply fetched again."""
    for digest in digests:
        _WORKER_KERNELS.pop(digest, None)


# -- the arena -----------------------------------------------------------------


class _ArenaEntry:
    """One published content digest: its payload bytes, the kernel
    objects sharing the digest, and bookkeeping."""

    __slots__ = ("kernels", "payload", "pins", "doomed")

    def __init__(self, kernel: Kernel, payload: bytes):
        #: id -> kernel strong refs: every object published under this
        #: digest.  Strong refs pin the ids, so identity-keyed callers
        #: (the verdict cache, ``discard``) can never see a recycled id.
        self.kernels = {id(kernel): kernel}
        self.payload = payload
        self.pins = 0
        self.doomed = False


class KernelArena:
    """Bounded store of published kernel payloads.

    Keyed on *content digest*: two kernel objects whose canonical wire
    bytes are identical share one entry (``arena_dedup_hits``), and the
    digest — stable across eviction/republish and across processes —
    is what routing, worker memos and chunk payloads carry; shards
    fetch the bytes by digest (:meth:`payload_of`) on a memo miss.
    :attr:`counters` holds the running counters; consumers report
    their deltas per dispatch.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        #: Entries published, the bytes they hold, publishes of an
        #: object already in its entry, and publishes of a new object
        #: onto an existing digest.
        self.counters = dict.fromkeys((
            "arena_published", "arena_published_bytes", "arena_hits",
            "arena_dedup_hits",
        ), 0)
        self._entries: OrderedDict = OrderedDict()
        self._dropped: list = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def publish(self, kernel: Kernel, _pin: bool = False) -> str:
        """Return the content digest of *kernel*, publishing on miss."""
        digest = kernel._digest
        payload = None
        if digest is None:
            payload = kernel_to_payload(kernel)
            digest = kernel._digest = payload_digest(payload)
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            if id(kernel) in entry.kernels:
                self.counters["arena_hits"] += 1
            else:
                entry.kernels[id(kernel)] = kernel
                self.counters["arena_dedup_hits"] += 1
            if _pin:
                entry.pins += 1
            return digest
        if payload is None:
            payload = kernel_to_payload(kernel)
        entry = _ArenaEntry(kernel, payload)
        self._entries[digest] = entry
        if _pin:
            # Pin *before* evicting: a dispatch pinning more kernels
            # than maxsize must never lose the entry it just published.
            entry.pins += 1
        self.counters["arena_published"] += 1
        self.counters["arena_published_bytes"] += len(payload)
        self._evict(keep=digest)
        return digest

    def payload_of(self, digest: str) -> bytes:
        """The exact payload bytes published under *digest* (the blob
        served to a shard on fetch-on-miss)."""
        entry = self._entries.get(digest)
        if entry is None:
            raise KeyError(digest)
        return entry.payload

    def pin(self, kernels) -> list[str]:
        """Publish *kernels* and pin them against eviction; returns the
        content digests in input order.  Exception-safe: if any publish
        fails, the kernels pinned so far are unpinned again before the
        error propagates."""
        digests = []
        pinned = []
        try:
            for kernel in kernels:
                digests.append(self.publish(kernel, _pin=True))
                pinned.append(kernel)
        except BaseException:
            self.unpin(pinned)
            raise
        return digests

    def unpin(self, kernels) -> None:
        """Release a :meth:`pin`; doomed entries are dropped once the
        last pin drops."""
        for kernel in kernels:
            digest = kernel._digest
            entry = self._entries.get(digest) if digest else None
            if entry is None:
                continue
            # No membership check: a pinned kernel may have been
            # discarded (dropped from ``entry.kernels``) while the
            # dispatch was in flight — the pin is on the *entry*.
            entry.pins -= 1
            if entry.doomed and entry.pins <= 0:
                self._drop(digest)

    def discard(self, kernel) -> None:
        """Unpublish *kernel* (e.g. its process version was replaced).

        With content addressing, the entry only goes when the *last*
        kernel object published under its digest is discarded — an
        alias that deduped onto the entry keeps it alive.  Pinned
        entries are only marked; the entry survives until the
        in-flight dispatch unpins it.  Discarding an unpublished kernel
        is a no-op, so callers can fire-and-forget on eviction hooks.
        """
        if kernel is None:
            return
        digest = kernel._digest
        entry = self._entries.get(digest) if digest else None
        if entry is None or id(kernel) not in entry.kernels:
            return
        del entry.kernels[id(kernel)]
        if entry.kernels:
            return
        if entry.pins > 0:
            entry.doomed = True
        else:
            self._drop(digest)

    def take_dropped(self) -> list[str]:
        """The digests that left the arena since the last call — the
        shards' forget log (a digest published again since is back in
        the arena, which the shards' queues check).  An entry leaves
        when its last kernel is discarded while unpinned, when its last
        pin is released after a discard, or when it ages out as least
        recently used; :meth:`close` logs nothing."""
        dropped, self._dropped = self._dropped, []
        return dropped

    def close(self) -> None:
        """Drop every entry (the arena is empty afterwards)."""
        self._entries.clear()
        self._dropped.clear()

    def _evict(self, keep=None) -> None:
        """Age out unpinned LRU entries past maxsize.  The *keep*
        digest (the entry published by the current call) is never
        dropped, and a fully-pinned arena is simply allowed to exceed
        maxsize until the in-flight dispatches unpin."""
        if len(self._entries) <= self.maxsize:
            return
        for digest, entry in list(self._entries.items()):
            if len(self._entries) <= self.maxsize:
                break
            if entry.pins > 0 or digest == keep:
                continue
            self._drop(digest)

    def _drop(self, digest: str) -> None:
        del self._entries[digest]
        self._dropped.append(digest)


# -- the runtime ---------------------------------------------------------------


def shm_segments() -> set[str]:
    """Python shared-memory segments currently visible on this host
    (``psm_*`` entries of ``/dev/shm``; empty off Linux).  The runtime
    creates none (``tools/check_imports.py`` rejects any shared-memory
    import under ``src/repro``).  The listing is host-wide, so only a
    run that owns the host may diff it: ``perfbench/run.py`` does, around
    each served run."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except OSError:
        return set()


#: The scheduler's policy.  These are constants, not options: no
#: caller needs another value, and a test that forces a regime patches
#: them for its own duration.
#:
#: Hot-shard spill cap: a shard takes at most this multiple of its
#: fair share of a dispatch before the excess overflows to the next
#: rendezvous candidate (:func:`repro.core.routing.route`).
_SPILL_FACTOR = 2.0
#: In-flight attempts each shard's window holds.
_WINDOW = 2
#: Micro-chunks per shard a dispatch is cut into, before the latency
#: EWMA shrinks them (:meth:`EvolutionRuntime._chunk_size_for`).
_CHUNKS_PER_SHARD = 6
#: A chunk whose attempt has run longer than ``_SPECULATE_MULTIPLE ×
#: chunk EWMA + _SPECULATE_FLOOR_S`` is straggling: it may be backed
#: up on another shard, and its shard's queue may be stolen from.
_SPECULATE_MULTIPLE = 4.0
_SPECULATE_FLOOR_S = 0.05

#: EWMA smoothing for observed chunk/pair latencies.
_EWMA_ALPHA = 0.25

#: Completion-queue poll interval: bounds how stale a straggler check
#: can be while the scheduler waits for the next completion.
_POLL_SECONDS = 0.01

#: Forces the fan-out decision (:meth:`EvolutionRuntime.decide`) for a
#: test or bench that must time one path: None lets the measured costs
#: decide, True fans out every grid that may fan out, False runs every
#: grid in the parent.
_FORCE_FAN_OUT: bool | None = None

#: A cost-table sample counts for at most this many times the estimate
#: it folds into.  One stall (a collection pause, a descheduled process)
#: must not flip a decision: the path not taken measures nothing, so it
#: could never take the flip back.
_COST_SAMPLE_CAP = 4.0


def _ewma(previous: float | None, sample: float) -> float:
    """Fold *sample* into an EWMA (*previous* None: the first sample)."""
    if previous is None:
        return sample
    return previous + _EWMA_ALPHA * (sample - previous)


def _fold_cost(table: dict, name: str, sample: float) -> None:
    """Fold *sample* into *table*'s EWMA for *name*, capped at
    :data:`_COST_SAMPLE_CAP` times the current estimate."""
    previous = table.get(name)
    if previous:
        sample = min(sample, _COST_SAMPLE_CAP * previous)
    table[name] = _ewma(previous, sample)


class Decision:
    """One grid's fan-out decision (:meth:`EvolutionRuntime.decide`).

    ``fan_out`` names the path; ``predicted_s`` is the time the runtime
    predicted for it (0.0 while it had no estimate); ``started`` is the
    monotonic clock at the decision, so the path's actual time covers
    all it does — a fan-out's publish, routing and round trips, a
    serial loop's checks.  ``computed`` counts the items a fanned-out
    path computed when its chunks say so (a sweep adds its shards'
    verdict-cache misses as chunks arrive); None counts every item it
    dispatched.  The path closes the decision:
    :meth:`~EvolutionRuntime.map_streaming` for a fan-out,
    :meth:`~EvolutionRuntime.ran_serial` for a grid run in the parent.
    """

    __slots__ = ("name", "fan_out", "predicted_s", "started", "computed")

    def __init__(self, name: str, fan_out: bool, predicted_s: float):
        self.name = name
        self.fan_out = fan_out
        self.predicted_s = predicted_s
        self.started = time.monotonic()
        self.computed: int | None = None


class _Chunk:
    """One micro-chunk of a dispatch: its item indices, prebuilt
    payload, rendezvous candidate ranking for speculation and failover,
    and per-attempt bookkeeping."""

    __slots__ = (
        "indices", "payload", "candidates", "attempts", "outstanding", "done",
    )

    def __init__(self, indices, payload, candidates):
        self.indices = indices
        self.payload = payload
        self.candidates = candidates
        #: (shard, start time, speculative?) per attempt, primary first.
        self.attempts: list = []
        self.outstanding = 0
        self.done = False


class _Dispatch:
    """The state of one :meth:`EvolutionRuntime.map_streaming` dispatch.

    Construction routes every item to a shard and cuts each shard's
    share into queued chunks.  From then on the dispatch moves only on
    events, one method each: :meth:`top_up` fills every shard's window,
    :meth:`speculate` backs up straggling chunks, :meth:`settle`
    accounts one completion, :meth:`cancel` abandons what has not
    finished, and :meth:`drain` frees a late attempt once the dispatch
    is over.  Each event is given its time; the dispatch reads no clock.
    It reaches a shard only through ``submit`` and ``connected``, so
    *shards* may be scripted doubles as well as
    :class:`~repro.core.transport.Shard` handles.  Completions arrive
    on :attr:`completions` as ``(chunk, shard, attempt, value, error)``
    events, from whatever thread a shard answers on.

    Every scheduler event is counted once, into :attr:`record` (under
    :class:`~repro.core.sweep.SweepReport` field names) and into the
    *runtime*'s running counter of the same name at the same time; the
    runtime also keeps the fleet latency EWMAs, the in-flight gauge and
    the chunk-size histogram the dispatch feeds.
    """

    def __init__(
        self, runtime, shards, func, items, payload_of, key_of,
        chunk_size: int = 0,
    ):
        self.runtime = runtime
        self.shards = shards
        self.func = func
        pool_size = len(shards)
        keys = [key_of(item) for item in items]
        assignments, spilled = route(keys, pool_size, _SPILL_FACTOR)
        shares: list = [[] for _ in range(pool_size)]
        for index, shard in enumerate(assignments):
            shares[shard].append(index)
        #: The dispatch's counts; a count absent from it is zero.
        self.record: defaultdict = defaultdict(int)
        self.record["shard_loads"] = [len(share) for share in shares]
        self._count("routing_spilled", spilled)
        size = chunk_size or runtime._chunk_size_for(len(items), pool_size)
        self.queued = [deque() for _ in range(pool_size)]
        for shard, share in enumerate(shares):
            for start in range(0, len(share), size):
                part = share[start:start + size]
                self.queued[shard].append(_Chunk(
                    part,
                    payload_of([items[index] for index in part]),
                    rendezvous_rank(keys[part[0]], pool_size),
                ))
                runtime.counters["chunk_pairs"].observe(len(part))
        #: Chunks not yet won.
        self.remaining = sum(len(pending) for pending in self.queued)
        self.record["chunks"] = self.remaining
        self.completions: queue.SimpleQueue = queue.SimpleQueue()
        #: Attempts sent and not yet answered, in all and per shard.
        self.outstanding = 0
        self.inflight = [0] * pool_size
        # (chunk id, attempt) -> send time, per shard: an attempt
        # keeps its shard busy until its *event* arrives — even after
        # a backup already won the chunk — so a straggler grinding a
        # lost original still reads as straggling.
        self.busy: list = [{} for _ in range(pool_size)]
        #: Chunks sent at least once and not yet won, by id.
        self.active: dict = {}

    # -- events ------------------------------------------------------------

    def top_up(self, now: float) -> None:
        """Fill every shard's window: from its own queue first, else —
        while it is connected — with a chunk stolen from a straggler."""
        for shard in range(len(self.shards)):
            while self.inflight[shard] < _WINDOW:
                if self.queued[shard]:
                    # On a dead shard this attempt fails at once and
                    # the chunk moves on (see settle).
                    chunk = self.queued[shard].popleft()
                elif self.shards[shard].connected:
                    chunk = self._steal_for(shard, now)
                else:
                    chunk = None
                if chunk is None:
                    break
                self.active[id(chunk)] = chunk
                self._send(chunk, shard, now)

    def speculate(self, now: float) -> None:
        """Back up every chunk whose only attempt is older than the
        straggler threshold, on its best untried candidate that is
        doing strictly better than this chunk's own wait and is not
        observed slower than its current shard — re-dispatching onto
        an equally stuck shard only doubles the drain."""
        threshold = self._threshold()
        for chunk in self.active.values():
            if len(chunk.attempts) > 1:
                continue
            shard0, started, _ = chunk.attempts[0]
            age = now - started
            if age <= threshold:
                continue
            target = next(
                (
                    candidate
                    for candidate in self._untried(chunk)
                    if self._oldest_age(candidate, now) < age
                    and not self._slower(candidate, shard0)
                ),
                None,
            )
            if target is not None:
                self._count("speculative_dispatches")
                self._send(chunk, target, now, speculative=True)

    def settle(self, event, now: float):
        """Account one completion.  Returns ``(indices, results,
        extra)`` when it is its chunk's first (winning) result, else
        None.  A failed attempt waits for the chunk's other attempts; a
        lost one, once none is left, moves to the next untried
        connected candidate; a chunk with nowhere left to go raises its
        last error."""
        self._release(event, now)
        chunk, _, attempt, value, error = event
        if chunk.done:
            return None
        if error is not None:
            if chunk.outstanding > 0:
                return None
            if isinstance(error, ShardLostError):
                target = next(self._untried(chunk), None)
                if target is not None:
                    self._send(chunk, target, now)
                    return None
            raise error
        chunk.done = True
        del self.active[id(chunk)]
        self.remaining -= 1
        _, started, speculative = chunk.attempts[attempt]
        self.runtime._observe_latency(now - started, len(chunk.indices))
        if speculative:
            self._count("speculative_wins")
        results, extra = value
        return chunk.indices, results, extra

    def cancel(self) -> None:
        """The consumer stopped early: every chunk not yet won is
        cancelled, and nothing more is sent.  Attempts already out
        still arrive and are drained."""
        cancelled = len(self.active)
        for pending in self.queued:
            cancelled += len(pending)
            pending.clear()
        self._count("cancelled_chunks", cancelled)

    def drain(self, event, now: float) -> None:
        """Free one attempt that answers after the dispatch ended (a
        late duplicate, the straggler half of a speculated chunk,
        cancelled work).  Never raises: the dispatch is already over."""
        self._release(event, now)

    # -- helpers -------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.record[name] += amount
        self.runtime.counters[name] += amount

    def _send(
        self, chunk: _Chunk, shard: int, now: float, speculative=False
    ) -> None:
        """Send one attempt of *chunk* to *shard* — the one place every
        attempt goes out, primary, speculative or failover alike."""
        attempt = len(chunk.attempts)
        chunk.attempts.append((shard, now, speculative))
        chunk.outstanding += 1
        self.busy[shard][(id(chunk), attempt)] = now
        self.inflight[shard] += 1
        self.outstanding += 1
        self.record["inflight_high_water"] = max(
            self.record["inflight_high_water"], self.outstanding
        )
        counters = self.runtime.counters
        counters["chunks_dispatched"] += 1
        counters["inflight"] += 1
        counters["inflight_high_water"] = max(
            counters["inflight_high_water"], counters["inflight"]
        )
        self.shards[shard].submit(
            self.func,
            chunk.payload,
            functools.partial(self._complete, chunk, shard, attempt),
        )

    def _complete(self, chunk, shard, attempt, value, error) -> None:
        """A shard's ``done`` callback: queue the completion event."""
        self.completions.put((chunk, shard, attempt, value, error))

    def _release(self, event, now: float) -> None:
        """Free one finished attempt's window slot and fold its
        latency into its shard's EWMA (winners and losers alike)."""
        chunk, shard, attempt, _, error = event
        self.inflight[shard] -= 1
        del self.busy[shard][(id(chunk), attempt)]
        self.outstanding -= 1
        self.runtime.counters["inflight"] -= 1
        chunk.outstanding -= 1
        if error is None:
            self.runtime._observe_shard_latency(
                shard, now - chunk.attempts[attempt][1], len(chunk.indices)
            )

    def _threshold(self) -> float:
        """The straggler threshold: the steal and speculate trigger."""
        return (
            _SPECULATE_MULTIPLE * (self.runtime.chunk_latency_ewma or 0.0)
            + _SPECULATE_FLOOR_S
        )

    def _oldest_age(self, shard: int, now: float) -> float:
        """Age of *shard*'s oldest unanswered attempt (0.0 when idle) —
        the straggler signal for stealing and the backup target filter
        for speculation.  Counts lost-but-running attempts too: a shard
        grinding a duplicate is just as busy as one grinding a
        winner."""
        busy = self.busy[shard]
        return now - min(busy.values()) if busy else 0.0

    def _slower(self, candidate: int, reference: int) -> bool:
        """True when *candidate* is observed slower per pair than
        *reference* — shards with no completed attempt yet are never
        called slower."""
        ewma = self.runtime.shard_pair_ewma
        cand = ewma.get(candidate)
        ref = ewma.get(reference)
        return cand is not None and ref is not None and cand > ref

    def _steal_for(self, thief: int, now: float):
        """A queued chunk taken from the tail of the most backlogged
        straggling shard's queue (classic work stealing) — None when no
        shard is both backlogged and demonstrably slow, or when the
        thief itself is the slower party (a straggler must not steal
        its work back)."""
        threshold = self._threshold()
        victim = None
        backlog = 0
        for shard, pending in enumerate(self.queued):
            if shard == thief or len(pending) <= backlog:
                continue
            if self._oldest_age(shard, now) > threshold and not self._slower(
                thief, shard
            ):
                victim = shard
                backlog = len(pending)
        if victim is None:
            return None
        self._count("stolen_chunks")
        return self.queued[victim].pop()

    def _untried(self, chunk: _Chunk):
        """*chunk*'s rendezvous candidates, best first, that have no
        attempt yet and are still connected."""
        tried = {attempt[0] for attempt in chunk.attempts}
        return (
            candidate
            for candidate in chunk.candidates
            if candidate not in tried and self.shards[candidate].connected
        )


class EvolutionRuntime:
    """Shared fan-out runtime: one arena, one long-lived worker fleet.

    Workers are *sharded*: each is one forked child or one remote TCP
    worker behind a :class:`~repro.core.transport.Shard` handle, and
    every chunk reaches the shard that
    rendezvous hashing assigns its content key — so worker-local caches
    pay off for repeated *and evolved* grids alike, because the mapping
    depends on what an item *is*, not where it sits in the dispatch.
    The fleet is started lazily at the first dispatch, sized by that
    dispatch's worker count, and *grows on demand* without recycling
    the existing shards (their caches stay warm); :meth:`restart_pool`
    recycles all of them — the cold-restart case the invariance suite
    pins down.  Given *shards* (``host:port`` addresses of running
    ``repro shard-worker`` processes), the fleet is those remote
    workers instead.  :meth:`stats` hands out the running counters the
    sweep report, the service ``/metrics`` and ``--stats`` read.

    A caller's worker count is a cap, not an order: :meth:`decide`
    fans a grid out only when the costs this runtime measured predict
    the shards finish it sooner than the parent would.
    """

    def __init__(self, shards: list[str] | None = None):
        self.shard_addresses = list(shards or [])
        self.arena = KernelArena()
        self._shards: list = []
        #: The running counters (the arena keeps its own), under the
        #: :class:`~repro.core.sweep.SweepReport` field name wherever
        #: the report carries the count too.  ``inflight`` is the
        #: attempts in flight now; ``decisions_*``, ``predicted_s_*``
        #: and ``actual_s_*`` count the fan-out decisions per path
        #: (:meth:`decide`) with their predicted and actual seconds;
        #: ``chunk_pairs`` is the histogram of pairs per chunk.
        self.counters = dict.fromkeys((
            "pool_starts", "dispatches", "routed_tasks", "routing_spilled",
            "payload_fetches", "payload_fetch_bytes", "chunks_dispatched",
            "speculative_dispatches", "speculative_wins", "stolen_chunks",
            "cancelled_chunks", "inflight", "inflight_high_water",
            "decisions_fanned", "decisions_serial", "predicted_s_fanned",
            "predicted_s_serial", "actual_s_fanned", "actual_s_serial",
        ), 0)
        self.counters["chunk_pairs"] = Histogram((1, 2, 4, 8, 16, 32, 64))
        #: Shards' reader threads serve fetches concurrently.
        self._fetch_lock = threading.Lock()
        #: Fleet-wide latency EWMAs (seconds), fed by every completed
        #: chunk: per-pair drives adaptive chunk sizing, per-chunk the
        #: straggler threshold.
        self.pair_latency_ewma: float | None = None
        self.chunk_latency_ewma: float | None = None
        #: Per-shard per-pair latency EWMA (seconds), fed by every
        #: completed attempt — losing duplicates included, which is
        #: how a straggler's slowness gets observed at all when
        #: backups keep winning.  Cleared with the pool: the next
        #: fleet's processes are new.
        self.shard_pair_ewma: dict = {}
        #: The fan-out decision's cost table, per chunk function name:
        #: compute seconds per computed item (an EWMA fed by the
        #: parent's serial loops and by the compute the shards report)
        #: and per-dispatch fan-out overhead (an EWMA of wall time
        #: minus the busiest shard's compute), each sample capped at
        #: :data:`_COST_SAMPLE_CAP` times the estimate.  The overhead is
        #: cleared with the pool, so a new fleet's dispatches fan out
        #: until a clean one measures it again.
        self.item_cost: dict = {}
        self.fanout_overhead: dict = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "EvolutionRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def pool_size(self) -> int:
        """Worker shards currently running (0 = not started yet)."""
        return len(self._shards)

    def ensure_pool(self, workers: int) -> None:
        """Grow the local fleet to at least *workers* shards, at least
        one (lazy start; existing shards — and their caches — are
        kept).  A local shard that died is re-forked in its own slot,
        so rendezvous ranks do not move.  A remote fleet is fixed by
        its addresses instead: every shard is connected on first use,
        a closed one stays closed until :meth:`restart_pool`, and
        *workers* sizes nothing."""
        if self._closed:
            raise RuntimeError("runtime is shut down")
        if self.shard_addresses:
            if not self._shards:
                shards = []
                try:
                    for address in self.shard_addresses:
                        shards.append(Shard.connect(
                            address, self.arena.payload_of,
                            self._count_fetch,
                        ))
                except BaseException:
                    # A remote shard serves one parent at a time: keep
                    # no connection of a fleet that failed to start.
                    for shard in shards:
                        shard.close()
                    raise
                self._shards = shards
                self.counters["pool_starts"] += 1
            return
        needed = max(1, workers)
        dead = [
            slot for slot, shard in enumerate(self._shards)
            if not shard.connected
        ]
        if not dead and len(self._shards) >= needed:
            return
        for slot in dead:
            self._shards[slot].close()
            self.shard_pair_ewma.pop(slot, None)
            self._shards[slot] = self._fork(slot)
        while len(self._shards) < needed:
            self._shards.append(self._fork(len(self._shards)))
        self.counters["pool_starts"] += 1

    def _fork(self, slot: int) -> Shard:
        return Shard.fork(slot, self.arena.payload_of, self._count_fetch)

    def restart_pool(self) -> None:
        """Recycle the shards (arena untouched).  The next dispatch
        starts fresh shards whose caches are cold — for TCP shards
        only the *connections* recycle; remote worker processes (and
        their caches) belong to whoever launched them."""
        self._stop_pool()

    def shutdown(self) -> None:
        """Stop the shards and empty the arena."""
        self._stop_pool()
        self.arena.close()
        self._closed = True

    def _stop_pool(self) -> None:
        for shard in self._shards:
            shard.close()
        self._shards = []
        self.shard_pair_ewma.clear()
        self.fanout_overhead.clear()

    def _count_fetch(self, nbytes: int) -> None:
        """Shard callback: one fetch-on-miss served, *nbytes* of
        payload shipped to a worker."""
        with self._fetch_lock:
            self.counters["payload_fetches"] += 1
            self.counters["payload_fetch_bytes"] += nbytes

    # -- dispatch ----------------------------------------------------------

    def published(self, kernels):
        """Context manager pinning *kernels* in the arena for the
        duration of a dispatch; yields their content digests."""
        return _Published(self, list(kernels))

    # -- the fan-out decision ----------------------------------------------

    def decide(
        self, func, workers: int | None, items: int, unanswered: int
    ) -> Decision:
        """Decide whether a grid of *items* fans out through *func*.

        *workers* caps the shards the grid may use; *unanswered* counts
        the items the parent cannot answer from its own caches.  The
        grid fans out when ``workers > 1``, it has more than one item,
        and its predicted fanned time — the overhead estimate plus
        ``items × per-item cost ÷ shards used`` — is below its
        predicted serial time, ``unanswered × per-item cost``.  A chunk
        function with no overhead estimate yet — none of its fanned-out
        dispatches was clean (:meth:`map_streaming`), or none since
        :meth:`restart_pool` — fans out as it always did, which is how
        one gets measured; an estimate moves only when its own path
        runs.  :data:`_FORCE_FAN_OUT` overrides the prediction.
        """
        name = func.__name__
        cost = self.item_cost.get(name, 0.0)
        predicted = unanswered * cost
        fan_out = bool(workers and workers > 1 and items > 1)
        if fan_out:
            overhead = self.fanout_overhead.get(name)
            fanned = None
            if overhead is not None:
                shards = len(self.shard_addresses) or max(
                    workers, len(self._shards)
                )
                fanned = overhead + items * cost / min(items, shards)
            if _FORCE_FAN_OUT is not None:
                fan_out = _FORCE_FAN_OUT
            elif fanned is not None:
                fan_out = fanned < predicted
            if fan_out:
                predicted = fanned or 0.0
        return Decision(name, fan_out, predicted)

    def ran_serial(self, decision: Decision, computed: int) -> dict:
        """Close a *decision* whose grid ran in the parent: its time
        per computed item (a cache answer computes nothing) feeds the
        function's per-item cost.  Returns the decision's counts under
        :class:`~repro.core.sweep.SweepReport` field names."""
        seconds = time.monotonic() - decision.started
        if computed:
            _fold_cost(self.item_cost, decision.name, seconds / computed)
        return self._close(decision, seconds)

    def _ran_fanned(
        self, decision: Decision, computes: list, items: int, clean: bool,
    ) -> dict:
        """Close a fanned-out *decision*; *computes* holds each shard's
        reported compute seconds during the dispatch.  Only a *clean*
        dispatch — on a fleet it did not fork or connect, every chunk
        won by its one attempt — feeds the estimates: per-item cost
        from the shards' total compute per computed item (the
        decision's ``computed``, else all *items*), overhead from the
        wall time the busiest shard's compute does not explain."""
        seconds = time.monotonic() - decision.started
        if clean and computes:
            name = decision.name
            computed = decision.computed
            if computed is None:
                computed = items
            if computed:
                _fold_cost(self.item_cost, name, sum(computes) / computed)
            _fold_cost(
                self.fanout_overhead, name, max(0.0, seconds - max(computes))
            )
        return self._close(decision, seconds)

    def _close(self, decision: Decision, seconds: float) -> dict:
        path = "fanned" if decision.fan_out else "serial"
        self.counters[f"decisions_{path}"] += 1
        self.counters[f"predicted_s_{path}"] += decision.predicted_s
        self.counters[f"actual_s_{path}"] += seconds
        return {
            f"decisions_{path}": 1,
            "predicted_s": decision.predicted_s,
            "actual_s": seconds,
        }

    def map_chunked(
        self, func, items, payload_of, workers: int, key_of,
        decision: Decision | None = None,
    ):
        """Fan *items* out and reassemble the results in input order.

        The batch face of :meth:`map_streaming`, for consumers that
        need every result before they go on (fleet migration): the
        same rendezvous routing on ``key_of(item)``, in-flight window,
        speculation and drain, but one chunk per shard — its whole
        routed share — rather than EWMA-sized micro-chunks, which only
        add per-chunk dispatch cost when nothing consumes results
        early.  ``payload_of(chunk)`` builds each worker payload;
        *func* must return ``(chunk_results, extra)`` with
        ``chunk_results`` aligned to its chunk.  Returns the results
        in input order for every worker count and transport.
        """
        items = list(items)
        results: list = [None] * len(items)
        for indices, chunk_results, _ in self.map_streaming(
            func, items, payload_of, workers, key_of,
            decision=decision, _chunk_size=len(items),
        ):
            for index, result in zip(indices, chunk_results):
                results[index] = result
        return results

    # -- pipelined scheduler -----------------------------------------------

    def _chunk_size_for(self, n_items: int, pool_size: int) -> int:
        """Adaptive micro-chunk size: start from the chunks-per-shard
        target (:data:`_CHUNKS_PER_SHARD`) and shrink
        toward a ~25 ms chunk whenever the fleet's per-pair latency
        EWMA says the target chunks would run long — small enough to
        pipeline and steal, big enough to amortize dispatch."""
        target = -(-n_items // (pool_size * _CHUNKS_PER_SHARD))
        size = max(1, target)
        ewma = self.pair_latency_ewma
        if ewma is not None and ewma > 0:
            adaptive = max(1, int(0.025 / ewma))
            size = max(1, min(size, adaptive))
        return size

    def _observe_shard_latency(
        self, shard: int, seconds: float, pairs: int
    ) -> None:
        """Fold one completed *attempt* into *shard*'s per-pair EWMA —
        the relative-speed signal that keeps stealing and speculation
        from ever moving work onto a slower shard."""
        self.shard_pair_ewma[shard] = _ewma(
            self.shard_pair_ewma.get(shard), seconds / max(1, pairs)
        )

    def _observe_latency(self, seconds: float, pairs: int) -> None:
        """Fold one completed chunk into the fleet latency EWMAs."""
        self.pair_latency_ewma = _ewma(
            self.pair_latency_ewma, seconds / max(1, pairs)
        )
        self.chunk_latency_ewma = _ewma(self.chunk_latency_ewma, seconds)

    def map_streaming(
        self, func, items, payload_of, workers: int, key_of,
        info: dict | None = None, decision: Decision | None = None,
        _chunk_size: int = 0,
    ):
        """Pipelined fan-out: yield chunk results in completion order.

        The runtime's one scheduler (:meth:`map_chunked` collects it
        into input order).  Every item is routed by rendezvous hashing
        on ``key_of(item)`` with hot-shard spill
        (:func:`repro.core.routing.route`), each shard's share is split
        into micro-chunks (:meth:`_chunk_size_for`, or a fixed
        ``_chunk_size`` from :meth:`map_chunked`), each shard holds a
        bounded window of in-flight chunks, and completed
        chunks are yielded as ``(indices, chunk_results, extra)``
        tuples **as they arrive** — the consumer folds verdicts (and
        the service emits NDJSON lines) without waiting for a barrier.
        Verdicts stay a pure function of the grid because every yield
        carries its input indices and pair identity is the content
        digest (ARCHITECTURE.md contract 9).

        Straggler mitigation, both forms keyed on the fleet EWMAs:

        * **speculation** — an in-flight chunk older than
          ``_SPECULATE_MULTIPLE × chunk-EWMA + _SPECULATE_FLOOR_S`` is
          re-dispatched to its next-ranked rendezvous shard; the first
          result wins, late duplicates are dropped by chunk identity.
        * **work stealing** — a shard with window to spare takes queued
          chunks from the most backlogged shard, but only while that
          shard is demonstrably straggling (its oldest in-flight chunk
          exceeds the same threshold), so warm-affinity placement is
          never churned on a healthy fleet.

        A lost attempt — its shard's connection ended — is a failed
        attempt: once a chunk has no attempt left outstanding, it is
        re-sent to its next untried rendezvous candidate that is still
        connected, and only a chunk with no such candidate raises
        (:class:`~repro.core.transport.ShardLostError`, a
        :class:`~repro.core.transport.RemoteTaskError`).  A task that
        raised inside the worker propagates as a plain
        :class:`~repro.core.transport.RemoteTaskError`.

        Closing the generator (fail-fast consumers) counts the
        never-dispatched chunks as cancelled and drains every
        outstanding attempt before returning, so no in-flight state —
        task frames, arena pins — outlives the dispatch.

        The state and every decision live in one :class:`_Dispatch`;
        this generator only feeds it events stamped with the monotonic
        clock.  Each scheduler event is counted once, in the dispatch's
        record and the runtime's running total together; when the
        dispatch ends, the record is copied into *info*, when given.
        Given the fan-out *decision* that sent the grid here, the end
        of the dispatch closes it: its counts join the record, and a
        dispatch that completed on a fleet it did not start, with one
        attempt per chunk, feeds the function's cost estimates with the
        compute the shards reported.
        """
        items = list(items)
        if not items:
            return
        counters = self.counters
        pool_starts = counters["pool_starts"]
        self.ensure_pool(min(workers, len(items)))
        warm_fleet = counters["pool_starts"] == pool_starts
        attempts = counters["chunks_dispatched"]
        counters["dispatches"] += 1
        counters["routed_tasks"] += len(items)
        shards = self._shards
        # The shards' memos follow the arena: what it dropped since the
        # last dispatch rides each shard's next task frame, unless the
        # arena holds it again by then.  Pins keep any attempt in
        # flight from naming a dropped digest.
        dropped = self.arena.take_dropped()
        computed_before = []
        for shard in shards:
            shard.forget(dropped, held=self.arena)
            computed_before.append(shard.compute_seconds)
        dispatch = _Dispatch(
            self, shards, func, items, payload_of, key_of, _chunk_size
        )
        try:
            while dispatch.remaining:
                dispatch.top_up(time.monotonic())
                try:
                    event = dispatch.completions.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    dispatch.speculate(time.monotonic())
                    continue
                now = time.monotonic()
                won = dispatch.settle(event, now)
                dispatch.speculate(now)
                if won is not None:
                    yield won
        except GeneratorExit:
            dispatch.cancel()
            raise
        finally:
            # Drain every outstanding attempt so callers can unpin
            # arena entries with nothing in flight.
            while dispatch.outstanding:
                try:
                    event = dispatch.completions.get(timeout=60)
                except queue.Empty:  # pragma: no cover - hung worker
                    break
                dispatch.drain(event, time.monotonic())
            if decision is not None:
                # A fork or connect, a backup or a re-send would bill
                # its cost to the overhead of every later dispatch.
                one_attempt_each = (
                    counters["chunks_dispatched"] - attempts
                    == dispatch.record["chunks"]
                )
                dispatch.record.update(self._ran_fanned(
                    decision,
                    [
                        shard.compute_seconds - before
                        for shard, before in zip(shards, computed_before)
                    ],
                    len(items),
                    clean=warm_fleet and one_attempt_each
                    and not dispatch.remaining,
                ))
            if info is not None:
                info.update(dispatch.record)

    def stats(self) -> dict:
        """The running counters, the arena's with them, as they are,
        plus the arena's entry count, the running shard count and the
        transport — the one dict the sweep report, the service
        ``/metrics`` and :meth:`describe` read."""
        return {
            **self.counters,
            **self.arena.counters,
            "arena_entries": len(self.arena),
            "pool_size": len(self._shards),
            "transport": "tcp" if self.shard_addresses else "mp",
        }

    def describe(self) -> str:
        """One human-readable line of pool + arena + routing counters
        (the ``--stats`` output of the CLI sweep)."""
        stats = self.stats()
        return (
            f"runtime: pool of {stats['pool_size']} worker(s) "
            f"({stats['pool_starts']} start(s), "
            f"{stats['dispatches']} dispatch(es)); arena: "
            f"{stats['arena_entries']} entr(y/ies), "
            f"{stats['arena_published']} publish(es) "
            f"({stats['arena_published_bytes']} bytes), "
            f"{stats['arena_hits']} hit(s), "
            f"{stats['arena_dedup_hits']} dedup hit(s); "
            f"routing ({stats['transport']}): "
            f"{stats['routed_tasks']} routed, "
            f"{stats['routing_spilled']} spill(s), "
            f"{stats['payload_fetches']} payload fetch(es) "
            f"({stats['payload_fetch_bytes']} bytes); "
            "scheduler: "
            f"{stats['chunks_dispatched']} chunk(s), "
            f"{stats['speculative_dispatches']} speculated "
            f"({stats['speculative_wins']} win(s)), "
            f"{stats['stolen_chunks']} stolen, "
            f"{stats['cancelled_chunks']} cancelled, "
            f"in-flight high water {stats['inflight_high_water']}; "
            "fan-out: "
            f"{stats['decisions_fanned']} grid(s) fanned out (predicted "
            f"{stats['predicted_s_fanned']:.4f} s, took "
            f"{stats['actual_s_fanned']:.4f} s), "
            f"{stats['decisions_serial']} run in the parent (predicted "
            f"{stats['predicted_s_serial']:.4f} s, took "
            f"{stats['actual_s_serial']:.4f} s)"
        )


class _Published:
    """Pin scope returned by :meth:`EvolutionRuntime.published`."""

    __slots__ = ("_runtime", "_kernels")

    def __init__(self, runtime: EvolutionRuntime, kernels: list):
        self._runtime = runtime
        self._kernels = kernels

    def __enter__(self) -> list[str]:
        return self._runtime.arena.pin(self._kernels)

    def __exit__(self, *exc_info) -> None:
        self._runtime.arena.unpin(self._kernels)


# -- the process-wide default --------------------------------------------------

_DEFAULT: EvolutionRuntime | None = None


def get_runtime() -> EvolutionRuntime:
    """The process-wide default runtime (created lazily, reused by
    every sweep/migration that fans out without an explicit runtime).
    The fleet starts empty; each dispatch grows it to its own worker
    count."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT._closed:
        _DEFAULT = EvolutionRuntime()
    return _DEFAULT


def discard_kernel(kernel, runtime: EvolutionRuntime | None = None) -> None:
    """Unpublish *kernel* from *runtime*'s arena, or from the default
    runtime's when none is given and one exists (fire-and-forget
    eviction hook: replacing a process version drops its predecessor's
    arena entry as soon as the version stops being the lineage anchor,
    and the service drops what an evicted session or a finished
    request owned)."""
    runtime = runtime or _DEFAULT
    if runtime is not None:
        runtime.arena.discard(kernel)


def shutdown_runtime() -> None:
    """Shut down the default runtime (tests and clean exits)."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.shutdown()
        _DEFAULT = None


atexit.register(shutdown_runtime)
