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
  the frame protocol of :mod:`repro.core.transport`.  The transport
  only says where shards live: forked children of this process (the
  default) or remote workers (``transport="tcp"``, addresses from
  ``repro shard-worker --listen``).  A shard whose connection ends
  fails its pending attempts at once; the scheduler re-sends them to
  the next rendezvous candidate, and the next dispatch re-forks a dead
  local shard in its own slot.

The process-wide default runtime (:func:`get_runtime`) is what
:mod:`repro.core.sweep` and :mod:`repro.instances.migrate` route their
fan-out through when no explicit runtime is given; it is shut down via
``atexit``.
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
import time
from collections import OrderedDict, deque

from repro.afsa.kernel import Kernel
from repro.afsa.serialize import (
    kernel_from_payload,
    kernel_to_payload,
    payload_digest,
)
from repro.core.routing import rendezvous_rank, route
from repro.core.transport import Shard, ShardLostError


# -- worker-side kernel resolution ---------------------------------------------

#: Per-worker kernel memo: content digest -> rebuilt Kernel.  Memoized
#: kernels keep their derived facts (good set, replay trie, verdict
#: cache entries) alive across dispatches — the whole point of the
#: persistent shards.  Keyed by digest, the memo survives arena
#: eviction + republish and is transport-agnostic.  Bounded so an
#: extremely long session with many distinct kernels cannot grow a
#: worker without limit.
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
    bytes are identical share one entry (``dedup_hits``), and the
    digest — stable across eviction/republish and across processes —
    is what routing, worker memos and chunk payloads carry; shards
    fetch the bytes by digest (:meth:`payload_of`) on a memo miss.
    ``published`` / ``hits`` are running counters; consumers report
    their deltas per dispatch.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.published = 0
        self.published_bytes = 0
        self.hits = 0
        self.dedup_hits = 0
        self._entries: OrderedDict = OrderedDict()

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
                self.hits += 1
            else:
                entry.kernels[id(kernel)] = kernel
                self.dedup_hits += 1
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
        self.published += 1
        self.published_bytes += len(payload)
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
                del self._entries[digest]

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
            del self._entries[digest]

    def close(self) -> None:
        """Drop every entry (the arena is empty afterwards)."""
        self._entries.clear()

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
            del self._entries[digest]


# -- the runtime ---------------------------------------------------------------


def shm_segments() -> set[str]:
    """Python shared-memory segments currently visible on this host
    (``psm_*`` entries of ``/dev/shm``; empty off Linux).  The runtime
    creates none; the leak guards assert that it stays that way."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except OSError:
        return set()


#: Where shards live: forked children of this process, or remote
#: workers reached over TCP.  Both speak the frame protocol of
#: :mod:`repro.core.transport`.
TRANSPORT_MP = "mp"
TRANSPORT_TCP = "tcp"

#: Cap on the auto-sized shard fleet: dispatches that never name a
#: worker count get ``min(os.cpu_count(), _MAX_AUTO_SHARDS)`` shards.
_MAX_AUTO_SHARDS = 8

#: Chunk-size histogram bucket upper bounds (pairs per chunk).
CHUNK_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: EWMA smoothing for observed chunk/pair latencies.
_EWMA_ALPHA = 0.25

#: Completion-queue poll interval: bounds how stale a straggler check
#: can be while the scheduler waits for the next completion.
_POLL_SECONDS = 0.01


def default_worker_count() -> int:
    """The shard count for dispatches with no explicit worker count:
    the machine's CPU count capped at :data:`_MAX_AUTO_SHARDS` — never
    the chunk count (a 2-chunk dispatch on a 16-core box should still
    leave the fleet sized for the grids that follow it)."""
    return max(1, min(os.cpu_count() or 1, _MAX_AUTO_SHARDS))


def _injected_fault_delay(item_count: int) -> None:
    """Test-only straggler injection, a no-op in production.

    ``REPRO_SWEEP_FAULT`` holds ``slot:seconds_per_item`` entries
    (comma-separated); a worker whose ``REPRO_SHARD_SLOT`` — which a
    forked shard sets for itself, and a remote worker inherits from
    its launcher — matches a slot sleeps ``seconds_per_item × items``
    before running its chunk.  Sweep and migration chunk
    workers both call it, so either fan-out can be given a straggler.
    """
    spec = os.environ.get("REPRO_SWEEP_FAULT")
    if not spec:
        return
    slot = os.environ.get("REPRO_SHARD_SLOT", "")
    for part in spec.split(","):
        shard, _, per_item = part.partition(":")
        if shard == slot and per_item:
            time.sleep(float(per_item) * max(1, item_count))


class _Chunk:
    """One micro-chunk in flight through :meth:`map_streaming`: its
    item indices, prebuilt payload, rendezvous candidate ranking for
    speculation and failover, and per-attempt bookkeeping."""

    __slots__ = (
        "indices", "payload", "candidates",
        "attempts", "outstanding", "done", "result",
    )

    def __init__(self, indices, payload, candidates):
        self.indices = indices
        self.payload = payload
        self.candidates = candidates
        #: (shard, monotonic start, speculative?) per dispatch attempt,
        #: primary first.
        self.attempts: list = []
        self.outstanding = 0
        self.done = False
        self.result = None


class EvolutionRuntime:
    """Shared fan-out runtime: one arena, one long-lived worker fleet.

    Workers are *sharded*: each is one forked child or one remote TCP
    worker behind a :class:`~repro.core.transport.Shard` handle, and
    every chunk reaches the shard that
    rendezvous hashing assigns its content key — so worker-local caches
    pay off for repeated *and evolved* grids alike, because the mapping
    depends on what an item *is*, not where it sits in the dispatch.
    The fleet is started lazily at the first dispatch and *grows on
    demand* without recycling the existing shards (their caches stay
    warm); :meth:`restart_pool` recycles all of them — the
    cold-restart case the invariance suite pins down.  ``stats()``
    exposes the running counters the sweep report, the service
    ``/metrics`` and the scaling bench read.
    """

    def __init__(
        self,
        workers: int = 0,
        arena_maxsize: int = 256,
        spill_factor: float = 2.0,
        transport: str = TRANSPORT_MP,
        shards: list[str] | None = None,
        window: int = 2,
        chunks_per_shard: int = 6,
        speculate: bool = True,
        speculate_multiple: float = 4.0,
        speculate_floor_s: float = 0.05,
    ):
        if transport not in (TRANSPORT_MP, TRANSPORT_TCP):
            raise ValueError(f"unknown transport: {transport!r}")
        if transport == TRANSPORT_TCP and not shards:
            raise ValueError("tcp transport needs shard addresses")
        self.workers = workers
        self.spill_factor = spill_factor
        self.transport = transport
        self.shard_addresses = list(shards or [])
        self.window = max(1, window)
        self.chunks_per_shard = max(1, chunks_per_shard)
        self.speculate = speculate
        self.speculate_multiple = speculate_multiple
        self.speculate_floor_s = speculate_floor_s
        self.arena = KernelArena(maxsize=arena_maxsize)
        self._shards: list = []
        self.pool_starts = 0
        self.dispatches = 0
        self.tasks = 0
        self.routed_tasks = 0
        self.routing_spilled = 0
        self.payload_fetches = 0
        self.payload_fetch_bytes = 0
        #: Shards' reader threads serve fetches concurrently.
        self._fetch_lock = threading.Lock()
        self.chunks_dispatched = 0
        self.speculative_dispatches = 0
        self.speculative_wins = 0
        self.stolen_chunks = 0
        self.cancelled_chunks = 0
        self.inflight = 0
        self.inflight_high_water = 0
        self.chunk_size_hist = {bound: 0 for bound in CHUNK_BUCKETS}
        self.chunk_size_hist["inf"] = 0
        self.chunk_pairs_total = 0
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

    def ensure_pool(self, workers: int = 0) -> None:
        """Grow the shard fleet to at least *workers* processes (lazy
        start; existing shards — and their caches — are kept).
        Sizing rule: an explicit *workers* count wins; otherwise the
        runtime's configured default; otherwise
        :func:`default_worker_count` — the machine's CPU count, capped
        — **never** the chunk count of whatever dispatch happened to
        arrive first.  A local shard that died is re-forked in its own
        slot, so rendezvous ranks do not move.  The TCP fleet is fixed
        by the configured addresses: every shard is connected on first
        use, a closed one stays closed until :meth:`restart_pool`, and
        *workers* only caps how many dispatches fan out."""
        if self._closed:
            raise RuntimeError("runtime is shut down")
        if self.transport == TRANSPORT_TCP:
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
                self.pool_starts += 1
            return
        needed = max(1, workers or self.workers or default_worker_count())
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
        self.pool_starts += 1

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

    def _count_fetch(self, nbytes: int) -> None:
        """Shard callback: one fetch-on-miss served, *nbytes* of
        payload shipped to a worker."""
        with self._fetch_lock:
            self.payload_fetches += 1
            self.payload_fetch_bytes += nbytes

    # -- dispatch ----------------------------------------------------------

    def published(self, kernels):
        """Context manager pinning *kernels* in the arena for the
        duration of a dispatch; yields their content digests."""
        return _Published(self, list(kernels))

    def map_chunked(self, func, items, payload_of, workers: int, key_of):
        """Fan *items* out and reassemble the results in input order.

        The batch face of :meth:`map_streaming`, for consumers that
        need every result before they go on (fleet migration): the
        same rendezvous routing on ``key_of(item)``, in-flight window,
        speculation and drain, but one chunk per shard — its whole
        routed share — rather than EWMA-sized micro-chunks, which only
        add per-chunk dispatch cost when nothing consumes results
        early.  ``payload_of(chunk)`` builds each worker payload;
        *func* must return ``(chunk_results, extra)`` with
        ``chunk_results`` aligned to its chunk.  Returns ``(results,
        extras, info)``: *results* in input order for every worker
        count and transport, *extras* in completion order, and *info*
        the dispatch's placement and scheduler counters.
        """
        items = list(items)
        results: list = [None] * len(items)
        extras: list = []
        info: dict = {}
        for indices, chunk_results, extra in self.map_streaming(
            func, items, payload_of, workers, key_of, info=info,
            _chunk_size=len(items),
        ):
            extras.append(extra)
            for index, result in zip(indices, chunk_results):
                results[index] = result
        return results, extras, info

    # -- pipelined scheduler -----------------------------------------------

    def _chunk_size_for(self, n_items: int, pool_size: int) -> int:
        """Adaptive micro-chunk size: start from the configured
        chunks-per-shard target (chunks ≈ 4–8× shards) and shrink
        toward a ~25 ms chunk whenever the fleet's per-pair latency
        EWMA says the target chunks would run long — small enough to
        pipeline and steal, big enough to amortize dispatch."""
        target = -(-n_items // (pool_size * self.chunks_per_shard))
        size = max(1, target)
        ewma = self.pair_latency_ewma
        if ewma is not None and ewma > 0:
            adaptive = max(1, int(0.025 / ewma))
            size = max(1, min(size, adaptive))
        return size

    def _record_chunk_size(self, size: int) -> None:
        self.chunk_pairs_total += size
        for bound in CHUNK_BUCKETS:
            if size <= bound:
                self.chunk_size_hist[bound] += 1
                return
        self.chunk_size_hist["inf"] += 1

    def _observe_shard_latency(
        self, shard: int, seconds: float, pairs: int
    ) -> None:
        """Fold one completed *attempt* into *shard*'s per-pair EWMA —
        the relative-speed signal that keeps stealing and speculation
        from ever moving work onto a slower shard."""
        per_pair = seconds / max(1, pairs)
        previous = self.shard_pair_ewma.get(shard)
        if previous is None:
            self.shard_pair_ewma[shard] = per_pair
        else:
            self.shard_pair_ewma[shard] = previous + _EWMA_ALPHA * (
                per_pair - previous
            )

    def _observe_latency(self, seconds: float, pairs: int) -> None:
        """Fold one completed chunk into the fleet latency EWMAs."""
        per_pair = seconds / max(1, pairs)
        if self.pair_latency_ewma is None:
            self.pair_latency_ewma = per_pair
        else:
            self.pair_latency_ewma += _EWMA_ALPHA * (
                per_pair - self.pair_latency_ewma
            )
        if self.chunk_latency_ewma is None:
            self.chunk_latency_ewma = seconds
        else:
            self.chunk_latency_ewma += _EWMA_ALPHA * (
                seconds - self.chunk_latency_ewma
            )

    def map_streaming(
        self, func, items, payload_of, workers: int, key_of,
        info: dict | None = None, _chunk_size: int = 0,
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
          ``multiple × chunk-EWMA + floor`` is re-dispatched to its
          next-ranked rendezvous shard; the first result wins, late
          duplicates are dropped by chunk identity.
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
        *info*, when given, is filled with routing placement and the
        dispatch-local scheduler counters.
        """
        items = list(items)
        if info is None:
            info = {}
        info.update({
            "loads": [], "spilled": 0, "chunks": 0,
            "chunk_size": 0, "speculated": 0, "spec_wins": 0,
            "stolen": 0, "cancelled": 0, "inflight_high_water": 0,
        })
        if not items:
            return
        if self.transport == TRANSPORT_TCP:
            self.ensure_pool(0)
        else:
            self.ensure_pool(min(workers, len(items)) if workers else 0)
        pool_size = len(self._shards)
        self.dispatches += 1
        self.tasks += len(items)
        self.routed_tasks += len(items)

        keys = [key_of(item) for item in items]
        assignments, spilled = route(keys, pool_size, self.spill_factor)
        self.routing_spilled += spilled
        loads = [0] * pool_size
        per_shard: OrderedDict = OrderedDict()
        for index, shard in enumerate(assignments):
            loads[shard] += 1
            per_shard.setdefault(shard, []).append(index)
        info["loads"] = loads
        info["spilled"] = spilled

        chunk_size = _chunk_size or self._chunk_size_for(
            len(items), pool_size
        )
        info["chunk_size"] = chunk_size
        queued: dict = {shard: deque() for shard in range(pool_size)}
        total_chunks = 0
        for shard in sorted(per_shard):
            indices = per_shard[shard]
            for start in range(0, len(indices), chunk_size):
                part = indices[start:start + chunk_size]
                chunk = _Chunk(
                    indices=part,
                    payload=payload_of([items[index] for index in part]),
                    candidates=rendezvous_rank(keys[part[0]], pool_size),
                )
                queued[shard].append(chunk)
                self._record_chunk_size(len(part))
                total_chunks += 1
        info["chunks"] = total_chunks

        completions: queue.SimpleQueue = queue.SimpleQueue()
        shard_inflight = [0] * pool_size
        # (chunk id, attempt) -> dispatch time, per shard: an attempt
        # keeps its shard busy until its *event* arrives — even after
        # a backup already won the chunk — so a straggler grinding a
        # lost original still reads as straggling.
        shard_busy: list = [dict() for _ in range(pool_size)]
        outstanding = 0
        active: dict = {}
        high_water = 0

        def dispatch(
            chunk: _Chunk, shard: int, speculative: bool = False
        ) -> None:
            nonlocal outstanding, high_water
            attempt = len(chunk.attempts)
            started = time.monotonic()
            chunk.attempts.append((shard, started, speculative))
            chunk.outstanding += 1
            shard_busy[shard][(id(chunk), attempt)] = started
            shard_inflight[shard] += 1
            outstanding += 1
            self.inflight += 1
            high_water = max(high_water, outstanding)
            self.inflight_high_water = max(
                self.inflight_high_water, self.inflight
            )
            self._shards[shard].submit(
                func,
                chunk.payload,
                lambda value, error, c=chunk, s=shard, a=attempt: (
                    completions.put((c, s, a, value, error))
                ),
            )

        def straggler_threshold() -> float:
            return (
                self.speculate_multiple * (self.chunk_latency_ewma or 0.0)
                + self.speculate_floor_s
            )

        def oldest_inflight_age(shard: int, now: float) -> float:
            """Age of *shard*'s oldest unanswered attempt (0.0 when
            idle) — the straggler signal for stealing and the backup
            target filter for speculation.  Counts lost-but-running
            attempts too: a shard grinding a duplicate is just as
            busy as one grinding a winner."""
            busy = shard_busy[shard]
            if not busy:
                return 0.0
            return now - min(busy.values())

        def straggling_since(shard: int, now: float) -> bool:
            """True when *shard*'s oldest in-flight attempt exceeds the
            straggler threshold (the steal/speculate trigger)."""
            return oldest_inflight_age(shard, now) > straggler_threshold()

        def slower_than(candidate: int, reference: int) -> bool:
            """True when *candidate* is observed slower per pair than
            *reference* — unknown shards (no completed attempt yet)
            are never called slower."""
            cand = self.shard_pair_ewma.get(candidate)
            ref = self.shard_pair_ewma.get(reference)
            return cand is not None and ref is not None and cand > ref

        def steal_for(thief: int, now: float):
            """A queued chunk taken from the most backlogged straggling
            shard (tail-first, classic work stealing) — None when no
            shard is both backlogged and demonstrably slow, or when the
            thief itself is the slower party (a straggler must not
            steal its work back)."""
            victim = None
            backlog = 0
            for shard in range(pool_size):
                if shard == thief or len(queued[shard]) <= backlog:
                    continue
                if straggling_since(shard, now) and not slower_than(
                    thief, shard
                ):
                    victim = shard
                    backlog = len(queued[shard])
            if victim is None:
                return None
            self.stolen_chunks += 1
            info["stolen"] += 1
            return queued[victim].pop()

        def untried(chunk: _Chunk):
            """*chunk*'s rendezvous candidates, best first, that have
            no attempt yet and are still connected."""
            tried = {attempt[0] for attempt in chunk.attempts}
            return (
                candidate
                for candidate in chunk.candidates
                if candidate not in tried
                and self._shards[candidate].connected
            )

        def top_up() -> None:
            now = time.monotonic()
            for shard in range(pool_size):
                while shard_inflight[shard] < self.window:
                    if queued[shard]:
                        # On a dead shard this attempt fails at once
                        # and the chunk moves on (see settle).
                        chunk = queued[shard].popleft()
                    elif self._shards[shard].connected:
                        chunk = steal_for(shard, now)
                    else:
                        chunk = None
                    if chunk is None:
                        break
                    active[id(chunk)] = chunk
                    self.chunks_dispatched += 1
                    dispatch(chunk, shard)

        def maybe_speculate(now: float) -> None:
            if not self.speculate:
                return
            threshold = straggler_threshold()
            for chunk in list(active.values()):
                if chunk.done or len(chunk.attempts) > 1:
                    continue
                shard0, started, _ = chunk.attempts[0]
                age = now - started
                if age <= threshold:
                    continue
                # The backup must land on a shard doing strictly
                # better than this chunk's own wait and not observed
                # slower than its current shard — re-dispatching onto
                # an equally stuck shard only doubles the drain.
                target = next(
                    (
                        candidate
                        for candidate in untried(chunk)
                        if oldest_inflight_age(candidate, now) < age
                        and not slower_than(candidate, shard0)
                    ),
                    None,
                )
                if target is None:
                    continue
                self.speculative_dispatches += 1
                info["speculated"] += 1
                dispatch(chunk, target, speculative=True)

        def release(event) -> None:
            """Free one finished attempt's window slot and fold its
            latency into its shard's EWMA (winners and losers alike)."""
            nonlocal outstanding
            chunk, shard, attempt, _, error = event
            shard_inflight[shard] -= 1
            shard_busy[shard].pop((id(chunk), attempt), None)
            outstanding -= 1
            self.inflight -= 1
            chunk.outstanding -= 1
            if error is None:
                self._observe_shard_latency(
                    shard,
                    time.monotonic() - chunk.attempts[attempt][1],
                    len(chunk.indices),
                )

        def settle(event) -> _Chunk | None:
            """Account one completion event; returns the chunk when it
            is this chunk's *first* (winning) result."""
            release(event)
            chunk, _, attempt, value, error = event
            if chunk.done:
                return None
            if error is not None:
                # Another attempt may still win; only a chunk whose
                # every attempt failed moves on or propagates.
                if chunk.outstanding > 0:
                    return None
                if isinstance(error, ShardLostError):
                    target = next(untried(chunk), None)
                    if target is not None:
                        dispatch(chunk, target)
                        return None
                raise error
            chunk.done = True
            active.pop(id(chunk), None)
            _, started, speculative = chunk.attempts[attempt]
            self._observe_latency(
                time.monotonic() - started, len(chunk.indices)
            )
            if speculative:
                self.speculative_wins += 1
                info["spec_wins"] += 1
            chunk.result = value
            return chunk

        done_count = 0
        try:
            while done_count < total_chunks:
                top_up()
                try:
                    event = completions.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    maybe_speculate(time.monotonic())
                    continue
                winner = settle(event)
                maybe_speculate(time.monotonic())
                if winner is None:
                    continue
                done_count += 1
                results, extra = winner.result
                winner.result = None
                yield winner.indices, results, extra
        except GeneratorExit:
            cancelled = sum(len(pending) for pending in queued.values())
            cancelled += sum(
                1 for chunk in active.values() if not chunk.done
            )
            self.cancelled_chunks += cancelled
            info["cancelled"] += cancelled
            raise
        finally:
            info["inflight_high_water"] = high_water
            # Drain every outstanding attempt (late duplicates, the
            # straggler halves of speculated chunks, cancelled work)
            # so callers can unpin arena entries with nothing in
            # flight.  Never raises: the dispatch is already over.
            while outstanding > 0:
                try:
                    event = completions.get(timeout=60)
                except queue.Empty:  # pragma: no cover - hung worker
                    break
                release(event)

    def stats(self) -> dict:
        """Running counters (arena + pool + routing) as one flat dict."""
        return {
            "published": self.arena.published,
            "published_bytes": self.arena.published_bytes,
            "arena_hits": self.arena.hits,
            "arena_dedup_hits": self.arena.dedup_hits,
            "arena_entries": len(self.arena),
            "pool_starts": self.pool_starts,
            "pool_size": len(self._shards),
            "dispatches": self.dispatches,
            "tasks": self.tasks,
            "transport": self.transport,
            "routed_tasks": self.routed_tasks,
            "routing_spilled": self.routing_spilled,
            "payload_fetches": self.payload_fetches,
            "payload_fetch_bytes": self.payload_fetch_bytes,
            "chunks_dispatched": self.chunks_dispatched,
            "speculative_dispatches": self.speculative_dispatches,
            "speculative_wins": self.speculative_wins,
            "stolen_chunks": self.stolen_chunks,
            "cancelled_chunks": self.cancelled_chunks,
            "inflight": self.inflight,
            "inflight_high_water": self.inflight_high_water,
            "chunk_size_hist": dict(self.chunk_size_hist),
            "chunk_pairs_total": self.chunk_pairs_total,
        }

    def describe(self) -> str:
        """One human-readable line of pool + arena + routing counters
        (the ``--stats`` output of the CLI sweep)."""
        stats = self.stats()
        return (
            f"runtime: pool of {stats['pool_size']} worker(s) "
            f"({stats['pool_starts']} start(s), "
            f"{stats['dispatches']} dispatch(es), "
            f"{stats['tasks']} task(s)); arena: "
            f"{stats['arena_entries']} entr(y/ies), "
            f"{stats['published']} publish(es) "
            f"({stats['published_bytes']} bytes), "
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
            f"in-flight high water {stats['inflight_high_water']}"
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
    The fleet starts empty; the first dispatch forks shards sized by
    its explicit worker count, or by :func:`default_worker_count`
    (CPU count, capped) when it gives none."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT._closed:
        _DEFAULT = EvolutionRuntime()
    return _DEFAULT


def discard_kernel(kernel) -> None:
    """Unpublish *kernel* from the default runtime's arena, if one is
    live (fire-and-forget compile-eviction hook: replacing a process
    version drops its predecessor's arena entry as soon as the version
    stops being the lineage anchor)."""
    if _DEFAULT is not None and not _DEFAULT._closed:
        _DEFAULT.arena.discard(kernel)


def shutdown_runtime() -> None:
    """Shut down the default runtime (tests and clean exits)."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.shutdown()
        _DEFAULT = None


atexit.register(shutdown_runtime)
