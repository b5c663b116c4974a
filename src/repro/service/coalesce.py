"""Request coalescing: the cache-stampede guard of the front-end.

The :data:`~repro.afsa.lazy.VERDICTS` cache makes the *second* check
of an unchanged pair ~O(1) — but only once the first one has finished.
A burst of identical requests arriving while the first is still in
flight (the classic cache-stampede / thundering-herd shape; many
tenants polling the same choreography, a dashboard fanning out) would
each dispatch the same cold verdict to the engine.  The
:class:`Coalescer` closes that window: the first request for a key
becomes the *owner* and dispatches; every concurrent duplicate awaits
the owner's future and shares its result — N concurrent identical pair
checks produce exactly one engine dispatch (asserted by the test
suite and surfaced as ``repro_coalesced_requests_total``).

Keys are built from *version-stamped names* — ``(tenant,
choreography, left party, right party, witness policy, left version,
right version)`` — not from kernel identities: the key must be
computable on the event-loop thread without touching the engine, and
version stamps give exactly the invalidation the verdict cache itself
rides on (an evolution bumps the version, so post-evolution checks
never coalesce onto pre-evolution results).

Errors propagate to every waiter; the failed key is removed before
the waiters wake, so a retry dispatches fresh.  Cancellation is *not*
contagious: when the owner's task is cancelled, followers are not
collaterally cancelled — the first of them re-dispatches as the new
owner (each follower distinguishes "the owner died" from "I was
cancelled" by whether the shared future itself was cancelled).
"""

from __future__ import annotations

import asyncio


class Coalescer:
    """Deduplicate concurrent identical requests onto one in-flight
    computation.

    One instance per service; all bookkeeping happens on the event
    loop, so no synchronization is required.  The ``coalesced``
    counter of ``metrics`` counts the deduplicated followers.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self._inflight: dict = {}

    def pending(self) -> int:
        """Number of keys currently in flight (introspection/tests)."""
        return len(self._inflight)

    async def run(self, key, thunk):
        """Return ``await thunk()`` for *key*, deduplicated.

        The first caller for a live *key* owns the computation; any
        caller arriving before the owner finishes awaits the same
        future.  The key is removed before waiters are woken, so a
        request arriving *after* completion is not coalesced (``/check``
        answers it from the session's answer memo instead — the
        coalescer only guards the in-flight window).

        If the *owner* is cancelled, its followers are not: the
        shared future is cancelled (after the key is removed) and the
        first follower to wake takes over as a fresh owner — one
        client hanging up must not abort everyone coalesced behind
        it.  A follower's *own* cancellation still propagates.
        """
        while True:
            future = self._inflight.get(key)
            if future is None:
                break
            if self.metrics is not None:
                self.metrics.counters["coalesced"] += 1
            try:
                return await asyncio.shield(future)
            except asyncio.CancelledError:
                if not future.cancelled():
                    # The future is alive: the cancellation is ours
                    # (shield protects the owner from it).
                    raise
                # The owner was cancelled; this request wasn't
                # deduplicated after all — undo the count and retry
                # (becoming the new owner if it gets there first).
                if self.metrics is not None:
                    self.metrics.counters["coalesced"] -= 1
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await thunk()
        except asyncio.CancelledError:
            # Owner cancelled: detach the key first so followers that
            # wake on the cancelled future re-dispatch fresh instead
            # of inheriting the cancellation.
            self._inflight.pop(key, None)
            future.cancel()
            raise
        except BaseException as error:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_exception(error)
                # Mark retrieved: with zero followers nobody awaits
                # this future, and an unretrieved exception would log
                # a spurious warning at GC time.
                future.exception()
            raise
        else:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_result(result)
            return result
