"""Multi-tenant state: registry, quotas, admission, eviction.

One service process hosts many tenants, but the layers below it are
*shared* — one verdict cache, one kernel arena, one worker pool.  This
module is where that multiplexing gets its guard rails:

* **admission control** — every compute endpoint passes through
  :meth:`TenantRegistry.admit`: a tenant may hold at most
  ``max_inflight`` requests open at once, and the service as a whole
  at most ``max_inflight_total``.  Over-limit requests are rejected
  *before* any engine work with a 429-style error — crucially, before
  anything could touch (and therefore never poisoning) the verdict
  cache or the arena.
* **registration quotas** — ``max_choreographies`` per tenant and
  ``max_parties`` per choreography bound what one tenant can make the
  shared caches hold.
* **eviction priorities** — the registry keeps at most
  ``max_resident`` choreographies service-wide.  Registering past the
  cap evicts the least-recently-used choreography of the
  *lowest-priority* tenant (ties broken by staleness), and eviction
  cascades into the shared caches: the evicted parties' kernels are
  discarded from the serving runtime's arena and their entries
  dropped from the shared verdict cache
  (:meth:`repro.afsa.lazy.PairVerdictCache.invalidate_kernels`) — the
  same age-out contract compile eviction applies, driven by tenant
  policy instead of version replacement.

Threading: the registry *maps* are mutated only from the event-loop
thread, but the eviction *cascade* touches the shared verdict cache
and arena — engine-owned state.  Eviction therefore only queues the
victim sessions (:meth:`TenantRegistry.drain_releases`); the service
dispatches :func:`release_sessions` through its serialized engine
thread, so cache/arena mutation never races in-flight checks.
"""

from __future__ import annotations

import itertools

from repro.afsa.lazy import VERDICTS


class ServiceError(Exception):
    """An API-level failure with an HTTP status and a stable code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class Tenant:
    """One registered tenant and its live usage counters."""

    __slots__ = (
        "name",
        "priority",
        "max_inflight",
        "max_choreographies",
        "inflight",
        "admitted",
        "rejected",
    )

    def __init__(
        self,
        name: str,
        priority: int = 0,
        max_inflight: int = 32,
        max_choreographies: int = 16,
    ):
        self.name = name
        self.priority = priority
        self.max_inflight = max_inflight
        self.max_choreographies = max_choreographies
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0

    def snapshot(self) -> dict:
        """JSON-friendly view of the tenant (the ``GET /tenants`` row)."""
        return {
            "tenant": self.name,
            "priority": self.priority,
            "max_inflight": self.max_inflight,
            "max_choreographies": self.max_choreographies,
            "inflight": self.inflight,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }


class Session:
    """One registered choreography: the model, its evolution engine,
    the memo of its finished ``/check`` answers, and the bookkeeping
    eviction needs.

    ``answers`` maps ``(left, right, witness policy)`` to ``(versions,
    response)``: the JSON-ready ``/check`` response (a bool and the
    rendered witness text, never a kernel) and the two process versions
    the engine computed it for.  It is read and written on the event
    loop only, holds no engine state, and dies with the session — a
    replaced choreography restarts its versions at ``#v1`` but starts
    with an empty memo.  One entry per pair and policy, overwritten
    when the versions move.
    """

    __slots__ = (
        "tenant", "name", "choreography", "engine", "last_used", "answers"
    )

    def __init__(self, tenant: Tenant, name: str, choreography, engine):
        self.tenant = tenant
        self.name = name
        self.choreography = choreography
        self.engine = engine
        self.last_used = 0
        self.answers: dict = {}

    def resident_kernels(self) -> list:
        """The kernels this session holds in the shared caches: every
        *already compiled* public process, every lineage anchor (the
        previous version of an evolved party, kept for warm starts),
        and their memoized views.

        Only materialized kernels are collected — eviction must not
        trigger compilation of models nobody ever asked about.
        """
        choreography = self.choreography
        publics = [
            compiled.afsa for compiled in choreography._compiled.values()
        ]
        publics.extend(choreography._lineage.values())
        kernels = []
        for public in publics:
            automata = [public]
            view_memo = public._view_memo
            if view_memo:
                automata.extend(view_memo.values())
            for automaton in automata:
                kernel = automaton._kernel
                if kernel is not None:
                    kernels.append(kernel)
        return kernels


class Admission:
    """One admitted in-flight slot (context manager).

    Release is **idempotent**: streaming responses hold their slot
    open past the handler's return, and the cleanup path
    (:meth:`~repro.service.app.StreamingBody.aclose`) must be able to
    release unconditionally — whether the stream finished, was
    abandoned before its first chunk, or died mid-flight.
    """

    __slots__ = ("_registry", "_tenant", "_released")

    def __init__(self, registry: "TenantRegistry", tenant: Tenant):
        self._registry = registry
        self._tenant = tenant
        self._released = False

    def release(self) -> None:
        """Return the slot; safe to call more than once."""
        if self._released:
            return
        self._released = True
        self._tenant.inflight -= 1
        self._registry.inflight_total -= 1

    def __enter__(self) -> Tenant:
        return self._tenant

    def __exit__(self, *exc_info) -> None:
        self.release()


class TenantRegistry:
    """All tenants and their registered choreographies.

    Args:
        metrics: the :class:`~repro.service.metrics.ServiceMetrics` to
            count rejections/evictions on.
        max_resident: service-wide cap on registered choreographies
            (the eviction trigger).
        max_inflight_total: service-wide cap on admitted requests.
        max_parties: cap on partners per registered choreography.
    """

    def __init__(
        self,
        metrics,
        max_resident: int = 64,
        max_inflight_total: int = 256,
        max_parties: int = 32,
    ):
        self.metrics = metrics
        self.max_resident = max_resident
        self.max_inflight_total = max_inflight_total
        self.max_parties = max_parties
        self.inflight_total = 0
        self.tenants: dict = {}
        self.sessions: dict = {}
        self._clock = itertools.count(1)
        self._pending_release: list = []

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, tenant: Tenant) -> Tenant:
        """Register *tenant*; duplicate names are a 409."""
        if tenant.name in self.tenants:
            raise ServiceError(
                409,
                "tenant-exists",
                f"tenant {tenant.name!r} is already registered",
            )
        self.tenants[tenant.name] = tenant
        return tenant

    def tenant(self, name) -> Tenant:
        """Look a tenant up by name; unknown names are a 404."""
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ServiceError(
                404, "unknown-tenant", f"unknown tenant {name!r}"
            )
        return tenant

    def admit(self, tenant: Tenant) -> Admission:
        """Claim one in-flight slot for *tenant* (release by ``with``).

        Raises a 429 :class:`ServiceError` when the tenant's — or the
        service's — in-flight cap is reached.  Rejection happens
        before any engine work, so an over-quota burst cannot poison
        the verdict cache or publish anything to the arena.
        """
        if tenant.inflight >= tenant.max_inflight:
            tenant.rejected += 1
            self.metrics.counters["admission_rejected"] += 1
            raise ServiceError(
                429,
                "tenant-overloaded",
                f"tenant {tenant.name!r} has {tenant.inflight} "
                f"request(s) in flight (cap {tenant.max_inflight})",
            )
        if self.inflight_total >= self.max_inflight_total:
            tenant.rejected += 1
            self.metrics.counters["admission_rejected"] += 1
            raise ServiceError(
                429,
                "service-overloaded",
                f"service has {self.inflight_total} request(s) in "
                f"flight (cap {self.max_inflight_total})",
            )
        tenant.inflight += 1
        tenant.admitted += 1
        self.inflight_total += 1
        return Admission(self, tenant)

    # -- choreography sessions --------------------------------------------

    def register_session(self, session: Session, replace: bool) -> bool:
        """Install *session*, enforcing quotas and the residency cap.

        Returns True when an existing same-name session was replaced.
        Raises 409 on a duplicate without ``replace`` and 429 when the
        tenant's choreography quota is exhausted.
        """
        key = (session.tenant.name, session.name)
        replaced = key in self.sessions
        if replaced and not replace:
            raise ServiceError(
                409,
                "choreography-exists",
                f"choreography {session.name!r} is already registered "
                f"for tenant {session.tenant.name!r} "
                f"(pass \"replace\": true to overwrite)",
            )
        owned = sum(
            1
            for tenant_name, _ in self.sessions
            if tenant_name == session.tenant.name
        )
        if not replaced and owned >= session.tenant.max_choreographies:
            self.metrics.counters["quota_rejected"] += 1
            raise ServiceError(
                429,
                "choreography-quota",
                f"tenant {session.tenant.name!r} already holds {owned} "
                f"choreographie(s) (cap "
                f"{session.tenant.max_choreographies})",
            )
        if replaced:
            self._release(self.sessions[key])
        session.last_used = next(self._clock)
        self.sessions[key] = session
        self._evict_past_cap(keep=key)
        return replaced

    def session(self, tenant_name, name) -> Session:
        """Look a session up (404 on unknown) and touch its LRU age."""
        tenant = self.tenant(tenant_name)
        session = self.sessions.get((tenant.name, name))
        if session is None:
            raise ServiceError(
                404,
                "unknown-choreography",
                f"tenant {tenant.name!r} has no choreography {name!r} "
                f"(it may have been evicted)",
            )
        session.last_used = next(self._clock)
        return session

    def _evict_past_cap(self, keep) -> None:
        """Evict until at most ``max_resident`` sessions remain.

        Victims are picked lowest tenant priority first, then least
        recently used; the session just registered (*keep*) is exempt,
        so registering can displace colder tenants but never itself.
        """
        while len(self.sessions) > self.max_resident:
            victims = [
                (session.tenant.priority, session.last_used, key)
                for key, session in self.sessions.items()
                if key != keep
            ]
            if not victims:
                return
            _, _, victim_key = min(victims)
            self._release(self.sessions.pop(victim_key))
            self.metrics.counters["evictions"] += 1

    def _release(self, session: Session) -> None:
        """Queue a removed session for the shared-cache cascade.

        The cascade itself (:func:`release_sessions`) mutates the
        verdict cache and the arena, which belong to the engine
        thread — so it is only *queued* here; the service drains the
        queue and runs it via its serialized engine dispatch.
        """
        self._pending_release.append(session)

    def drain_releases(self) -> list:
        """Take (and clear) the sessions queued for cache release."""
        released, self._pending_release = self._pending_release, []
        return released


def release_sessions(sessions: list, runtime=None) -> None:
    """Cascade evicted *sessions* out of the shared caches.

    Discards every materialized kernel from the arena of *runtime*
    (the runtime the service actually serves with; the process-wide
    default when none was given) and invalidates their entries in the
    shared verdict cache.  Touches engine-owned state — must run on
    the serialized engine thread, never the event loop.
    """
    from repro.core.runtime import discard_kernel

    kernels = []
    for session in sessions:
        kernels.extend(session.resident_kernels())
    for kernel in kernels:
        discard_kernel(kernel, runtime)
    VERDICTS.invalidate_kernels(kernels)
