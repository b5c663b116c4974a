"""Service-layer semantics: admission, coalescing, the answer memo,
quotas, eviction.

Everything here drives :meth:`ChoreoService.dispatch` directly — the
same code path the socket layer uses, without opening sockets.  The
asyncio event loop makes the concurrency deterministic: handlers are
synchronous up to their first engine dispatch, so a batch of tasks
scheduled with ``gather`` all pass admission/coalescing *before* the
first engine-thread completion callback can run.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from unittest import mock

import pytest

from regimes import FAN_OUT, scheduler
from repro.afsa.lazy import VERDICTS
from repro.bpel.dsl import process_from_dsl, process_to_dsl
from repro.core.runtime import EvolutionRuntime, _WORKER_KERNELS
from repro.core.sweep import WITNESS_ALL, WITNESS_NONE, check_pair
from repro.core.transport import ShardServer
from repro.errors import ChangeError
from repro.scenario.procurement import (
    accounting_private_variant_change,
    buyer_private,
    logistics_private,
)
from repro.service.app import ChoreoService, ROUTES
from repro.service.coalesce import Coalescer
from repro.service.http import HttpError, Request
from repro.service.tenants import ServiceError
from repro.workload.generator import (
    generate_choreography,
    generate_partner_pair,
)
from repro.workload.mutations import (
    inject_invariant_additive,
    inject_variant_additive,
    inject_variant_subtractive,
    random_change,
)

BUYER = """
process shop party=S
  sequence "shop main"
    receive C orderOp order
    invoke C confirmOp confirm
"""

CLIENT = """
process client party=C
  sequence "client main"
    invoke S orderOp order
    receive S confirmOp confirm
"""

#: A client that never confirms — inconsistent with the shop.
CLIENT_BAD = """
process client party=C
  sequence "client main"
    invoke S orderOp order
"""


def request(method: str, path: str, body=None) -> Request:
    data = json.dumps(body).encode("utf-8") if body is not None else b""
    return Request(
        method=method,
        path=path,
        query="",
        headers={},
        body=data,
        keep_alive=True,
    )


def run(coro):
    return asyncio.run(coro)


async def make_service(**kwargs) -> ChoreoService:
    service = ChoreoService(**kwargs)
    status, _ = await service.dispatch(
        request("POST", "/tenants", {"tenant": "acme"})
    )
    assert status == 200
    status, _ = await service.dispatch(
        request(
            "POST",
            "/choreographies",
            {
                "tenant": "acme",
                "name": "shop",
                "processes": [BUYER, CLIENT],
            },
        )
    )
    assert status == 200
    return service


def check_body(**overrides) -> dict:
    body = {
        "tenant": "acme",
        "choreography": "shop",
        "left": "C",
        "right": "S",
    }
    body.update(overrides)
    return body


def direct_answer(session, left="C", right="S", witness=False) -> dict:
    """The ``/check`` body for *session*'s current views, computed with
    ``check_pair`` directly (no memo, no coalescer, no engine thread)."""
    choreography = session.choreography
    consistent, found = check_pair(
        choreography.view(right, on=left),
        choreography.view(left, on=right),
        WITNESS_ALL if witness else WITNESS_NONE,
    )
    return {
        "left": left,
        "right": right,
        "consistent": consistent,
        "witness": found.describe() if found is not None else None,
    }


class TestRouting:
    def test_unknown_route_is_404(self):
        async def main():
            service = ChoreoService()
            try:
                status, payload = await service.dispatch(
                    request("GET", "/nope")
                )
                assert status == 404
                assert payload["error"]["code"] == "unknown-route"
            finally:
                service.close()

        run(main())

    def test_wrong_method_is_405(self):
        async def main():
            service = ChoreoService()
            try:
                status, payload = await service.dispatch(
                    request("DELETE", "/tenants")
                )
                assert status == 405
                assert payload["error"]["code"] == "method-not-allowed"
            finally:
                service.close()

        run(main())

    def test_routes_are_unique(self):
        keys = [(route.method, route.path) for route in ROUTES]
        assert len(keys) == len(set(keys))

    def test_malformed_json_is_400(self):
        async def main():
            service = ChoreoService()
            try:
                bad = Request(
                    method="POST",
                    path="/tenants",
                    query="",
                    headers={},
                    body=b"{not json",
                    keep_alive=True,
                )
                status, payload = await service.dispatch(bad)
                assert status == 400
                assert payload["error"]["code"] == "bad-request"
            finally:
                service.close()

        run(main())


class TestLifecycle:
    def test_register_check_sweep_round_trip(self):
        async def main():
            service = await make_service()
            try:
                status, verdict = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert status == 200
                assert verdict["consistent"] is True
                status, report = await service.dispatch(
                    request(
                        "POST",
                        "/sweep",
                        {"tenant": "acme", "choreography": "shop"},
                    )
                )
                assert status == 200
                assert report["consistent"] is True
                assert report["pairs"] == 1
                assert "counters" in report
            finally:
                service.close()

        run(main())

    def test_duplicate_tenant_is_409(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                assert status == 409
                assert payload["error"]["code"] == "tenant-exists"
            finally:
                service.close()

        run(main())

    def test_duplicate_choreography_needs_replace(self):
        async def main():
            service = await make_service()
            try:
                body = {
                    "tenant": "acme",
                    "name": "shop",
                    "processes": [BUYER, CLIENT],
                }
                status, payload = await service.dispatch(
                    request("POST", "/choreographies", body)
                )
                assert status == 409
                assert payload["error"]["code"] == "choreography-exists"
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {**body, "replace": True},
                    )
                )
                assert status == 200
                assert payload["replaced"] is True
            finally:
                service.close()

        run(main())

    def test_invalid_process_is_422(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "bad",
                            "processes": ["garbage !!"],
                        },
                    )
                )
                assert status == 422
                assert payload["error"]["code"] == "invalid-model"
            finally:
                service.close()

        run(main())

    def test_unknown_party_is_404(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request("POST", "/check", check_body(left="Z"))
                )
                assert status == 404
                assert payload["error"]["code"] == "unknown-party"
            finally:
                service.close()

        run(main())

    def test_inconsistent_pair_reports_witness(self):
        async def main():
            service = ChoreoService()
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "bad",
                            "processes": [BUYER, CLIENT_BAD],
                        },
                    )
                )
                status, verdict = await service.dispatch(
                    request(
                        "POST",
                        "/check",
                        check_body(choreography="bad", witness=True),
                    )
                )
                assert status == 200
                assert verdict["consistent"] is False
                assert verdict["witness"]
            finally:
                service.close()

        run(main())


class TestCoalescing:
    """The cache-stampede guard: N concurrent identical pair checks
    produce exactly one engine dispatch."""

    def test_identical_checks_coalesce_to_one_dispatch(self):
        N = 8

        async def main():
            service = await make_service()
            try:
                VERDICTS.clear()
                executed_before = service.metrics.counters["checks_executed"]
                misses_before = VERDICTS.counters["cache_misses"]
                results = await asyncio.gather(
                    *(
                        service.dispatch(
                            request("POST", "/check", check_body())
                        )
                        for _ in range(N)
                    )
                )
                statuses = [status for status, _ in results]
                verdicts = [payload for _, payload in results]
                assert statuses == [200] * N
                # Every caller got the same verdict object contents.
                assert all(v == verdicts[0] for v in verdicts)
                # Exactly ONE engine execution served all N requests.
                assert (
                    service.metrics.counters["checks_executed"]
                    - executed_before == 1
                )
                assert service.metrics.counters["coalesced"] == N - 1
                # The verdict cache saw one miss, not N.
                misses_after = VERDICTS.counters["cache_misses"]
                assert misses_after - misses_before == 1
            finally:
                service.close()

        run(main())

    def test_sequential_checks_hit_answer_memo_not_engine(self):
        async def main():
            service = await make_service()
            try:
                _, first = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                # Each caller owns its payload: tampering with one
                # must not reach the memo or later answers.
                first["consistent"] = "tampered"
                metrics = service.metrics
                untouched = (
                    metrics.counters["engine_dispatches"],
                    metrics.counters["checks_executed"],
                    metrics.counters["coalesced"],
                    dict(VERDICTS.counters),
                )
                memo_hits = metrics.counters["check_memo_hits"]
                status, second = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert status == 200
                # A request after completion is answered from the
                # session's memo on the loop: no engine dispatch, no
                # computation, no coalescing, no verdict-cache lookup.
                assert (
                    metrics.counters["engine_dispatches"],
                    metrics.counters["checks_executed"],
                    metrics.counters["coalesced"],
                    dict(VERDICTS.counters),
                ) == untouched
                assert metrics.counters["check_memo_hits"] == memo_hits + 1
                session = service.registry.sessions[("acme", "shop")]
                assert second == direct_answer(session)
                second["witness"] = "tampered"
                _, third = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert third == direct_answer(session)
                assert metrics.counters["check_memo_hits"] == memo_hits + 2
            finally:
                service.close()

        run(main())

    def test_distinct_policies_do_not_coalesce(self):
        async def main():
            service = await make_service()
            try:
                executed_before = service.metrics.counters["checks_executed"]
                await asyncio.gather(
                    service.dispatch(
                        request("POST", "/check", check_body())
                    ),
                    service.dispatch(
                        request(
                            "POST", "/check", check_body(witness=True)
                        )
                    ),
                )
                assert (
                    service.metrics.counters["checks_executed"]
                    - executed_before == 2
                )
                assert service.metrics.counters["coalesced"] == 0
            finally:
                service.close()

        run(main())

    def test_evolution_bumps_coalescing_key(self):
        """Version stamps in the key: a committed evolution must not
        let later checks coalesce onto (or reuse) stale futures."""

        async def main():
            service = await make_service()
            try:
                status, before = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert before["consistent"] is True
                pending_before = service.coalescer.pending()
                assert pending_before == 0
                # Re-register (replace) to bump the world, then check
                # again: fresh dispatch, no coalescer involvement.
                await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "shop",
                            "processes": [BUYER, CLIENT_BAD],
                            "replace": True,
                        },
                    )
                )
                status, after = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert status == 200
                assert after["consistent"] is False
            finally:
                service.close()

        run(main())


def evolve_body(process: str, **overrides) -> dict:
    body = {
        "tenant": "acme",
        "choreography": "shop",
        "party": "C",
        "process": {"text": process, "format": "dsl"},
        "auto_adapt": False,
        "commit": True,
    }
    body.update(overrides)
    return body


async def make_bad_shop() -> ChoreoService:
    """A service whose ``shop`` starts inconsistent (the client never
    confirms); evolving C to ``CLIENT`` commits and fixes it."""
    service = ChoreoService()
    await service.dispatch(request("POST", "/tenants", {"tenant": "acme"}))
    status, _ = await service.dispatch(
        request(
            "POST",
            "/choreographies",
            {
                "tenant": "acme",
                "name": "shop",
                "processes": [BUYER, CLIENT_BAD],
            },
        )
    )
    assert status == 200
    return service


class TestAnswerMemo:
    """Finished checks are answered on the loop from the session's memo,
    and only while both parties keep the versions the engine computed
    the answer for."""

    def test_committed_evolve_recomputes(self):
        async def main():
            service = await make_bad_shop()
            try:
                _, before = await service.dispatch(
                    request("POST", "/check", check_body(witness=True))
                )
                assert before["consistent"] is False
                assert before["witness"] is not None
                status, evolved = await service.dispatch(
                    request("POST", "/evolve", evolve_body(CLIENT))
                )
                assert status == 200
                assert evolved["committed"] is True
                executed = service.metrics.counters["checks_executed"]
                memo_hits = service.metrics.counters["check_memo_hits"]
                _, after = await service.dispatch(
                    request("POST", "/check", check_body(witness=True))
                )
                assert after["consistent"] is True
                assert (
                    service.metrics.counters["checks_executed"] == executed + 1
                )
                assert service.metrics.counters["check_memo_hits"] == memo_hits
            finally:
                service.close()

        run(main())

    def test_uncommitted_evolve_keeps_the_memoized_answer(self):
        async def main():
            service = await make_bad_shop()
            try:
                await service.dispatch(
                    request("POST", "/check", check_body(witness=True))
                )
                status, evolved = await service.dispatch(
                    request(
                        "POST", "/evolve", evolve_body(CLIENT, commit=False)
                    )
                )
                assert status == 200
                assert evolved["committed"] is False
                executed = service.metrics.counters["checks_executed"]
                memo_hits = service.metrics.counters["check_memo_hits"]
                _, after = await service.dispatch(
                    request("POST", "/check", check_body(witness=True))
                )
                assert service.metrics.counters["checks_executed"] == executed
                assert (
                    service.metrics.counters["check_memo_hits"]
                    == memo_hits + 1
                )
                session = service.registry.sessions[("acme", "shop")]
                assert after == direct_answer(session, witness=True)
                assert after["consistent"] is False
            finally:
                service.close()

        run(main())

    def test_answers_are_stamped_with_the_engine_versions(self):
        """A check queued behind a committing evolve computes the
        post-evolve verdict; its memo entry must carry the post-evolve
        versions, not the ones the loop read before dispatching."""

        async def main():
            service = await make_bad_shop()
            try:
                (_, evolved), (_, raced) = await asyncio.gather(
                    service.dispatch(
                        request("POST", "/evolve", evolve_body(CLIENT))
                    ),
                    service.dispatch(request("POST", "/check", check_body())),
                )
                assert evolved["committed"] is True
                assert raced["consistent"] is True
                executed = service.metrics.counters["checks_executed"]
                memo_hits = service.metrics.counters["check_memo_hits"]
                _, third = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert service.metrics.counters["checks_executed"] == executed
                assert (
                    service.metrics.counters["check_memo_hits"]
                    == memo_hits + 1
                )
                session = service.registry.sessions[("acme", "shop")]
                assert third == direct_answer(session)
            finally:
                service.close()

        run(main())

    def test_tenant_at_its_cap_gets_429_for_a_memoized_pair(self):
        async def main():
            service = await make_service()
            try:
                await service.dispatch(request("POST", "/check", check_body()))
                tenant = service.registry.tenant("acme")
                tenant.max_inflight = 1
                held = service.registry.admit(tenant)
                rejected = service.metrics.counters["admission_rejected"]
                memo_hits = service.metrics.counters["check_memo_hits"]
                status, payload = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert status == 429
                assert payload["error"]["code"] == "tenant-overloaded"
                assert (
                    service.metrics.counters["admission_rejected"]
                    == rejected + 1
                )
                assert service.metrics.counters["check_memo_hits"] == memo_hits
                held.release()
                status, _ = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert status == 200
                assert (
                    service.metrics.counters["check_memo_hits"]
                    == memo_hits + 1
                )
                assert tenant.inflight == 0
            finally:
                service.close()

        run(main())

    def test_replace_does_not_join_the_old_computation(self):
        """A replaced choreography restarts its versions at ``#v1``
        under the same names, so a check on it must not coalesce onto a
        check still in flight for the old one: it would receive, and
        memoize, the old choreography's verdict."""

        async def until(predicate):
            async def poll():
                while not predicate():
                    await asyncio.sleep(0.001)

            await asyncio.wait_for(poll(), 10)

        async def main():
            service = await make_service()
            gate = threading.Event()
            calls = []

            def gated_check_pair(*args):
                calls.append(args)
                if len(calls) == 1:
                    gate.wait(10)
                return check_pair(*args)

            metrics = service.metrics
            try:
                old = service.registry.sessions[("acme", "shop")]
                with mock.patch(
                    "repro.service.app.check_pair", gated_check_pair
                ):
                    # The replace's build is queued on the engine first;
                    # the check on the old choreography queues behind it
                    # and then blocks in its check_pair.
                    replace = asyncio.ensure_future(
                        service.dispatch(
                            request(
                                "POST",
                                "/choreographies",
                                {
                                    "tenant": "acme",
                                    "name": "shop",
                                    "processes": [BUYER, CLIENT_BAD],
                                    "replace": True,
                                },
                            )
                        )
                    )
                    stale = asyncio.ensure_future(
                        service.dispatch(
                            request("POST", "/check", check_body())
                        )
                    )
                    await until(
                        lambda: service.registry.sessions[("acme", "shop")]
                        is not old
                    )
                    assert not stale.done()
                    waiting = (
                        metrics.counters["coalesced"],
                        metrics.counters["engine_dispatches"],
                    )
                    fresh = asyncio.ensure_future(
                        service.dispatch(
                            request("POST", "/check", check_body())
                        )
                    )
                    await until(
                        lambda: (
                            metrics.counters["coalesced"],
                            metrics.counters["engine_dispatches"],
                        ) != waiting
                    )
                    gate.set()
                    (_, replaced), (_, before), (_, after) = (
                        await asyncio.gather(replace, stale, fresh)
                    )
                assert replaced["replaced"] is True
                assert before["consistent"] is True
                assert metrics.counters["coalesced"] == waiting[0]
                new = service.registry.sessions[("acme", "shop")]
                assert after == direct_answer(new)
                assert after["consistent"] is False
                memo_hits = metrics.counters["check_memo_hits"]
                _, again = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert metrics.counters["check_memo_hits"] == memo_hits + 1
                assert again == direct_answer(new)
            finally:
                gate.set()
                service.close()

        run(main())

    def test_randomized_interleaving_matches_direct_checks(self):
        """Register, replace, check (with and without a witness), evolve
        (committed or not) and evict at ``max_resident=2``, in a seeded
        random order: every ``/check`` body equals ``check_pair`` run
        directly on the session's current views."""
        rng = random.Random(1906)
        names = ("c0", "c1", "c2")
        changes = (
            inject_invariant_additive,
            inject_variant_additive,
            inject_variant_subtractive,
        )

        def pair_texts():
            pair = generate_partner_pair(
                seed=rng.randrange(1 << 30),
                steps=rng.choice((4, 6)),
                with_loop=rng.random() < 0.5,
            )
            return [process_to_dsl(model) for model in pair]

        def changed_text(model):
            for inject in rng.sample(changes, len(changes)):
                try:
                    change, _ = inject(model, seed=rng.randrange(1000))
                except ChangeError:
                    continue
                return process_to_dsl(change.apply(model))
            return None

        async def main():
            service = ChoreoService(max_resident=2)
            # The consistent-by-construction texts each name was last
            # registered from: evolving a party back to its text
            # commits, and undoes an unadapted change.
            pristine = {}
            checked = 0
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                for _ in range(90):
                    resident = sorted(
                        name
                        for tenant, name in service.registry.sessions
                        if tenant == "acme"
                    )
                    roll = rng.random()
                    if not resident or roll < 0.15:
                        name = rng.choice(names)
                        texts = pair_texts()
                        pristine[name] = dict(zip(("I", "R"), texts))
                        if rng.random() < 0.5:
                            # Register with one side changed, unadapted.
                            index = rng.randrange(2)
                            changed = changed_text(
                                process_from_dsl(texts[index])
                            )
                            texts[index] = changed or texts[index]
                        status, _ = await service.dispatch(
                            request(
                                "POST",
                                "/choreographies",
                                {
                                    "tenant": "acme",
                                    "name": name,
                                    "processes": texts,
                                    "replace": True,
                                },
                            )
                        )
                        assert status == 200
                        continue
                    name = rng.choice(resident)
                    session = service.registry.sessions[("acme", name)]
                    if roll < 0.4:
                        party = rng.choice(("I", "R"))
                        new = pristine[name][party]
                        if rng.random() < 0.5:
                            new = changed_text(
                                session.choreography.private(party)
                            )
                        if new is None:
                            continue
                        status, _ = await service.dispatch(
                            request(
                                "POST",
                                "/evolve",
                                evolve_body(
                                    new,
                                    choreography=name,
                                    party=party,
                                    auto_adapt=rng.random() < 0.5,
                                    commit=rng.random() < 0.6,
                                ),
                            )
                        )
                        assert status == 200
                        continue
                    left, right = rng.sample(("I", "R"), 2)
                    witness = rng.random() < 0.5
                    status, body = await service.dispatch(
                        request(
                            "POST",
                            "/check",
                            check_body(
                                choreography=name,
                                left=left,
                                right=right,
                                witness=witness,
                            ),
                        )
                    )
                    assert status == 200
                    assert body == direct_answer(
                        session, left, right, witness
                    )
                    checked += 1
                metrics = service.metrics
                # Both paths ran: memo hits and engine computations.
                assert metrics.counters["check_memo_hits"] > 0
                assert metrics.counters["checks_executed"] > 0
                assert metrics.counters["evictions"] > 0
            finally:
                service.close()
            return checked

        assert run(main()) > 20


class TestAdmission:
    """Quota rejections are clean 429s issued before any engine work."""

    def test_over_quota_tenant_gets_429(self):
        N = 4

        async def main():
            service = ChoreoService()
            try:
                await service.dispatch(
                    request(
                        "POST",
                        "/tenants",
                        {"tenant": "acme", "max_inflight": 1},
                    )
                )
                await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "shop",
                            "processes": [BUYER, CLIENT],
                        },
                    )
                )
                results = await asyncio.gather(
                    *(
                        service.dispatch(
                            request("POST", "/check", check_body())
                        )
                        for _ in range(N)
                    )
                )
                statuses = sorted(status for status, _ in results)
                # One admitted, the rest rejected: handlers hold their
                # slot across the engine await, and all N pass
                # admission before the first completion callback runs.
                assert statuses == [200] + [429] * (N - 1)
                rejected = [
                    payload
                    for status, payload in results
                    if status == 429
                ]
                assert all(
                    payload["error"]["code"] == "tenant-overloaded"
                    for payload in rejected
                )
                assert service.metrics.counters["admission_rejected"] == N - 1
            finally:
                service.close()

        run(main())

    def test_rejection_does_not_poison_caches(self):
        """A rejected burst leaves the verdict cache untouched: the
        next admitted check still computes (then caches) correctly."""

        async def main():
            service = ChoreoService()
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "shop",
                            "processes": [BUYER, CLIENT],
                        },
                    )
                )
                # Shut the tenant out *after* registration: every
                # subsequent admission attempt must be rejected.
                service.registry.tenant("acme").max_inflight = 0
                VERDICTS.clear()
                size_before = VERDICTS.info()["size"]
                executed_before = service.metrics.counters["checks_executed"]
                for _ in range(3):
                    status, payload = await service.dispatch(
                        request("POST", "/check", check_body())
                    )
                    assert status == 429
                # No engine work, no cache entries, no coalescer state.
                assert VERDICTS.info()["size"] == size_before
                assert (
                    service.metrics.counters["checks_executed"]
                    == executed_before
                )
                assert service.coalescer.pending() == 0
                # Lift the quota: the verdict is computed fresh and
                # correct — nothing poisoned.
                service.registry.tenant("acme").max_inflight = 1
                status, verdict = await service.dispatch(
                    request("POST", "/check", check_body())
                )
                assert status == 200
                assert verdict["consistent"] is True
            finally:
                service.close()

        run(main())

    def test_registration_quota_is_429(self):
        async def main():
            service = ChoreoService()
            try:
                await service.dispatch(
                    request(
                        "POST",
                        "/tenants",
                        {"tenant": "acme", "max_choreographies": 1},
                    )
                )
                body = {
                    "tenant": "acme",
                    "name": "one",
                    "processes": [BUYER, CLIENT],
                }
                status, _ = await service.dispatch(
                    request("POST", "/choreographies", body)
                )
                assert status == 200
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {**body, "name": "two"},
                    )
                )
                assert status == 429
                assert (
                    payload["error"]["code"] == "choreography-quota"
                )
            finally:
                service.close()

        run(main())


class TestEviction:
    """Residency cap: lowest priority evicted first, caches cascaded."""

    @staticmethod
    async def _register(service, tenant, name):
        status, _ = await service.dispatch(
            request(
                "POST",
                "/choreographies",
                {
                    "tenant": tenant,
                    "name": name,
                    "processes": [BUYER, CLIENT],
                },
            )
        )
        assert status == 200

    def test_lowest_priority_lru_is_evicted(self):
        async def main():
            service = ChoreoService(max_resident=2)
            try:
                for tenant, priority in (("cold", 0), ("hot", 5)):
                    await service.dispatch(
                        request(
                            "POST",
                            "/tenants",
                            {"tenant": tenant, "priority": priority},
                        )
                    )
                await self._register(service, "cold", "c1")
                await self._register(service, "hot", "h1")
                await self._register(service, "hot", "h2")
                # The cold tenant's session went, not the hot ones.
                assert set(service.registry.sessions) == {
                    ("hot", "h1"),
                    ("hot", "h2"),
                }
                assert service.metrics.counters["evictions"] == 1
                status, payload = await service.dispatch(
                    request(
                        "POST", "/check", check_body(
                            tenant="cold", choreography="c1"
                        )
                    )
                )
                assert status == 404
                assert (
                    payload["error"]["code"] == "unknown-choreography"
                )
            finally:
                service.close()

        run(main())

    def test_eviction_drops_verdict_cache_entries(self):
        async def main():
            service = ChoreoService(max_resident=1)
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                await self._register(service, "acme", "c1")
                # Populate the verdict cache for c1's pair.
                status, _ = await service.dispatch(
                    request(
                        "POST",
                        "/check",
                        check_body(choreography="c1"),
                    )
                )
                assert status == 200
                size_with_c1 = VERDICTS.info()["size"]
                # Registering c2 evicts c1 and must cascade: c1's
                # kernels leave the verdict cache with it.
                await self._register(service, "acme", "c2")
                assert VERDICTS.info()["size"] < size_with_c1
                assert service.metrics.counters["evictions"] == 1
            finally:
                service.close()

        run(main())

    def test_evolve_loop_keeps_verdict_cache_bounded(self):
        """Evolve lifecycles at a fixed residency leave no orphaned
        verdict entries.  Propagation proposals, auto-adapt views and
        superseded versions are owned by no resident session, so the
        eviction cascade never names them: their entries must die with
        the kernels.  Once the bounded memos that may still hold such
        kernels (compile memo, warm-start registries) let go, the cache
        holds what the resident sessions own — however many lifecycles
        ran."""
        import gc

        from repro.afsa.lazy import clear_warm_state
        from repro.bpel import compile as compile_module

        resident = 2
        changes = (
            inject_invariant_additive,
            inject_variant_additive,
            inject_variant_subtractive,
        )

        def lifecycle(index):
            rng = random.Random(index)
            pair = generate_partner_pair(
                seed=rng.randrange(1 << 30), steps=6, with_loop=True
            )
            texts = {model.party: process_to_dsl(model) for model in pair}
            for offset in range(len(changes)):
                inject = changes[(index + offset) % len(changes)]
                for model in pair:
                    try:
                        change, _ = inject(model, seed=index)
                    except ChangeError:
                        continue
                    new = process_to_dsl(change.apply(model))
                    return texts, model.party, new
            raise AssertionError(f"no change applies to lifecycle {index}")

        async def main():
            service = ChoreoService(max_resident=resident)
            occupancy = []
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                for index in range(30):
                    texts, party, new = lifecycle(index)
                    name = f"c{index}"
                    check = check_body(
                        choreography=name, left="I", right="R"
                    )
                    status, _ = await service.dispatch(request(
                        "POST", "/choreographies", {
                            "tenant": "acme", "name": name,
                            "processes": [texts["I"], texts["R"]],
                        },
                    ))
                    assert status == 200
                    status, _ = await service.dispatch(
                        request("POST", "/check", check)
                    )
                    assert status == 200
                    status, _ = await service.dispatch(request(
                        "POST", "/evolve", {
                            "tenant": "acme", "choreography": name,
                            "party": party,
                            "process": {"text": new, "format": "dsl"},
                            "auto_adapt": True, "commit": True,
                        },
                    ))
                    assert status == 200
                    status, _ = await service.dispatch(
                        request("POST", "/check", check)
                    )
                    assert status == 200
                    if index % 10 == 9:
                        clear_warm_state()
                        compile_module._COMPILE_CACHE.clear()
                        gc.collect()
                        occupancy.append(VERDICTS.info()["size"])
            finally:
                service.close()
            return occupancy

        occupancy = run(main())
        # A pinning cache grows by a few entries every ten lifecycles
        # (7, 11, 14 here); entries that die with their kernels stay
        # at what two resident choreographies own.
        assert max(occupancy) <= 3 * resident, occupancy


class TestStreamingSweep:
    def test_stream_yields_one_line_per_pair_plus_summary(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/sweep",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "stream": True,
                        },
                    )
                )
                assert status == 200
                lines = []
                async for piece in payload.generator:
                    lines.extend(
                        json.loads(line)
                        for line in piece.decode().splitlines()
                        if line.strip()
                    )
                assert len(lines) == 2  # 1 pair + summary
                assert lines[0]["consistent"] is True
                assert lines[-1]["summary"]["pairs"] == 1
                assert lines[-1]["summary"]["consistent"] is True
                assert lines[-1]["summary"]["undecided"] == 0
                # The admission slot was released with the stream.
                assert service.registry.inflight_total == 0
            finally:
                service.close()

        run(main())

    def test_fanned_stream_bridges_engine_thread(self):
        """``workers > 1`` streams through one engine dispatch running
        the pipelined sweep; lines arrive in completion order with the
        summary (undecided included) last."""

        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/sweep",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "stream": True,
                            "workers": 2,
                        },
                    )
                )
                assert status == 200
                lines = []
                async for piece in payload.generator:
                    lines.extend(
                        json.loads(line)
                        for line in piece.decode().splitlines()
                        if line.strip()
                    )
                assert len(lines) == 2
                assert "summary" not in lines[0]
                summary = lines[-1]["summary"]
                assert summary["pairs"] == 1
                assert summary["consistent"] is True
                assert summary["undecided"] == 0
                assert service.registry.inflight_total == 0
            finally:
                service.close()

        run(main())

    def test_stop_on_first_inconsistency_accepted(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/sweep",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "stop_on_first_inconsistency": True,
                        },
                    )
                )
                assert status == 200
                # A consistent choreography fail-fasts nothing.
                assert payload["consistent"] is True
                assert payload["undecided"] == 0
            finally:
                service.close()

        run(main())


    def test_fail_fast_pairs_count_the_whole_grid(self):
        """A fail-fast sweep reports the same ``pairs`` (decided plus
        undecided) in the body and in the streamed summary."""

        async def main():
            service = ChoreoService()
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                status, _ = await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "procurement",
                            "processes": [
                                process_to_dsl(build())
                                for build in (
                                    buyer_private,
                                    accounting_private_variant_change,
                                    logistics_private,
                                )
                            ],
                        },
                    )
                )
                assert status == 200
                body = {
                    "tenant": "acme",
                    "choreography": "procurement",
                    "stop_on_first_inconsistency": True,
                }
                status, report = await service.dispatch(
                    request("POST", "/sweep", body)
                )
                assert status == 200
                status, payload = await service.dispatch(
                    request("POST", "/sweep", {**body, "stream": True})
                )
                assert status == 200
                lines = []
                async for piece in payload.generator:
                    lines.extend(
                        json.loads(line)
                        for line in piece.decode().splitlines()
                        if line.strip()
                    )
                summary = lines[-1]["summary"]
                for totals in (report, summary):
                    assert totals["pairs"] == 2
                    assert totals["failures"] == 1
                    assert totals["undecided"] == 1
                    assert totals["consistent"] is False
            finally:
                service.close()

        run(main())


class TestEvolutionEndpoints:
    def test_party_mismatch_is_400(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/evolve",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "party": "S",
                            "process": CLIENT,
                        },
                    )
                )
                assert status == 400
                assert payload["error"]["code"] == "party-mismatch"
            finally:
                service.close()

        run(main())

    def test_migrate_without_fleet_is_409(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/migrate",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "party": "C",
                            "process": CLIENT_BAD,
                        },
                    )
                )
                assert status == 409
                assert payload["error"]["code"] == "no-fleet"
            finally:
                service.close()

        run(main())

    def test_fleet_then_migrate_counts_cover_fleet(self):
        async def main():
            service = await make_service()
            try:
                status, fleet = await service.dispatch(
                    request(
                        "POST",
                        "/fleet",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "party": "C",
                            "instances": 50,
                        },
                    )
                )
                assert status == 200
                assert fleet["spawned"] == 50
                status, report = await service.dispatch(
                    request(
                        "POST",
                        "/migrate",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "party": "C",
                            "process": CLIENT_BAD,
                        },
                    )
                )
                assert status == 200
                assert sum(report["counts"].values()) == 50
            finally:
                service.close()

        run(main())

    def test_evolve_commits_and_bumps_version(self):
        async def main():
            service = await make_service()
            try:
                # Identical process text: public process unchanged,
                # nothing to propagate, version still advances on
                # commit of the (trivially consistent) change.
                status, report = await service.dispatch(
                    request(
                        "POST",
                        "/evolve",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "party": "C",
                            "process": CLIENT,
                        },
                    )
                )
                assert status == 200
                assert report["committed"] is True
                assert report["old_version"] != report["new_version"]
            finally:
                service.close()

        run(main())


    def test_gathered_evolves_report_the_version_chain(self):
        """Two committing evolves of one party, gathered: each reports
        the versions around its own step, read on the engine thread."""

        async def main():
            service = await make_service()
            try:
                replies = await asyncio.gather(
                    *(
                        service.dispatch(
                            request("POST", "/evolve", evolve_body(CLIENT))
                        )
                        for _ in range(2)
                    )
                )
                assert [status for status, _ in replies] == [200, 200]
                assert all(report["committed"] for _, report in replies)
                assert {
                    (report["old_version"], report["new_version"])
                    for _, report in replies
                } == {("C#v1", "C#v2"), ("C#v2", "C#v3")}
            finally:
                service.close()

        run(main())

    def test_gathered_fleet_reports_its_instances_version(self):
        """A /fleet gathered with a committing /evolve reports the
        version its instances carry, even when the evolve commits
        before the loop builds the fleet's reply."""

        async def main():
            service = await make_service()
            choreography = service.registry.sessions[
                ("acme", "shop")
            ].choreography

            async def hold_loop_until_commit():
                # Blocks the loop, without awaiting, until the evolve
                # queued behind the fleet has committed on the engine
                # thread: the fleet's reply is built after the commit.
                deadline = time.monotonic() + 30
                while choreography.current_version("C") == "C#v1":
                    assert time.monotonic() < deadline
                    time.sleep(0.001)

            try:
                (status, fleet), (_, evolved), _ = await asyncio.gather(
                    service.dispatch(
                        request(
                            "POST",
                            "/fleet",
                            {
                                "tenant": "acme",
                                "choreography": "shop",
                                "party": "C",
                                "instances": 20,
                            },
                        )
                    ),
                    service.dispatch(
                        request("POST", "/evolve", evolve_body(CLIENT))
                    ),
                    hold_loop_until_commit(),
                )
                assert status == 200
                assert evolved["new_version"] == "C#v2"
                assert choreography.instances.versions() == ["C#v1"]
                assert fleet["version"] == "C#v1"
            finally:
                service.close()

        run(main())


class TestMetricsEndpoint:
    def test_exposition_contains_all_layers(self):
        async def main():
            service = await make_service()
            try:
                await service.dispatch(
                    request("POST", "/check", check_body())
                )
                status, payload = await service.dispatch(
                    request("GET", "/metrics")
                )
                assert status == 200
                content_type, text = payload
                assert content_type.startswith("text/plain")
                for name in (
                    "repro_requests_total",
                    "repro_request_seconds_bucket",
                    "repro_coalesced_requests_total",
                    "repro_check_memo_hits_total",
                    "repro_admission_rejected_total",
                    "repro_runtime_arena_hits_total",
                    "repro_verdict_cache_hits_total",
                    "repro_warm_seeded_total",
                    "repro_tenants",
                ):
                    assert name in text, name
            finally:
                service.close()

        run(main())


class _ThreadRecordingCounters(dict):
    """A service counter dict that records the thread of every write."""

    def __init__(self, counters):
        super().__init__(counters)
        self.writes: list = []

    def __setitem__(self, key, value):
        self.writes.append((key, threading.get_ident()))
        super().__setitem__(key, value)


class TestCounterOwnership:
    def test_every_service_counter_write_is_on_the_loop_thread(self):
        """ARCHITECTURE contract 5: the event loop is the only writer
        of the service counters, whatever thread computes the answer."""

        async def main():
            service = ChoreoService(max_resident=2)
            counters = _ThreadRecordingCounters(service.metrics.counters)
            service.metrics.counters = counters
            loop_thread = threading.get_ident()
            try:
                shop = {"tenant": "acme", "choreography": "shop"}
                for body in ({"tenant": "acme"},
                             {"tenant": "full", "max_inflight": 0}):
                    await service.dispatch(request("POST", "/tenants", body))
                # The third registration evicts the first.
                for name in ("spare", "third", "shop"):
                    status, _ = await service.dispatch(request(
                        "POST", "/choreographies",
                        {"tenant": "acme", "name": name,
                         "processes": [BUYER, CLIENT_BAD]},
                    ))
                    assert status == 200
                # Executed and coalesced, then answered from the memo.
                checks = await asyncio.gather(*(
                    service.dispatch(request(
                        "POST", "/check", {**shop, "left": "C", "right": "S"}
                    ))
                    for _ in range(5)
                ))
                assert [status for status, _ in checks] == [200] * 5
                status, _ = await service.dispatch(request(
                    "POST", "/check", {**shop, "left": "C", "right": "S"}
                ))
                assert status == 200
                status, _ = await service.dispatch(
                    request("POST", "/sweep", shop)
                )
                assert status == 200
                status, stream = await service.dispatch(
                    request("POST", "/sweep", {**shop, "stream": True})
                )
                async for _ in stream.generator:
                    pass
                status, _ = await service.dispatch(request(
                    "POST", "/fleet", {**shop, "party": "C", "instances": 20}
                ))
                assert status == 200
                status, _ = await service.dispatch(request(
                    "POST", "/migrate", {**shop, "party": "C",
                                         "process": CLIENT},
                ))
                assert status == 200
                status, _ = await service.dispatch(request(
                    "POST", "/evolve",
                    evolve_body(CLIENT, choreography="shop"),
                ))
                assert status == 200
                status, _ = await service.dispatch(request(
                    "POST", "/choreographies",
                    {"tenant": "full", "name": "x",
                     "processes": [BUYER, CLIENT]},
                ))
                assert status == 429
            finally:
                service.close()
            written = {key for key, _ in counters.writes}
            assert written >= {
                "checks_executed", "coalesced", "check_memo_hits",
                "sweeps_executed", "engine_dispatches", "evictions",
                "admission_rejected",
            }, written
            assert not [
                key for key, thread in counters.writes if thread != loop_thread
            ]

        run(main())


class _RecordingArena:
    """Arena stub recording which kernels were discarded."""

    def __init__(self):
        self.discarded = []

    def discard(self, kernel):
        self.discarded.append(kernel)


class _FakeRuntime:
    """Runtime stub: just enough surface for the eviction cascade."""

    def __init__(self):
        self.arena = _RecordingArena()


class TestFieldValidation:
    """Malformed field *values* are clean 400s, not dropped sockets."""

    def test_non_integer_tenant_quota_is_400(self):
        async def main():
            service = ChoreoService()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/tenants",
                        {"tenant": "acme", "priority": "high"},
                    )
                )
                assert status == 400
                assert payload["error"]["code"] == "bad-field"
                # Booleans are not quotas either.
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/tenants",
                        {"tenant": "acme", "max_inflight": True},
                    )
                )
                assert status == 400
                assert payload["error"]["code"] == "bad-field"
            finally:
                service.close()

        run(main())

    def test_non_integer_workers_is_400(self):
        async def main():
            service = await make_service()
            try:
                status, payload = await service.dispatch(
                    request(
                        "POST",
                        "/sweep",
                        {
                            "tenant": "acme",
                            "choreography": "shop",
                            "workers": "many",
                        },
                    )
                )
                assert status == 400
                assert payload["error"]["code"] == "bad-field"
            finally:
                service.close()

        run(main())

    def test_unexpected_handler_error_is_500(self):
        async def main():
            service = ChoreoService()
            try:

                async def boom(request):
                    raise RuntimeError("kaboom")

                service._routes[("GET", "/healthz")] = boom
                status, payload = await service.dispatch(
                    request("GET", "/healthz")
                )
                assert status == 500
                assert payload["error"]["code"] == "internal-error"
                assert "kaboom" in payload["error"]["message"]
                assert service.metrics.counters["internal_errors"] == 1
                # The failure was still observed as a request.
                assert (
                    service.metrics.requests[("GET", "/healthz", 500)]
                    == 1
                )
            finally:
                service.close()

        run(main())


class TestStreamingLifecycle:
    """Admission slots survive neither abandonment nor engine errors."""

    @staticmethod
    async def _stream(service):
        status, payload = await service.dispatch(
            request(
                "POST",
                "/sweep",
                {
                    "tenant": "acme",
                    "choreography": "shop",
                    "stream": True,
                },
            )
        )
        assert status == 200
        return payload

    def test_abandoned_stream_releases_admission_on_aclose(self):
        async def main():
            service = await make_service()
            try:
                payload = await self._stream(service)
                # Never iterated: the slot is still claimed ...
                assert service.registry.inflight_total == 1
                await payload.aclose()
                # ... and aclose returns it, idempotently.
                assert service.registry.inflight_total == 0
                await payload.aclose()
                assert service.registry.inflight_total == 0
            finally:
                service.close()

        run(main())

    def test_midstream_disconnect_releases_admission(self):
        async def main():
            service = await make_service()
            try:
                payload = await self._stream(service)
                # Consume one chunk, then hang up mid-stream.
                await payload.generator.__anext__()
                assert service.registry.inflight_total == 1
                await payload.aclose()
                assert service.registry.inflight_total == 0
            finally:
                service.close()

        run(main())

    def test_engine_error_terminates_stream_with_error_line(self):
        async def main():
            service = await make_service()
            try:
                with mock.patch(
                    "repro.core.sweep.check_kernel_pair",
                    side_effect=RuntimeError("engine down"),
                ):
                    payload = await self._stream(service)
                    lines = []
                    async for piece in payload.generator:
                        lines.extend(
                            json.loads(line)
                            for line in piece.decode().splitlines()
                            if line.strip()
                        )
                assert lines, "stream must not end bodiless"
                assert lines[-1]["error"]["code"] == "internal-error"
                assert "engine down" in lines[-1]["error"]["message"]
                assert service.metrics.counters["internal_errors"] == 1
                assert service.registry.inflight_total == 0
            finally:
                service.close()

        run(main())


class TestEvictionRuntime:
    """The cascade targets the runtime the service serves with."""

    def test_eviction_discards_from_the_service_runtime(self):
        async def main():
            runtime = _FakeRuntime()
            service = ChoreoService(max_resident=1, runtime=runtime)
            try:
                await service.dispatch(
                    request("POST", "/tenants", {"tenant": "acme"})
                )
                for name in ("c1",):
                    status, _ = await service.dispatch(
                        request(
                            "POST",
                            "/choreographies",
                            {
                                "tenant": "acme",
                                "name": name,
                                "processes": [BUYER, CLIENT],
                            },
                        )
                    )
                    assert status == 200
                # Materialize c1's kernels in the shared caches.
                status, _ = await service.dispatch(
                    request(
                        "POST", "/check", check_body(choreography="c1")
                    )
                )
                assert status == 200
                status, _ = await service.dispatch(
                    request(
                        "POST",
                        "/choreographies",
                        {
                            "tenant": "acme",
                            "name": "c2",
                            "processes": [BUYER, CLIENT],
                        },
                    )
                )
                assert status == 200
                assert service.metrics.counters["evictions"] == 1
                # c1's kernels left *this* service's arena, not the
                # process-default one.
                assert runtime.arena.discarded
            finally:
                service.close()

        run(main())


class TestCoalescerCancellation:
    """Owner cancellation must not cascade to coalesced followers."""

    def test_owner_cancellation_promotes_follower(self):
        async def main():
            coalescer = Coalescer()
            release = asyncio.Event()
            dispatches = []

            async def slow():
                dispatches.append("owner")
                await release.wait()
                return "slow"

            async def fast():
                dispatches.append("follower")
                return "fast"

            owner = asyncio.create_task(coalescer.run("key", slow))
            await asyncio.sleep(0)  # owner claims the key
            follower = asyncio.create_task(coalescer.run("key", fast))
            await asyncio.sleep(0)  # follower parks on the future
            owner.cancel()
            assert await follower == "fast"
            assert dispatches == ["owner", "follower"]
            with pytest.raises(asyncio.CancelledError):
                await owner
            assert coalescer.pending() == 0

        run(main())

    def test_follower_own_cancellation_still_propagates(self):
        async def main():
            coalescer = Coalescer()
            release = asyncio.Event()

            async def slow():
                await release.wait()
                return "slow"

            owner = asyncio.create_task(coalescer.run("key", slow))
            await asyncio.sleep(0)
            follower = asyncio.create_task(coalescer.run("key", slow))
            await asyncio.sleep(0)
            follower.cancel()
            with pytest.raises(asyncio.CancelledError):
                await follower
            # The owner is untouched and completes normally.
            release.set()
            assert await owner == "slow"
            assert coalescer.pending() == 0

        run(main())


def _hub_texts(seed: int, spokes: int = 4) -> dict:
    """DSL texts of a generated hub-and-spoke choreography, by party."""
    choreography = generate_choreography(seed=seed, spokes=spokes, steps=3)
    return {
        party: process_to_dsl(choreography.private(party))
        for party in choreography.parties()
    }


class TestShardMemoCascade:
    """Eviction and ``/migrate`` reach the arena entries a session or a
    request owned, and through the arena the shards' memos."""

    def test_eviction_reaches_lineage_anchors(self):
        """A committed ``/evolve`` of the hub with its own text keeps the
        old version as the lineage anchor, and the re-sweep ships the
        anchor's views as ancestors; evicting the session drops every
        one of its arena entries, anchors included."""
        texts = _hub_texts(seed=5)

        async def main(runtime):
            service = ChoreoService(max_resident=1, runtime=runtime)
            try:
                async def call(path, body):
                    status, payload = await service.dispatch(
                        request("POST", path, body)
                    )
                    assert status == 200, (path, payload)
                    return payload

                await call("/tenants", {"tenant": "acme"})
                await call("/choreographies", {
                    "tenant": "acme", "name": "c1",
                    "processes": list(texts.values()),
                })
                sweep = {"tenant": "acme", "choreography": "c1",
                         "workers": 2}
                await call("/sweep", sweep)
                evolved = await call("/evolve", {
                    "tenant": "acme", "choreography": "c1", "party": "H",
                    "process": texts["H"],
                })
                assert evolved["committed"]
                await call("/sweep", sweep)
                assert len(runtime.arena) > 0
                await call("/choreographies", {
                    "tenant": "acme", "name": "c2",
                    "processes": [texts["H"], texts["P1"]],
                })
                assert service.metrics.counters["evictions"] == 1
                assert len(runtime.arena) == 0
            finally:
                service.close()

        with scheduler(**FAN_OUT), EvolutionRuntime() as runtime:
            run(main(runtime))

    def test_shards_forget_an_evicted_session_and_a_migrate_candidate(self):
        """After an eviction and a ``/migrate``, the next task frame to
        the shard removes every dropped digest — the evicted session's
        views and hub, and the request's candidate hub — from the
        worker's memo."""
        texts = _hub_texts(seed=6)
        other = _hub_texts(seed=7, spokes=2)
        hub = process_from_dsl(texts["H"])
        _, change, _ = random_change(hub, seed=6)
        candidate = process_to_dsl(change.apply(hub))

        async def main(runtime):
            service = ChoreoService(max_resident=1, runtime=runtime)
            try:
                async def call(path, body):
                    status, payload = await service.dispatch(
                        request("POST", path, body)
                    )
                    assert status == 200, (path, payload)
                    return payload

                await call("/tenants", {"tenant": "acme"})
                await call("/choreographies", {
                    "tenant": "acme", "name": "c1",
                    "processes": list(texts.values()),
                })
                c1 = {"tenant": "acme", "choreography": "c1"}
                await call("/sweep", {**c1, "workers": 2})
                await call("/fleet", {**c1, "party": "H",
                                      "instances": 200, "distinct": 8})
                memo_before = set(_WORKER_KERNELS)
                await call("/migrate", {**c1, "party": "H",
                                        "process": candidate,
                                        "workers": 2})
                held = set(runtime.arena._entries)
                # The candidate reached the shard and left the arena.
                dropped_candidate = set(_WORKER_KERNELS) - memo_before - held
                assert dropped_candidate
                await call("/choreographies", {
                    "tenant": "acme", "name": "c2",
                    "processes": list(other.values()),
                })
                assert len(runtime.arena) == 0
                dropped = held | dropped_candidate
                assert dropped <= set(_WORKER_KERNELS)
                await call("/sweep", {"tenant": "acme",
                                      "choreography": "c2", "workers": 2})
                assert not dropped & set(_WORKER_KERNELS)
            finally:
                service.close()

        server = ShardServer().start()
        try:
            with scheduler(**FAN_OUT), EvolutionRuntime(
                shards=[server.address]
            ) as runtime:
                run(main(runtime))
        finally:
            server.stop()
