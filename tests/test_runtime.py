"""Tests for the persistent evolution runtime and its consumers.

Three contracts are pinned down here:

* **arena** — kernels are published once (a repeated sweep over an
  unchanged choreography ships *zero* kernel payloads), a fetched
  payload reconstructs them faithfully, eviction/discard drops
  entries, and shutdown leaves nothing behind;
* **invariance** — verdicts and canonical witnesses are byte-identical
  for serial, persistent-pool, and pool-restarted runs, with default
  and with forced speculation (hypothesis property over random grids),
  and :class:`FleetClassifier` delta
  re-classification is state-for-state equal to the from-scratch
  :func:`classify_migration` naive oracle after arbitrary extends;
* **cross-version warm start** — post-evolution verdicts seeded from
  the old product's surviving region agree with the cold lazy engine
  and the eager oracle.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from regimes import (
    FAN_OUT,
    FORCED_SPECULATION,
    NO_FAN_OUT,
    fork_fleet,
    scheduler,
)
from repro.afsa.automaton import AFSA
from repro.afsa.kernel import (
    k_good_states,
    k_intersect,
    k_remove_epsilon,
    kernel_of,
)
from repro.afsa.lazy import (
    clear_warm_state,
    kernel_correspondence,
    note_lineage,
    product_verdict,
    retained_exploration,
)
from repro.core.runtime import (
    EvolutionRuntime,
    KernelArena,
    kernel_for,
    set_payload_fetcher,
)
from repro.core.transport import ShardServer
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_NONE,
    _sweep_pairs_report,
    sweep_choreography,
    sweep_pairs,
)
from repro.instances.migrate import (
    FleetClassifier,
    _classify_arena_chunk,
    classify_migration,
)
from repro.workload.fleet import generate_fleet
from repro.workload.generator import (
    generate_choreography,
    random_afsa,
    random_annotated_afsa,
)

import pytest

_SEEDS = st.integers(min_value=0, max_value=10_000)

#: Scheduler regimes the invariance suite runs under, each applied
#: to one test example only: the default (the runtime's fan-out
#: decision), every grid fanned out, every grid fanned out with a
#: backup for any chunk older than 2 ms, and every grid in the parent.
_REGIMES = {
    "default": {},
    "fan-out": FAN_OUT,
    "forced-speculation": {**FAN_OUT, **FORCED_SPECULATION},
    "no-fan-out": NO_FAN_OUT,
}


@pytest.fixture(scope="module")
def runtime():
    """One runtime for the whole module (pool spawned once)."""
    with EvolutionRuntime() as rt:
        yield rt


def _mutate(afsa: AFSA, seed: int) -> AFSA:
    """One localized evolution step: retarget or drop one transition."""
    rng = random.Random(seed)
    transitions = [t.as_tuple() for t in afsa.transitions]
    index = rng.randrange(len(transitions))
    if rng.random() < 0.4 and len(transitions) > 1:
        del transitions[index]
    else:
        source, label, _ = transitions[index]
        states = sorted(afsa.states, key=repr)
        transitions[index] = (source, label, rng.choice(states))
    return AFSA(
        states=afsa.states,
        transitions=transitions,
        start=afsa.start,
        finals=afsa.finals,
        annotations=dict(afsa.annotations),
        alphabet=[str(label) for label in afsa.alphabet],
        name=f"{afsa.name}-v2",
    )


def _eager_verdict(left, right) -> bool:
    product = k_intersect(
        k_remove_epsilon(left), k_remove_epsilon(right)
    )
    return product.start in k_good_states(product)


class TestKernelArena:
    def test_publish_attach_round_trip(self, runtime):
        automaton = random_afsa(
            seed=3, states=12, labels=5, annotation_probability=0.4
        )
        kernel = kernel_of(automaton)
        digest = runtime.arena.publish(kernel)
        previous = set_payload_fetcher(runtime.arena.payload_of)
        try:
            rebuilt = kernel_for(digest)
        finally:
            set_payload_fetcher(previous)
        assert rebuilt is not kernel
        # Field-by-field: wire tuples serialize frozensets, whose
        # iteration order is construction-dependent.
        assert rebuilt.n == kernel.n
        assert rebuilt.start == kernel.start
        assert rebuilt.names == kernel.names
        assert rebuilt.finals == kernel.finals
        assert rebuilt.adj == kernel.adj
        assert rebuilt.eps == kernel.eps
        assert rebuilt.alphabet_ids == kernel.alphabet_ids
        assert {
            state: str(formula)
            for state, formula in rebuilt.ann.items()
        } == {
            state: str(formula)
            for state, formula in kernel.ann.items()
        }

    def test_repeated_publish_is_an_arena_hit(self, runtime):
        kernel = kernel_of(random_afsa(seed=4, states=8, labels=4))
        published0 = runtime.arena.counters["arena_published"]
        first = runtime.arena.publish(kernel)
        assert runtime.arena.counters["arena_published"] == published0 + 1
        hits0 = runtime.arena.counters["arena_hits"]
        again = runtime.arena.publish(kernel)
        assert again == first
        assert runtime.arena.counters["arena_published"] == published0 + 1
        assert runtime.arena.counters["arena_hits"] == hits0 + 1

    def test_eviction_drops_lru_entries(self):
        arena = KernelArena(maxsize=2)
        kernels = [
            kernel_of(random_afsa(seed=10 + i, states=6))
            for i in range(4)
        ]
        digests = [arena.publish(k) for k in kernels]
        assert len(arena) == 2
        assert digests[-1] in arena
        assert digests[0] not in arena
        with pytest.raises(KeyError):
            arena.payload_of(digests[0])

    def test_pinning_more_kernels_than_maxsize(self):
        """A dispatch may pin a grid larger than the arena bound: the
        arena temporarily exceeds maxsize (never evicting a pinned or
        just-published entry) and ages back down after unpin."""
        arena = KernelArena(maxsize=2)
        kernels = [
            kernel_of(random_afsa(seed=30 + i, states=6))
            for i in range(5)
        ]
        digests = arena.pin(kernels)
        assert len(set(digests)) == 5
        # Every pinned payload stays fetchable for the dispatch.
        assert all(arena.payload_of(digest) for digest in digests)
        arena.unpin(kernels)
        extra = kernel_of(random_afsa(seed=40, states=6))
        arena.publish(extra)
        assert len(arena) <= 3  # shrunk back near the bound

    def test_discard_defers_while_pinned(self):
        with EvolutionRuntime() as rt:
            kernel = kernel_of(random_afsa(seed=21, states=6))
            with rt.published([kernel]) as (digest,):
                rt.arena.discard(kernel)
                # Pinned by the in-flight dispatch: still published.
                assert rt.arena.payload_of(digest)
            assert digest not in rt.arena

    def test_shutdown_unlinks_everything(self):
        rt = EvolutionRuntime()
        kernel = kernel_of(random_afsa(seed=22, states=6))
        digest = rt.arena.publish(kernel)
        assert digest in rt.arena
        rt.shutdown()
        assert digest not in rt.arena
        assert len(rt.arena) == 0


class TestZeroPayloadResweep:
    def test_repeated_sweep_ships_zero_kernel_payloads(self):
        """Acceptance: an unchanged choreography re-swept through the
        persistent runtime publishes nothing — all arena hits."""
        with scheduler(**FAN_OUT), EvolutionRuntime() as rt:
            choreography = generate_choreography(
                seed=41, spokes=3, steps=3
            )
            cold = sweep_choreography(
                choreography, workers=2, runtime=rt
            )
            assert cold.arena_published > 0
            warm = sweep_choreography(
                choreography, workers=2, runtime=rt
            )
            assert warm.arena_published == 0
            assert warm.arena_hits > 0
            # The persistent workers answered from their caches.
            assert warm.cache_hits == len(warm.outcomes)
            assert warm.cache_misses == 0
            assert "kernel-arena: 0 publish(es)" in warm.describe()
            assert rt.counters["pool_starts"] == 1

    def test_pool_grows_without_restarting(self, runtime):
        pairs = [
            (
                random_afsa(seed=50 + i, states=8, labels=4),
                random_afsa(seed=150 + i, states=8, labels=4),
            )
            for i in range(4)
        ]
        with scheduler(**FAN_OUT):
            sweep_pairs(pairs, witnesses=WITNESS_NONE, workers=2,
                        runtime=runtime)
            size_before = runtime.pool_size
            sweep_pairs(pairs, witnesses=WITNESS_NONE, workers=4,
                        runtime=runtime)
        assert runtime.pool_size >= 4 > 0
        assert size_before < runtime.pool_size


class TestInvariance:
    @pytest.mark.parametrize("regime", list(_REGIMES))
    @given(_SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_serial_pool_and_restarted_pool_agree(
        self, runtime, regime, seed
    ):
        """Verdicts *and* canonical witnesses are byte-identical for
        serial, persistent-pool, and pool-restarted runs — with the
        default scheduler and with a backup dispatched for every chunk
        older than 2 ms (first result wins)."""
        pairs = [
            (
                random_afsa(
                    seed=seed + 11 * i, states=10, labels=5,
                    annotation_probability=0.4,
                ),
                random_afsa(
                    seed=seed + 11 * i + 5, states=10, labels=5,
                    annotation_probability=0.4,
                ),
            )
            for i in range(3)
        ]
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        with scheduler(**_REGIMES[regime]):
            pooled = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=2, runtime=runtime
            )
            runtime.restart_pool()
            restarted = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=2, runtime=runtime
            )
        for variant in (pooled, restarted):
            assert [ok for ok, _ in variant] == [
                ok for ok, _ in serial
            ]
            assert [wit.describe() for _, wit in variant] == [
                wit.describe() for _, wit in serial
            ]
            assert [wit.word for _, wit in variant] == [
                wit.word for _, wit in serial
            ]

    def test_tcp_transport_matches_serial_and_pool(self):
        """Transport invariance: serial, forked-pool and TCP-shard
        sweeps produce byte-identical verdicts and canonical
        witnesses — and a repeated TCP sweep ships zero payload bytes
        (warm shards never send ``need`` frames)."""
        pairs = [
            (
                random_afsa(
                    seed=910 + 7 * i, states=10, labels=5,
                    annotation_probability=0.4,
                ),
                random_afsa(
                    seed=915 + 7 * i, states=10, labels=5,
                    annotation_probability=0.4,
                ),
            )
            for i in range(4)
        ]
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        # The parent's verdict cache answers every pair by now: forced
        # fan-out keeps each leg on the shards it is about.
        with scheduler(**FAN_OUT), EvolutionRuntime() as rt:
            pooled = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
            )
            assert rt.counters["dispatches"] == 1
        servers = [ShardServer().start() for _ in range(2)]
        try:
            with scheduler(**FAN_OUT), EvolutionRuntime(
                shards=[server.address for server in servers],
            ) as rt:
                tcp = sweep_pairs(
                    pairs, witnesses=WITNESS_ALL, workers=2,
                    runtime=rt,
                )
                assert rt.counters["payload_fetches"] > 0
                fetched_bytes = rt.counters["payload_fetch_bytes"]
                repeat = sweep_pairs(
                    pairs, witnesses=WITNESS_ALL, workers=2,
                    runtime=rt,
                )
                assert rt.counters["dispatches"] == 2
                assert rt.counters["payload_fetch_bytes"] == fetched_bytes
        finally:
            for server in servers:
                server.stop()
        for variant in (pooled, tcp, repeat):
            assert [ok for ok, _ in variant] == [
                ok for ok, _ in serial
            ]
            assert [wit.describe() for _, wit in variant] == [
                wit.describe() for _, wit in serial
            ]
            assert [wit.word for _, wit in variant] == [
                wit.word for _, wit in serial
            ]

    @given(_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_warm_start_agrees_with_cold_and_eager(self, seed):
        """Cross-version verdict deltas: the warm-seeded verdict equals
        the cold lazy verdict equals the eager oracle."""
        clear_warm_state()
        generator = (
            random_annotated_afsa if seed % 3 == 0 else random_afsa
        )
        kwargs = (
            {} if seed % 3 == 0 else {"annotation_probability": 0.4}
        )
        left = generator(seed=2 * seed, states=14, labels=5, **kwargs)
        right = generator(
            seed=2 * seed + 1, states=14, labels=5, **kwargs
        )
        left_kernel = kernel_of(left)
        right_kernel = kernel_of(right)
        product_verdict(left_kernel, right_kernel)  # retain exploration

        evolved = _mutate(left, seed)
        evolved_kernel = kernel_of(evolved)
        note_lineage(left_kernel, evolved_kernel)
        warm = product_verdict(evolved_kernel, right_kernel)
        clear_warm_state()
        cold = product_verdict(evolved_kernel, right_kernel)
        assert warm == cold == _eager_verdict(
            evolved_kernel, right_kernel
        )

    def test_fanned_out_post_evolution_sweep_seeds_in_workers(self):
        """Pillars compose: a fanned-out sweep after an evolution step
        ships the ancestor's digest alongside the evolved kernel, and
        the shard that checked the old pair seeds the new verdict from
        its *own* retained exploration (reported pool-wide)."""
        clear_warm_state()
        left = random_afsa(
            seed=302, states=60, labels=6, annotation_probability=0.3
        )
        right = random_afsa(
            seed=303, states=60, labels=6, annotation_probability=0.3
        )
        # Certificate-avoiding evolution (computed on the parent's
        # exploration; workers fork the same interner and kernel
        # numbering, so their certificate is identical).
        left_kernel = kernel_of(left)
        assert product_verdict(left_kernel, kernel_of(right)) is True
        exploration = retained_exploration(
            left_kernel, kernel_of(right)
        )
        # Protect the certificate pairs' states and their successors:
        # copyability requires every operand successor to be stable.
        protected = set()
        for i in exploration.certificate_region():
            qa = exploration.pairs[i] // exploration.nb
            protected.add(exploration.a.names[qa])
            for targets in exploration.a.adj[qa].values():
                protected.update(
                    exploration.a.names[t] for t in targets
                )
        rng = random.Random(7)
        transitions = sorted(
            (t.as_tuple() for t in left.transitions), key=repr
        )
        index = next(
            i
            for i, (source, _, _) in enumerate(transitions)
            if source not in protected and source != left.start
        )
        source, label, _ = transitions[index]
        transitions[index] = (
            source, label, rng.choice(sorted(left.states, key=repr))
        )
        evolved = AFSA(
            states=left.states, transitions=transitions,
            start=left.start, finals=left.finals,
            annotations=dict(left.annotations),
            alphabet=[str(lab) for lab in left.alphabet],
            name="evolved",
        )
        filler = (
            random_afsa(seed=306, states=20, labels=4),
            random_afsa(seed=307, states=20, labels=4),
        )
        # The parent retained its own exploration above: forced
        # fan-out keeps the seeding on the shards.
        with scheduler(**FAN_OUT), EvolutionRuntime() as rt:
            _sweep_pairs_report(
                [(left, right), filler], WITNESS_NONE, 2, rt
            )
            note_lineage(left_kernel, kernel_of(evolved))
            results, report = _sweep_pairs_report(
                [(evolved, right), filler], WITNESS_NONE, 2, rt
            )
        assert report.decisions_fanned == 1
        assert report.warm_seeded >= 1
        assert report.warm_decided >= 1
        serial = sweep_pairs(
            [(evolved, right), filler], witnesses=WITNESS_NONE
        )
        assert [ok for ok, _ in results] == [ok for ok, _ in serial]
        clear_warm_state()

    def test_correspondence_maps_stable_states(self):
        left = random_afsa(seed=77, states=12, labels=4)
        evolved = _mutate(left, 77)
        old = k_remove_epsilon(kernel_of(left))
        new = k_remove_epsilon(kernel_of(evolved))
        stable = kernel_correspondence(old, new)
        assert stable  # a one-transition change keeps most states
        for i, j in stable.items():
            assert old.names[i] == new.names[j]
            assert (i in old.finals) == (j in new.finals)


class TestRoutingAffinity:
    """Regression for the stale-affinity trap digest routing avoids: a
    grid that is *almost* identical to the previous dispatch — one pair
    inserted at the front — shifts every position, yet rendezvous
    hashing on content digests keeps every repeated pair on its warm
    shard."""

    def test_digest_routing_stays_warm_on_a_shifted_grid(self):
        base = [
            (
                random_afsa(seed=700 + 13 * i, states=8, labels=4),
                random_afsa(seed=705 + 13 * i, states=8, labels=4),
            )
            for i in range(6)
        ]
        extra = (
            random_afsa(seed=690, states=8, labels=4),
            random_afsa(seed=691, states=8, labels=4),
        )
        with scheduler(**FAN_OUT), EvolutionRuntime() as rt:
            _sweep_pairs_report(base, WITNESS_NONE, 2, rt)  # cold
            _, repeat = _sweep_pairs_report(base, WITNESS_NONE, 2, rt)
            _, shifted = _sweep_pairs_report(
                [extra] + base, WITNESS_NONE, 2, rt
            )
        assert repeat.cache_hits == 6
        # Every repeated pair still hits its shard's cache: at least
        # as warm as the identical-repeat case.
        assert shifted.cache_hits >= repeat.cache_hits


class TestFleetClassifierDelta:
    def _models(self):
        from repro.bpel.compile import compile_process
        from repro.scenario.procurement import (
            accounting_private,
            accounting_private_subtractive_change,
        )

        old = compile_process(accounting_private()).afsa
        new = compile_process(
            accounting_private_subtractive_change()
        ).afsa
        return old, new

    def _verdicts(self, report):
        return {
            entry.instance: entry.verdict for entry in report.verdicts
        }

    @given(_SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_refresh_equals_from_scratch(self, seed):
        """Delta re-classification after extends is state-for-state
        equal to a from-scratch classification (the naive oracle)."""
        old, new = self._models()
        store = generate_fleet(
            old, 60, seed=seed, version="A#v1", distinct=8
        )
        classifier = FleetClassifier(
            store, new, version="A#v1", old_model=old
        )
        rng = random.Random(seed)
        alphabet = sorted(str(label) for label in old.alphabet)
        for _ in range(rng.randrange(1, 12)):
            instance = rng.randrange(len(store))
            events = [
                rng.choice(alphabet)
                for _ in range(rng.randrange(1, 3))
            ]
            store.extend(instance, events)
        delta = classifier.refresh()
        scratch = classify_migration(
            store, old, new, version="A#v1"
        )
        assert self._verdicts(delta) == self._verdicts(scratch)
        assert delta.counts == scratch.counts

    def test_refresh_touches_only_affected_classes(self):
        old, new = self._models()
        store = generate_fleet(
            old, 200, seed=5, version="A#v1", distinct=16
        )
        classifier = FleetClassifier(
            store, new, version="A#v1", old_model=old
        )
        classified0 = classifier.reclassified
        # Converge two instances onto one *new* shared trace.
        store.extend(0, ["A#X#novel_event"])
        store.extend(1, ["A#X#novel_event"])
        report = classifier.refresh()
        # At most one fresh class per distinct extended trace — never a
        # fleet-wide re-classification.
        assert classifier.reclassified - classified0 <= 2
        verdicts = self._verdicts(report)
        scratch = self._verdicts(
            classify_migration(store, old, new, version="A#v1")
        )
        assert verdicts == scratch

    def test_refresh_includes_newly_spawned_instances(self):
        """Instances spawned after the classifier was built are folded
        in on the next refresh (spawns count as dirty)."""
        old, new = self._models()
        store = generate_fleet(
            old, 30, seed=21, version="A#v1", distinct=4
        )
        classifier = FleetClassifier(
            store, new, version="A#v1", old_model=old
        )
        generate_fleet(
            old, 10, seed=22, version="A#v1", distinct=4, store=store
        )
        report = classifier.refresh()
        scratch = classify_migration(store, old, new, version="A#v1")
        assert self._verdicts(report) == self._verdicts(scratch)
        assert sum(report.counts.values()) == 40

    def test_noop_refresh_is_stable(self):
        old, new = self._models()
        store = generate_fleet(
            old, 40, seed=9, version="A#v1", distinct=6
        )
        classifier = FleetClassifier(
            store, new, version="A#v1", old_model=old
        )
        first = classifier.refresh()
        classified0 = classifier.reclassified
        second = classifier.refresh()
        assert classifier.reclassified == classified0
        assert self._verdicts(first) == self._verdicts(second)

    def test_version_filtered_classifiers_share_one_store(self):
        """A classifier's refresh must not swallow other versions'
        dirt: each consumer collects only its own slice."""
        old, new = self._models()
        store = generate_fleet(
            old, 20, seed=11, version="A#v1", distinct=4
        )
        generate_fleet(
            old, 20, seed=12, version="A#v2", distinct=4, store=store
        )
        v1 = FleetClassifier(store, new, version="A#v1", old_model=old)
        v2 = FleetClassifier(store, new, version="A#v2", old_model=old)
        v2_record = next(
            record for record in store if record.version == "A#v2"
        )
        store.extend(v2_record.id, ["A#X#novel_event"])
        v1.refresh()  # must leave the A#v2 delta queued
        report = v2.refresh()
        verdicts = self._verdicts(report)
        scratch = self._verdicts(
            classify_migration(store, old, new, version="A#v2")
        )
        assert verdicts == scratch

    def test_extend_interns_and_marks_dirty(self):
        old, _ = self._models()
        store = generate_fleet(
            old, 10, seed=3, version="A#v1", distinct=2
        )
        base = store.get(0).trace
        twin = store.add("A#v1", base)
        assert twin.trace is base  # interning: one tuple per log
        store.collect_dirty()  # drain the spawn dirt
        store.extend(0, [])
        assert store.collect_dirty() == []  # empty extend: no-op
        store.extend(0, ["A#B#orderOp"])
        store.extend(twin.id, ["A#B#orderOp"])
        # Converged logs share one interned tuple again.
        assert store.get(0).trace is store.get(twin.id).trace
        dirty = {record.id for record in store.collect_dirty()}
        assert dirty == {0, twin.id}


class TestMigrationThroughRuntime:
    def test_worker_verdicts_match_serial(self, runtime):
        old, new = TestFleetClassifierDelta()._models()
        store = generate_fleet(
            old, 300, seed=13, version="A#v1", distinct=24
        )
        serial = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_ALL
        )
        # The module's runtime has measured costs by now: forced
        # fan-out keeps both classifications on the shards.
        with scheduler(**FAN_OUT):
            fanned = classify_migration(
                store, old, new, version="A#v1", witnesses=WITNESS_ALL,
                workers=2, runtime=runtime,
            )
            assert fanned.workers == 2
            assert [
                (e.instance, e.verdict, e.continuation, e.blocked_on)
                for e in fanned.verdicts
            ] == [
                (e.instance, e.verdict, e.continuation, e.blocked_on)
                for e in serial.verdicts
            ]
            # The second fan-out ships nothing: both models are arena
            # hits.
            published0 = runtime.arena.counters["arena_published"]
            dispatches = runtime.counters["dispatches"]
            classify_migration(
                store, old, new, version="A#v1", witnesses=WITNESS_ALL,
                workers=2, runtime=runtime,
            )
        assert runtime.counters["dispatches"] == dispatches + 1
        assert runtime.arena.counters["arena_published"] == published0

    def test_straggling_shard_is_speculated_around(self):
        """Migration rides the one pipelined scheduler: with shard 0
        slowed and speculation forced, a backup attempt goes out,
        verdicts stay byte-identical to serial, and the drain leaves
        nothing in flight."""
        old, new = TestFleetClassifierDelta()._models()
        store = generate_fleet(
            old, 300, seed=13, version="A#v1", distinct=24
        )
        serial = classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_ALL
        )
        with scheduler(**FORCED_SPECULATION), EvolutionRuntime() as rt:
            fork_fleet(rt, 2, {0}, _classify_arena_chunk, 0.01)
            fanned = classify_migration(
                store, old, new, version="A#v1", witnesses=WITNESS_ALL,
                workers=2, runtime=rt,
            )
            assert rt.counters["speculative_dispatches"] >= 1
            assert rt.counters["inflight"] == 0
        assert [
            (e.instance, e.verdict, e.continuation, e.blocked_on)
            for e in fanned.verdicts
        ] == [
            (e.instance, e.verdict, e.continuation, e.blocked_on)
            for e in serial.verdicts
        ]


class TestLineageArenaEviction:
    def test_replace_private_discards_stale_anchor_entry(self):
        """Chained evolutions drop the n-2 version's entry from the
        default arena the moment it stops being the lineage anchor
        (compile eviction extended to the arena)."""
        from repro.core.choreography import Choreography
        from repro.core.runtime import get_runtime, shutdown_runtime
        from repro.scenario.procurement import (
            accounting_private,
            accounting_private_subtractive_change,
            accounting_private_variant_change,
            buyer_private,
        )

        # Fresh default runtime: the arena dedups by content, so an
        # identical kernel published by an earlier test would keep the
        # entry alive past this test's own discard — correctly.
        shutdown_runtime()
        choreography = Choreography("evict")
        choreography.add_partner(buyer_private())
        choreography.add_partner(accounting_private())
        v1_kernel = kernel_of(choreography.public("A"))
        digest = get_runtime().arena.publish(v1_kernel)
        choreography.replace_private(
            "A", accounting_private_variant_change()
        )
        # v1 is the anchor now: still published.
        assert digest in get_runtime().arena
        choreography.public("A")  # compile v2 so it can take over
        choreography.replace_private(
            "A", accounting_private_subtractive_change()
        )
        # v2 took the anchor; v1's entry is gone.
        assert digest not in get_runtime().arena

    def test_uncompiled_replace_keeps_anchor_entry(self):
        """Replacing a version that was never compiled must NOT drop
        the still-active anchor's entry (the anchor is unchanged)."""
        from repro.core.choreography import Choreography
        from repro.core.runtime import get_runtime
        from repro.scenario.procurement import (
            accounting_private,
            accounting_private_subtractive_change,
            accounting_private_variant_change,
            buyer_private,
        )

        choreography = Choreography("keep")
        choreography.add_partner(buyer_private())
        choreography.add_partner(accounting_private())
        v1_kernel = kernel_of(choreography.public("A"))
        digest = get_runtime().arena.publish(v1_kernel)
        choreography.replace_private(
            "A", accounting_private_variant_change()
        )
        # v2 is never compiled before the next replace: v1 stays the
        # lineage anchor and its entry must survive.
        choreography.replace_private(
            "A", accounting_private_subtractive_change()
        )
        assert digest in get_runtime().arena


class TestCliSweep:
    def test_sweep_command(self, tmp_path, capsys):
        from pathlib import Path

        from repro.cli import main

        processes = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "processes"
        )
        code = main(
            [
                "sweep",
                str(processes / "buyer.proc"),
                str(processes / "accounting.proc"),
                str(processes / "logistics.proc"),
                "--workers",
                "2",
                "--repeat",
                "2",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep: all pairs consistent" in out
        assert "runtime: pool of" in out

    def test_one_tcp_shard_fans_out(self, capsys):
        """A single ``--shard`` address fans the sweep out to that
        remote worker; it does not run serially in-process."""
        from pathlib import Path

        from repro.cli import main

        processes = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "processes"
        )
        server = ShardServer().start()
        try:
            code = main(
                [
                    "sweep",
                    str(processes / "buyer.proc"),
                    str(processes / "accounting.proc"),
                    str(processes / "logistics.proc"),
                    "--transport",
                    "tcp",
                    "--shard",
                    server.address,
                    "--stats",
                ]
            )
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert server.connections == 1
        assert "pair-cache (pool-wide)" in out
        assert "1 dispatch(es)" in out
