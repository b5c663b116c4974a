"""Property tests for rendezvous routing and content-digest stability.

Two contracts gate the distributed arena:

* **routing is a pure function of content** — rendezvous assignments
  are identical in every process (golden values + a fresh-interpreter
  check with a perturbed ``PYTHONHASHSEED``), growing the fleet moves
  only the ~``1/(n+1)`` of keys claimed by the new shard, shrinking
  moves only the removed shard's keys, and the hot-key spill policy is
  deterministic and never changes a verdict (chunk payloads are
  self-contained, so a spilled pair costs a cold attach, not a wrong
  answer);
* **digests are stable identities** — the canonical wire payload is
  byte-stable under serialize → rebuild → serialize (the parent/worker
  equality the TCP transport relies on), survives arena eviction and
  republish, and is independent of hash randomization.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from math import ceil
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.afsa.kernel import kernel_of
from repro.afsa.serialize import (
    kernel_digest,
    kernel_from_payload,
    kernel_to_payload,
    payload_digest,
)
from repro.core.routing import (
    rendezvous_rank,
    rendezvous_shard,
    route,
    shard_weight,
)
from repro.core.runtime import EvolutionRuntime
from repro.core.sweep import WITNESS_ALL, sweep_pairs
from repro.workload.generator import random_afsa

_SEEDS = st.integers(min_value=0, max_value=10_000)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(code: str) -> str:
    """Run *code* in a fresh interpreter with a perturbed hash seed —
    cross-process determinism must not lean on ``hash()``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env["PYTHONHASHSEED"] = "12345"
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.strip()


class TestRendezvousDeterminism:
    def test_golden_assignments(self):
        """Pinned values: a change here breaks every warm worker cache
        across sessions — bump only with a migration story."""
        assert shard_weight("alpha", 0) == 15496821288780993777
        assert rendezvous_rank("alpha", 4) == [0, 3, 1, 2]
        golden = {
            "alpha": 0, "bravo": 0, "charlie": 0,
            "delta": 3, "echo": 3, "foxtrot": 3,
        }
        assert {
            key: rendezvous_shard(key, 4) for key in golden
        } == golden

    def test_fresh_interpreter_agrees(self):
        expected = [
            rendezvous_shard(f"key-{i}", 5) for i in range(64)
        ]
        out = _run_python(
            "from repro.core.routing import rendezvous_shard\n"
            "print([rendezvous_shard(f'key-{i}', 5)"
            " for i in range(64)])"
        )
        assert ast.literal_eval(out) == expected


class TestMinimalDisruption:
    @given(_SEEDS, st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_growing_moves_only_to_the_new_shard(self, seed, shards):
        keys = [f"{seed:x}-{i}" for i in range(200)]
        before = [rendezvous_shard(key, shards) for key in keys]
        after = [rendezvous_shard(key, shards + 1) for key in keys]
        moved = [
            (b, a) for b, a in zip(before, after) if b != a
        ]
        # Every mover goes *to* the new shard — no reshuffling among
        # the survivors — and about 1/(n+1) of the keys move.
        assert all(a == shards for _, a in moved)
        assert 1 <= len(moved) <= ceil(2.5 * len(keys) / (shards + 1))

    @given(_SEEDS, st.integers(min_value=3, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_shrinking_moves_only_the_removed_shards_keys(
        self, seed, shards
    ):
        keys = [f"{seed:x}-{i}" for i in range(200)]
        before = [rendezvous_shard(key, shards) for key in keys]
        after = [rendezvous_shard(key, shards - 1) for key in keys]
        for b, a in zip(before, after):
            if b != shards - 1:  # survivor shard: key must not move
                assert a == b


class TestSpill:
    def test_hot_key_overflows_in_rank_order(self):
        """20 copies of one hot key against a cap of 8: the top
        candidate fills to the cap, then the 2nd, then the 3rd — and
        the whole placement is deterministic across calls."""
        keys = ["hot"] * 20 + [f"cold-{i}" for i in range(10)]
        assignments, spilled = route(keys, 4, spill_factor=1.0)
        cap = ceil(len(keys) / 4 * 1.0)
        ranked = rendezvous_rank("hot", 4)
        assert assignments[:20] == (
            [ranked[0]] * cap + [ranked[1]] * cap
            + [ranked[2]] * (20 - 2 * cap)
        )
        # At least the hot key's own overflow spills; cold keys whose
        # top candidate the hot key filled may spill too.
        assert spilled >= 20 - cap
        loads = [assignments.count(s) for s in range(4)]
        assert max(loads) <= cap
        assert route(keys, 4, spill_factor=1.0) == (
            assignments, spilled
        )

    @given(_SEEDS, st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_route_is_total_and_capped(self, seed, shards):
        keys = [f"{seed:x}-{i % 7}" for i in range(40)]
        assignments, spilled = route(keys, shards, spill_factor=1.5)
        assert len(assignments) == len(keys)
        assert all(0 <= shard < shards for shard in assignments)
        cap = max(1, ceil(len(keys) / shards * 1.5))
        assert max(
            assignments.count(shard) for shard in range(shards)
        ) <= cap
        assert spilled == sum(
            1
            for key, shard in zip(keys, assignments)
            if shard != rendezvous_shard(key, shards)
        )

    def test_forced_spill_never_changes_a_verdict(self):
        """Chunk payloads are self-contained, so even a pathological
        spill factor (caps of 1–2 per shard) reroutes pairs without
        touching the answers or the canonical witnesses."""
        pairs = [
            (
                random_afsa(seed=800 + 3 * i, states=8, labels=4),
                random_afsa(seed=801 + 3 * i, states=8, labels=4),
            )
            for i in range(6)
        ]
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        with EvolutionRuntime(spill_factor=0.01) as rt:
            spilled = sweep_pairs(
                pairs, witnesses=WITNESS_ALL, workers=3, runtime=rt
            )
        assert [ok for ok, _ in spilled] == [ok for ok, _ in serial]
        assert [wit.describe() for _, wit in spilled] == [
            wit.describe() for _, wit in serial
        ]


class TestDigestStability:
    @given(_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_serialize_rebuild_serialize_is_byte_stable(self, seed):
        """The parent/worker contract: a kernel rebuilt from its wire
        payload re-serializes to the *identical* bytes, so both sides
        compute the same content digest."""
        kernel = kernel_of(
            random_afsa(
                seed=seed, states=10, labels=4,
                annotation_probability=0.3,
            )
        )
        payload = bytes(kernel_to_payload(kernel))
        rebuilt = kernel_from_payload(payload)
        again = bytes(kernel_to_payload(rebuilt))
        assert payload == again
        assert (
            payload_digest(payload)
            == payload_digest(again)
            == kernel_digest(kernel)
        )

    @given(_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_digest_survives_evict_and_republish(self, seed):
        with EvolutionRuntime(arena_maxsize=1) as rt:
            kernel = kernel_of(random_afsa(seed=seed, states=8))
            digest = rt.arena.publish(kernel)
            payload = rt.arena.payload_of(digest)
            # Publishing a different kernel evicts the first ...
            rt.arena.publish(
                kernel_of(random_afsa(seed=seed + 1, states=9))
            )
            assert digest not in rt.arena
            # ... and a *fresh* equal kernel republishes under the
            # same digest (new entry, same identity and bytes).
            rebuilt = kernel_of(random_afsa(seed=seed, states=8))
            assert rt.arena.publish(rebuilt) == digest
            assert rt.arena.payload_of(digest) == payload

    def test_worker_process_computes_the_same_digest(self):
        """A fresh interpreter (perturbed hash seed, fresh interner)
        rebuilding from the shipped payload re-derives the parent's
        digest — what keeps TCP worker memos valid across machines."""
        kernel = kernel_of(
            random_afsa(
                seed=77, states=12, labels=5,
                annotation_probability=0.4,
            )
        )
        payload = bytes(kernel_to_payload(kernel))
        out = _run_python(
            "import sys\n"
            "from repro.afsa.serialize import ("
            "kernel_from_payload, kernel_to_payload, payload_digest)\n"
            f"payload = bytes.fromhex({payload.hex()!r})\n"
            "rebuilt = kernel_from_payload(payload)\n"
            "print(payload_digest(kernel_to_payload(rebuilt)))"
        )
        assert out == payload_digest(payload)
