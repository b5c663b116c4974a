"""Contract 9 on the dispatch object itself: scripted shards, virtual time.

:class:`repro.core.runtime._Dispatch` holds one dispatch's scheduler
state, reads no clock and reaches a shard only through ``submit`` and
``connected``.  These tests drive it directly, the way
:meth:`~repro.core.runtime.EvolutionRuntime.map_streaming` does, over
:class:`ScriptedShard` doubles that answer only when told — a result,
a task error, or the end of the connection, which fails every pending
attempt with :class:`~repro.core.transport.ShardLostError` — and give
every event a virtual time.

* **A state machine** (hypothesis) runs dispatches over 2–3 scripted
  shards through replies in any order, task errors, shards reaching
  EOF, time jumping past the straggler threshold, and cancellation at
  any step.  It checks that a chunk is yielded at most once and with
  ``func(payload)``'s result; that a dispatch neither cancelled nor
  failed yields every chunk exactly once, and a cancelled one counts
  every chunk it had not yielded as cancelled; that a chunk raises only
  when none of its attempts is still out — and, for a lost chunk, only
  after every candidate still connected has been tried; that the
  dispatch never stalls; that after the drain no attempt is
  outstanding and the runtime's in-flight gauge is back where it
  started; and that the runtime's totals are the sum of the dispatch
  records, with ``chunks_dispatched`` counting every attempt.
* **Examples** pin the decisions the machine only bounds: the
  speculation threshold and backup target, tail-only stealing from a
  straggler, rendezvous-order failover, and the attempt counter
  against the task frames the shards received.
"""

from __future__ import annotations

import queue

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.routing import rendezvous_rank
from repro.core.runtime import EvolutionRuntime, _Dispatch
from repro.core.transport import RemoteTaskError, ShardLostError

#: The scheduler totals a dispatch adds to the runtime, under the same
#: names in its record.
TOTALS = (
    "routing_spilled",
    "speculative_dispatches",
    "speculative_wins",
    "stolen_chunks",
    "cancelled_chunks",
)


def square_chunk(payload):
    """The chunk function: ``(chunk_results, extra)`` for a payload."""
    return [item * item for item in payload], {"items": len(payload)}


class ScriptedShard:
    """A shard double that answers only when the test says so.

    It keeps :class:`~repro.core.transport.Shard`'s contract: ``done``
    is called exactly once per task — at once, with
    :class:`ShardLostError`, when the shard has already ended — and
    ending the shard fails every pending task with
    :class:`ShardLostError`.
    """

    def __init__(self):
        self.connected = True
        #: ``(func, payload, done)`` of every unanswered task, in
        #: arrival order.
        self.pending: list = []
        #: The payload of every task frame that arrived.
        self.received: list = []
        #: Tasks submitted after the shard ended.
        self.refused = 0

    def submit(self, func, payload, done) -> None:
        if not self.connected:
            self.refused += 1
            done(None, ShardLostError("scripted shard: closed"))
            return
        self.received.append(payload)
        self.pending.append((func, payload, done))

    def answer(self, index: int = 0) -> None:
        func, payload, done = self.pending.pop(index)
        done(func(payload), None)

    def fail(self, index: int = 0) -> None:
        _, _, done = self.pending.pop(index)
        done(None, RemoteTaskError("scripted task error"))

    def end(self) -> None:
        self.connected = False
        pending, self.pending = self.pending, []
        for _, _, done in pending:
            done(None, ShardLostError("scripted shard: connection ended"))


def _dispatch(runtime, shards, items, chunk_size=1):
    return _Dispatch(
        runtime, shards, square_chunk, items, tuple, str, chunk_size
    )


def _settle_all(dispatch, now):
    """Settle every queued completion the way ``map_streaming`` does;
    returns what it would yield."""
    won = []
    while True:
        try:
            event = dispatch.completions.get_nowait()
        except queue.Empty:
            return won
        result = dispatch.settle(event, now)
        dispatch.speculate(now)
        if result is not None:
            won.append(result)
        if dispatch.remaining:
            dispatch.top_up(now)


def _drain_all(dispatch, now):
    while True:
        try:
            event = dispatch.completions.get_nowait()
        except queue.Empty:
            return
        dispatch.drain(event, now)


def _items_ranked(prefix, count, shards):
    """*count* items whose rendezvous ranking over *shards* starts with
    the shard sequence *prefix*."""
    found = []
    item = 0
    while len(found) < count:
        if rendezvous_rank(str(item), shards)[: len(prefix)] == prefix:
            found.append(item)
        item += 1
    return found


class DispatchMachine(RuleBasedStateMachine):
    """Dispatches over scripted shards, one after another on one
    runtime, driven through every event in any order."""

    @initialize(
        shards=st.integers(2, 3),
        items=st.integers(1, 12),
        chunk_size=st.integers(0, 2),
    )
    def start(self, shards, items, chunk_size):
        self.runtime = EvolutionRuntime()
        self.start_inflight = self.runtime.counters["inflight"]
        self.totals_before = {
            name: self.runtime.counters[name]
            for name in TOTALS + ("chunks_dispatched",)
        }
        self.records: list = []
        self.fleets: list = []
        self.now = 0.0
        self._begin(shards, items, chunk_size)

    def _begin(self, shards, items, chunk_size):
        self.shards = [ScriptedShard() for _ in range(shards)]
        self.fleets.append(self.shards)
        self.items = list(range(100, 100 + items))
        self.dispatch = _dispatch(
            self.runtime, self.shards, self.items, chunk_size
        )
        self.records.append(self.dispatch.record)
        self.yielded: dict = {}
        self.won = 0
        self.over = self.cancelled = self.failed = False
        self.dispatch.top_up(self.now)
        self._pump()

    def _pump(self) -> None:
        """Deliver every queued completion as ``map_streaming`` does:
        settle, speculate and top up while the dispatch runs; drain
        once it is over (finished, failed or cancelled)."""
        dispatch = self.dispatch
        while True:
            try:
                event = dispatch.completions.get_nowait()
            except queue.Empty:
                return
            if self.over:
                dispatch.drain(event, self.now)
                continue
            try:
                won = dispatch.settle(event, self.now)
            except RemoteTaskError as error:
                self._check_raise(event[0], error)
                self.over = self.failed = True
                continue
            dispatch.speculate(self.now)
            if won is not None:
                self._check_yield(won)
            if dispatch.remaining:
                dispatch.top_up(self.now)
            else:
                self.over = True

    def _check_yield(self, won) -> None:
        indices, results, extra = won
        payload = tuple(self.items[index] for index in indices)
        assert (results, extra) == square_chunk(payload)
        for index in indices:
            assert index not in self.yielded, "a chunk was yielded twice"
            self.yielded[index] = results
        self.won += 1

    def _check_raise(self, chunk, error) -> None:
        assert chunk.outstanding == 0, "raised with an attempt still out"
        if isinstance(error, ShardLostError):
            tried = {attempt[0] for attempt in chunk.attempts}
            assert all(
                candidate in tried or not self.shards[candidate].connected
                for candidate in chunk.candidates
            ), "a lost chunk raised with a connected candidate untried"

    def _busy(self):
        return [shard for shard in self.shards if shard.pending]

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: any(s.pending for s in self.shards))
    @rule(
        pick=st.integers(0, 2),
        task=st.integers(0, 5),
        wait=st.sampled_from([0.0, 0.01, 0.1]),
    )
    def reply(self, pick, task, wait):
        """A shard answers one of its tasks, *wait* seconds on."""
        busy = self._busy()
        shard = busy[pick % len(busy)]
        self.now += wait
        shard.answer(task % len(shard.pending))
        self._pump()

    @precondition(lambda self: any(s.pending for s in self.shards))
    @rule(
        pick=st.integers(0, 2),
        task=st.integers(0, 5),
        roll=st.integers(0, 3),
    )
    def task_error(self, pick, task, roll):
        """A task raises on its shard (one roll in four: a chunk whose
        last attempt fails this way ends the dispatch)."""
        if roll < 3:
            return
        busy = self._busy()
        shard = busy[pick % len(busy)]
        shard.fail(task % len(shard.pending))
        self._pump()

    @precondition(lambda self: any(s.connected for s in self.shards))
    @rule(pick=st.integers(0, 2), roll=st.integers(0, 3))
    def end_shard(self, pick, roll):
        """A shard's connection reaches EOF (one roll in four)."""
        if roll < 3:
            return
        connected = [shard for shard in self.shards if shard.connected]
        connected[pick % len(connected)].end()
        self._pump()

    @rule(past=st.booleans(), seconds=st.sampled_from([0.01, 0.1]))
    def advance(self, past, seconds):
        """Time passes with no completion (the poll timeout path): a
        small step, or a jump just past the straggler threshold."""
        self.now += self.dispatch._threshold() + 0.001 if past else seconds
        if not self.over:
            self.dispatch.speculate(self.now)
            self.dispatch.top_up(self.now)
            self._pump()

    @precondition(lambda self: not self.over)
    @rule(roll=st.integers(0, 7))
    def cancel(self, roll):
        """The consumer closes the stream (on one roll in eight, so
        most dispatches run long enough to straggle)."""
        if roll < 7:
            return
        self.dispatch.cancel()
        record = self.dispatch.record
        assert record["cancelled_chunks"] == record["chunks"] - self.won
        self.over = self.cancelled = True
        self._pump()

    @precondition(
        lambda self: self.over and not any(s.pending for s in self.shards)
    )
    @rule(
        shards=st.integers(2, 3),
        items=st.integers(1, 12),
        chunk_size=st.integers(0, 2),
    )
    def next_dispatch(self, shards, items, chunk_size):
        self._check_ended()
        self._begin(shards, items, chunk_size)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def attempts_are_accounted(self):
        pending = sum(len(shard.pending) for shard in self.shards)
        assert self.dispatch.outstanding == pending
        assert (
            self.runtime.counters["inflight"] == self.start_inflight + pending
        )
        assert self.dispatch.outstanding == sum(self.dispatch.inflight)

    @invariant()
    def never_stalls(self):
        """A running dispatch always has an attempt out: it is waiting
        on a shard, never on itself."""
        if not self.over:
            assert self._busy()

    @invariant()
    def totals_are_the_sum_of_records(self):
        for name in TOTALS:
            assert self.runtime.counters[name] - self.totals_before[
                name
            ] == sum(record[name] for record in self.records), name
        attempts = sum(
            len(shard.received) + shard.refused
            for fleet in self.fleets
            for shard in fleet
        )
        assert (
            self.runtime.counters["chunks_dispatched"]
            - self.totals_before["chunks_dispatched"]
            == attempts
        )

    def _check_ended(self) -> None:
        assert self.dispatch.outstanding == 0
        assert self.runtime.counters["inflight"] == self.start_inflight
        if not (self.cancelled or self.failed):
            assert sorted(self.yielded) == list(range(len(self.items)))

    def teardown(self):
        """Let the shards answer everything, as a fleet eventually
        does: a running dispatch runs to its end, then drains."""
        for _ in range(1000):
            busy = self._busy()
            if not busy:
                break
            self.now += 0.001
            busy[0].answer()
            self._pump()
        assert self.over
        self._check_ended()


DispatchMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestDispatchMachine = DispatchMachine.TestCase


class TestSpeculation:
    def test_backup_fires_past_four_ewmas_plus_floor(self):
        """With a 0.1 s chunk EWMA the threshold is 4 × 0.1 + 0.05 =
        0.45 s: at 0.45 s nothing is backed up, just past it the chunk
        goes to its next rendezvous candidate."""
        runtime = EvolutionRuntime()
        runtime._observe_latency(0.1, 1)
        shards = [ScriptedShard(), ScriptedShard()]
        (item,) = _items_ranked([0], 1, 2)
        dispatch = _dispatch(runtime, shards, [item])
        dispatch.top_up(0.0)
        dispatch.speculate(0.45)
        assert shards[1].received == []
        dispatch.speculate(0.4501)
        assert shards[1].received == [(item,)]
        assert dispatch.record["speculative_dispatches"] == 1
        # The backup wins; the straggling original drains later.
        shards[1].answer()
        assert _settle_all(dispatch, 0.46) == [([0], [item * item], {
            "items": 1
        })]
        assert dispatch.record["speculative_wins"] == 1
        shards[0].answer()
        _drain_all(dispatch, 1.0)
        assert dispatch.outstanding == 0 == runtime.counters["inflight"]

    def test_no_backup_onto_a_busier_shard(self):
        """Both shards' chunks went out at t=0: neither candidate is
        doing better than the other chunk's own wait, so nothing is
        backed up — until one shard frees up."""
        runtime = EvolutionRuntime()
        shards = [ScriptedShard(), ScriptedShard()]
        first = _items_ranked([0], 1, 2)[0]
        second = _items_ranked([1], 1, 2)[0]
        dispatch = _dispatch(runtime, shards, [first, second])
        dispatch.top_up(0.0)
        dispatch.speculate(1.0)
        assert dispatch.record["speculative_dispatches"] == 0
        shards[1].answer()
        _settle_all(dispatch, 1.0)  # chunk EWMA 1.0 s: threshold 4.05 s
        dispatch.speculate(4.06)
        assert dispatch.record["speculative_dispatches"] == 1
        assert shards[1].received[-1] == (first,)

    def test_no_backup_onto_a_shard_observed_slower(self):
        runtime = EvolutionRuntime()
        runtime._observe_shard_latency(0, 0.01, 1)
        runtime._observe_shard_latency(1, 1.0, 1)
        shards = [ScriptedShard(), ScriptedShard()]
        (item,) = _items_ranked([0], 1, 2)
        dispatch = _dispatch(runtime, shards, [item])
        dispatch.top_up(0.0)
        dispatch.speculate(10.0)
        assert shards[1].received == []
        assert dispatch.record["speculative_dispatches"] == 0


class TestStealing:
    def test_steals_from_the_tail_of_a_straggler_only(self):
        """Five chunks queue on shard 0 (window 2).  Shard 1 steals
        nothing while shard 0 is within the threshold; once shard 0
        straggles it takes the queue's last chunks, tail first."""
        runtime = EvolutionRuntime()
        shards = [ScriptedShard(), ScriptedShard()]
        items = _items_ranked([0], 5, 2)
        dispatch = _dispatch(runtime, shards, items)
        dispatch.top_up(0.0)
        assert shards[0].received == [(items[0],), (items[1],)]
        dispatch.top_up(0.05)
        assert shards[1].received == []
        dispatch.top_up(0.0501)
        assert shards[1].received == [(items[4],), (items[3],)]
        assert dispatch.record["stolen_chunks"] == 2
        assert [chunk.indices for chunk in dispatch.queued[0]] == [[2]]


class TestFailover:
    def test_lost_attempts_follow_rendezvous_order(self):
        runtime = EvolutionRuntime()
        shards = [ScriptedShard() for _ in range(3)]
        first, second, third = rendezvous_rank("0", 3)
        dispatch = _dispatch(runtime, shards, [0])
        dispatch.top_up(0.0)
        assert shards[first].received == [(0,)]
        shards[first].end()
        assert _settle_all(dispatch, 0.1) == []
        assert shards[second].received == [(0,)]
        shards[second].end()
        assert _settle_all(dispatch, 0.2) == []
        assert shards[third].received == [(0,)]
        shards[third].end()
        with pytest.raises(ShardLostError):
            _settle_all(dispatch, 0.3)
        assert dispatch.outstanding == 0 == runtime.counters["inflight"]

    def test_disconnected_candidates_are_skipped(self):
        runtime = EvolutionRuntime()
        shards = [ScriptedShard() for _ in range(3)]
        first, second, third = rendezvous_rank("0", 3)
        dispatch = _dispatch(runtime, shards, [0])
        dispatch.top_up(0.0)
        shards[second].end()
        shards[first].end()
        _settle_all(dispatch, 0.1)
        assert shards[second].received == []
        assert shards[third].received == [(0,)]


class TestAttemptCounter:
    def test_counts_every_task_frame_sent(self):
        """``chunks_dispatched`` — the
        ``repro_runtime_chunks_dispatched_total`` series — counts every
        attempt once: primaries, a speculative backup and the failover
        of a chunk whose shard ended."""
        runtime = EvolutionRuntime()
        shards = [ScriptedShard(), ScriptedShard()]
        items = _items_ranked([0], 3, 2)
        dispatch = _dispatch(runtime, shards, items)
        dispatch.top_up(0.0)  # items 0 and 1 go out; 2 waits (window)
        shards[0].answer()
        # Item 0 wins after 0.02 s (threshold 4 × 0.02 + 0.05 = 0.13 s)
        # and item 2 goes out in its place.
        won = _settle_all(dispatch, 0.02)
        # Item 1 is 0.14 s old and is backed up; item 2 is 0.12 s old.
        dispatch.speculate(0.14)
        assert dispatch.record["speculative_dispatches"] == 1
        assert shards[1].received == [(items[1],)]
        # Item 1's backup is still out; item 2 fails over.
        shards[0].end()
        won += _settle_all(dispatch, 0.14)
        assert shards[1].received == [(items[1],), (items[2],)]
        while shards[1].pending:
            shards[1].answer()
            won += _settle_all(dispatch, 0.15)
        assert sorted(i for indices, _, _ in won for i in indices) == [
            0, 1, 2,
        ]
        assert dispatch.record["speculative_wins"] == 1
        frames = sum(len(shard.received) for shard in shards)
        assert frames == 5
        assert runtime.stats()["chunks_dispatched"] == frames
        assert dispatch.outstanding == 0 == runtime.counters["inflight"]
