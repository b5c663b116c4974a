"""Chaos tests: a dead shard is a failed attempt, never a hang.

Every shard is a socket speaking the frame protocol, and EOF is the
death signal in both directions:

* **a killed local shard** — its pending attempts fail at once, the
  scheduler re-sends them to the next rendezvous candidate, the sweep
  ends with serial-identical verdicts and witnesses, and the next
  dispatch re-forks the slot;
* **a killed parent** — every forked shard sees EOF and exits, so no
  shard outlives the process that owns it;
* **a killed remote shard** — the other TCP shard serves the rest;
* **an idle TCP connection** — it lives past the connect timeout.

The victim runtimes of the process-level cases run in a subprocess of
their own session, so a hang ends at the subprocess timeout (and
takes its whole process group with it) instead of stalling the suite.
A slow shard is one whose chunk function is patched in its own
process: before the fork for a local shard, by a ``python -c``
launcher for a remote one.
"""

from __future__ import annotations

import json
import os
import queue
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from regimes import NO_SPECULATION, scheduler
from repro.core import transport
from repro.core.runtime import EvolutionRuntime, set_payload_fetcher
from repro.core.sweep import WITNESS_ALL, sweep_pairs
from repro.core.transport import RemoteTaskError, ShardServer, parse_address
from repro.workload.generator import random_afsa

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Shared by the victim scripts and the slow remote worker: a chunk
#: function that sleeps 0.05 s per pair before checking its chunk.
_SLOW_CHUNKS = """
import time
from repro.core import sweep

CHECK = sweep._check_arena_chunk

def slow_check(payload):
    time.sleep(0.05 * len(payload[2]))
    return CHECK(payload)
"""

#: Shared by the victim scripts: every grid fans out (the scripts are
#: about the shards), a seeded 24-pair grid, the verdict key tests
#: compare, and the pids of this process's shards — forked children
#: running this very command line.
_PRELUDE = _SLOW_CHUNKS + """
import json, os, signal, sys, threading
from repro.core import runtime
from repro.core.runtime import EvolutionRuntime
from repro.core.sweep import WITNESS_ALL, _sweep_pairs_report, sweep_pairs
from repro.workload.generator import random_afsa

runtime._FORCE_FAN_OUT = True

PAIRS = [
    (random_afsa(seed=5000 + 7 * i, states=8, labels=4,
                 annotation_probability=0.3),
     random_afsa(seed=5003 + 7 * i, states=8, labels=4,
                 annotation_probability=0.3))
    for i in range(24)
]

def key(results):
    return [[ok, None if wit is None else [wit.describe(), wit.word]]
            for ok, wit in results]

def shard_pids():
    own = open("/proc/self/cmdline", "rb").read()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                same = cmdline.read() == own
        except OSError:
            continue
        if ppid == os.getpid() and same:
            pids.append(int(entry))
    return sorted(pids)
"""

#: SIGKILL the first of two local shards 0.2 s into a sweep whose
#: every pair sleeps 0.05 s (both shards fork with the slow chunk
#: function), with no chunk ever straggling: only failover can finish
#: the sweep.  Then dispatch again and report the fleet.
_KILL_LOCAL_SHARD = _PRELUDE + """
serial = sweep_pairs(PAIRS, witnesses=WITNESS_ALL)
runtime._SPECULATE_FLOOR_S = float("inf")
with EvolutionRuntime() as rt:
    sweep._check_arena_chunk = slow_check
    rt.ensure_pool(2)
    sweep._check_arena_chunk = CHECK
    before = shard_pids()
    threading.Timer(0.2, os.kill, (before[0], signal.SIGKILL)).start()
    start = time.monotonic()
    fanned, report = _sweep_pairs_report(PAIRS, WITNESS_ALL, 2, rt)
    elapsed = time.monotonic() - start
    inflight = rt.counters["inflight"]
    size = rt.pool_size
    again = sweep_pairs(PAIRS[:4], witnesses=WITNESS_ALL, workers=2,
                        runtime=rt)
    print(json.dumps({
        "identical": key(fanned) == key(serial),
        "again_identical": key(again) == key(serial[:4]),
        "elapsed": elapsed, "inflight": inflight,
        "loads": report.shard_loads,
        "size_before": size, "size_after": rt.pool_size,
        "victim": before[0], "before": before, "after": shard_pids(),
    }), flush=True)
"""

#: Sweep through two forked shards, kill one, sweep again (the slot
#: is re-forked after its sibling, so each shard was forked while the
#: other's socket was open here), report the pids, then wait to be
#: killed.
_REFORK_AND_WAIT = _PRELUDE + """
rt = EvolutionRuntime()
sweep_pairs(PAIRS, witnesses=WITNESS_ALL, workers=2, runtime=rt)
os.kill(shard_pids()[0], signal.SIGKILL)
time.sleep(0.3)
sweep_pairs(PAIRS, witnesses=WITNESS_ALL, workers=2, runtime=rt)
print(json.dumps(shard_pids()), flush=True)
time.sleep(60)
"""


def _python(code: str) -> subprocess.Popen:
    """Start *code* in a fresh interpreter, in a session of its own
    (hash seed pinned, so the grid routes the same way every run)."""
    env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )


def _first_line(process: subprocess.Popen, timeout: float) -> str:
    """The first stdout line of *process*, waiting at most *timeout*."""
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    assert ready, f"no output within {timeout} s"
    return process.stdout.readline()


def _kill_session(process: subprocess.Popen) -> None:
    """SIGKILL *process* and everything left in its session."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    process.stdout.close()


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie has already ended)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _verdict_key(results):
    return [
        (ok, None if wit is None else (wit.describe(), wit.word))
        for ok, wit in results
    ]


def _pairs(count: int, seed: int):
    return [
        (
            random_afsa(seed=seed + 7 * i, states=8, labels=4,
                        annotation_probability=0.3),
            random_afsa(seed=seed + 7 * i + 3, states=8, labels=4,
                        annotation_probability=0.3),
        )
        for i in range(count)
    ]


class TestLocalShardDeath:
    def test_killed_shard_fails_over_and_reforks(self):
        victim = _python(_KILL_LOCAL_SHARD)
        try:
            out, _ = victim.communicate(timeout=40)
        finally:
            _kill_session(victim)
        report = json.loads(out.strip().splitlines()[-1])
        # The victim still had at least 0.2 s of pairs left to check.
        assert report["loads"][0] * 0.05 >= 0.4
        assert report["identical"]
        assert report["elapsed"] < 10
        assert report["inflight"] == 0
        # The next dispatch re-forked the dead slot: same fleet size,
        # a new process in place of the victim.
        assert report["size_before"] == report["size_after"] == 2
        assert report["again_identical"]
        assert len(report["after"]) == 2
        assert report["victim"] not in report["after"]

    def test_forked_shards_hold_no_parent_end(self):
        """No forked child keeps the parent end of any shard socket —
        its own, a sibling's or a remote shard's — open: only then does
        each shard see EOF the moment the parent dies."""
        server = ShardServer().start()
        remote = transport.Shard.connect(server.address, lambda d: b"")
        try:
            with EvolutionRuntime() as rt:
                rt.ensure_pool(2)
                # Re-fork slot 0 after slot 1 exists.
                rt._shards[0].close()
                rt.ensure_pool(2)
                # A round trip proves each child is past its set-up.
                for shard in rt._shards:
                    reply = queue.SimpleQueue()
                    shard.submit(
                        parse_address, "a:1",
                        lambda value, error: reply.put(value),
                    )
                    assert reply.get(timeout=10) == ("a", 1)
                parent_ends = {
                    os.fstat(shard._sock.fileno()).st_ino
                    for shard in [remote, *rt._shards]
                }
                for shard in rt._shards:
                    fds = f"/proc/{shard.pid}/fd"
                    held = {
                        os.stat(f"{fds}/{fd}").st_ino
                        for fd in os.listdir(fds)
                    }
                    assert not held & parent_ends
        finally:
            remote.close()
            server.stop()

    def test_parent_sigkill_ends_every_shard(self):
        parent = _python(_REFORK_AND_WAIT)
        try:
            pids = json.loads(_first_line(parent, timeout=40))
            assert len(pids) == 2
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, pids)), "a shard outlived its parent"
        finally:
            _kill_session(parent)


class TestTaskErrors:
    def test_unpicklable_result_is_a_task_error(self):
        """A task whose result cannot be pickled answers with an error
        frame — it neither hangs its dispatch nor costs the shard.
        (Inside a worker task, ``set_payload_fetcher`` returns the
        task's own fetch closure, which pickle refuses.)"""
        shard = transport.Shard.fork(0, lambda digest: b"")
        try:
            replies = queue.SimpleQueue()
            done = lambda value, error: replies.put(error)
            shard.submit(set_payload_fetcher, None, done)
            error = replies.get(timeout=10)
            assert isinstance(error, RemoteTaskError)
            assert not isinstance(error, transport.ShardLostError)
            shard.submit(parse_address, "a:1", done)
            assert replies.get(timeout=10) is None
            assert shard.connected
        finally:
            shard.close()


#: A remote shard worker on an ephemeral port whose chunk function
#: sleeps 0.05 s per pair: the launcher patches it, then serves.
_SLOW_SHARD_WORKER = _SLOW_CHUNKS + """
from repro.core.transport import serve_shard

sweep._check_arena_chunk = slow_check
serve_shard("127.0.0.1:0")
"""


def _slow_shard_worker() -> tuple[subprocess.Popen, str]:
    """Launch :data:`_SLOW_SHARD_WORKER`; returns the process and its
    announced address."""
    process = _python(_SLOW_SHARD_WORKER)
    try:
        line = _first_line(process, timeout=40)
        assert "listening on" in line, line
    except BaseException:
        _kill_session(process)
        raise
    return process, line.rsplit(" ", 1)[1].strip()


class TestRemoteShardDeath:
    def test_killed_tcp_shard_is_served_by_the_other(self):
        pairs = _pairs(24, seed=5100)
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        workers = [_slow_shard_worker() for _ in range(2)]
        try:
            with scheduler(**NO_SPECULATION), EvolutionRuntime(
                shards=[address for _, address in workers],
            ) as rt:
                killer = threading.Timer(
                    0.4, workers[0][0].send_signal, (signal.SIGKILL,)
                )
                killer.start()
                start = time.monotonic()
                fanned = sweep_pairs(
                    pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
                )
                elapsed = time.monotonic() - start
                killer.join()
                assert rt.counters["inflight"] == 0
                # The dead connection stays closed; the survivor
                # serves every later dispatch on its own.
                assert not rt._shards[0].connected
                again = sweep_pairs(
                    pairs[:4], witnesses=WITNESS_ALL, workers=2,
                    runtime=rt,
                )
        finally:
            for process, _ in workers:
                _kill_session(process)
        assert _verdict_key(fanned) == _verdict_key(serial)
        assert _verdict_key(again) == _verdict_key(serial[:4])
        assert elapsed < 10

    def test_failed_connect_releases_the_connected_shards(self):
        """A fleet that cannot reach every address keeps no connection
        open: a remote shard serves one parent at a time, so a leaked
        connection would lock it away from every later session."""
        unused = socket.create_server(("127.0.0.1", 0))
        refused = "127.0.0.1:%d" % unused.getsockname()[1]
        unused.close()
        server = ShardServer().start()
        try:
            rt = EvolutionRuntime(shards=[server.address, refused])
            with pytest.raises(ConnectionRefusedError):
                rt.ensure_pool(0)
            rt.shutdown()
            shard = transport.Shard.connect(
                server.address, lambda digest: b""
            )
            try:
                reply = queue.SimpleQueue()
                shard.submit(
                    parse_address, "a:1",
                    lambda value, error: reply.put(value),
                )
                assert reply.get(timeout=5) == ("a", 1)
            finally:
                shard.close()
        finally:
            server.stop()

    def test_idle_connection_survives_its_connect_timeout(
        self, monkeypatch
    ):
        """A connection idle for longer than the connect timeout is
        still alive: the timeout bounds connecting only."""
        connect = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection",
            lambda address, timeout=None, *args, **kwargs: connect(
                address, 0.2, *args, **kwargs
            ),
        )
        pairs = _pairs(4, seed=5200)
        serial = sweep_pairs(pairs, witnesses=WITNESS_ALL)
        server = ShardServer().start()
        try:
            with EvolutionRuntime(shards=[server.address]) as rt:
                first = sweep_pairs(
                    pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
                )
                time.sleep(0.5)
                second = sweep_pairs(
                    pairs, witnesses=WITNESS_ALL, workers=2, runtime=rt
                )
        finally:
            server.stop()
        assert _verdict_key(first) == _verdict_key(serial)
        assert _verdict_key(second) == _verdict_key(serial)
