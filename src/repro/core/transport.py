"""The frame protocol: the one way the runtime reaches a shard.

A shard is one connected socket with a worker loop at the far end.
Where that worker lives is the only thing that differs:

* a **local shard** is a child the runtime forks (:meth:`Shard.fork`);
  it serves one end of a ``socket.socketpair()``;
* a **remote shard** is a ``repro shard-worker --listen host:port``
  process anywhere a socket reaches (:meth:`Shard.connect`).

Both run the same worker loop (:func:`_serve_connection`), and the
parent holds the same handle (:class:`Shard`) for both, so routing,
zero-payload repeats, cancellation and failure handling are built once.
The wire discipline is deliberately minimal:

* every frame is an 8-byte little-endian length header followed by a
  pickled tuple;
* the parent drives: ``("task", id, "module:function", payload,
  forget)`` asks the worker to run one chunk function, after it has
  dropped the *forget* digests — the kernels the parent's arena
  dropped since its last task to this shard — from its kernel memo;
* the worker answers ``("result", id, value, seconds)`` — *seconds*
  is the task's compute time on the worker, its waits for fetched
  payloads left out — or ``("error", id, traceback_text)``: a task
  that raised surfaces in the parent as :class:`RemoteTaskError`
  carrying the worker's traceback;
* in between, the worker may interleave ``("need", id, [digests])``
  requests — *fetch-on-miss* for kernel payloads it has not memoized
  yet — which the parent serves from its arena with ``("blob", id,
  {digest: bytes})``.  A warm worker never sends ``need``: chunks
  carry content digests only, so a repeated sweep ships **zero**
  payload bytes on every transport (the bench asserts exactly that).

The connection is **pipelined**: the parent may have any number of
tagged task frames in flight at once, and replies demultiplex by task
id — they can arrive in *any* order relative to the requests (the
pipelined scheduler's bounded per-shard window rides directly on
this).  The worker still *executes* tasks strictly one at a time on a
single task thread — the engine layers (kernel memos, verdict cache)
are single-threaded by design — so pipelining buys the wire
round-trips, not intra-shard parallelism.

**EOF is the death signal in both directions.**  When a worker's
socket reaches EOF it finishes its current task, drops the queued
ones and leaves the loop: a local shard then exits, a remote one goes
back to ``accept``.  A forked child closes every parent-side shard
socket it inherited, so each shard socket's parent end lives in the
parent alone and the shard sees EOF the moment the parent dies, by
any signal.  When the parent sees EOF, every task still pending on
that shard fails at once with :class:`ShardLostError`, which the
scheduler treats as a lost attempt and re-sends elsewhere.

Function names resolve on the worker through an allowlist —
``repro.``-prefixed module paths only — so a shard never unpickles its
way into executing arbitrary callables; the pickled *payloads* are
trusted (shards are assumed to live inside the deployment's trust
boundary, like the paper's coordination delegates).
"""

from __future__ import annotations

import importlib
import os
import pickle
import signal
import socket
import threading
import time
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor

_HEADER_BYTES = 8

#: Connect timeout for a remote shard.  It bounds connecting only:
#: an established connection blocks for as long as a chunk or an
#: idle spell between dispatches takes.
_CONNECT_TIMEOUT_S = 30.0


class RemoteTaskError(RuntimeError):
    """A task raised on a shard; carries the worker's traceback."""


class ShardLostError(RemoteTaskError):
    """The shard's connection ended before the task's reply came back:
    the attempt is lost, not failed by the task itself."""


def send_msg(sock: socket.socket, obj) -> None:
    """Write one length-prefixed pickled frame."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(len(body).to_bytes(_HEADER_BYTES, "little") + body)


def recv_msg(sock: socket.socket):
    """Read one frame; returns None on a clean EOF between frames."""
    header = _recv_exact(sock, _HEADER_BYTES, eof_ok=True)
    if header is None:
        return None
    size = int.from_bytes(header, "little")
    return pickle.loads(_recv_exact(sock, size, eof_ok=False))


def _recv_exact(sock: socket.socket, size: int, eof_ok: bool):
    chunks = bytearray()
    while len(chunks) < size:
        chunk = sock.recv(size - len(chunks))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise ConnectionError("peer closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


def parse_address(address: str) -> tuple[str, int]:
    """Split ``host:port`` (the CLI's ``--shard`` / ``--listen``)."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port)


def resolve_task(path: str):
    """Resolve ``module:function`` to a callable, ``repro.``-only."""
    module_name, _, func_name = path.partition(":")
    if not module_name.startswith("repro.") or not func_name:
        raise ValueError(f"refusing non-repro task path: {path!r}")
    return getattr(importlib.import_module(module_name), func_name)


# -- worker side ---------------------------------------------------------------


class _BlobWaiter:
    """One task's pending fetch-on-miss: the reader thread parks the
    parent's ``blob`` frame here and wakes the task thread."""

    __slots__ = ("event", "blobs")

    def __init__(self):
        self.event = threading.Event()
        self.blobs = None


def _serve_connection(conn: socket.socket) -> None:
    """Serve one parent connection until it reaches EOF.

    The reader loop demultiplexes frames: ``task`` frames queue onto a
    single task-execution thread (tasks run strictly serially — the
    engine layers are single-threaded by design — but any number can
    be *queued*, which is what lets a pipelined parent keep the wire
    full), and ``blob`` frames wake whichever task is blocked on a
    fetch-on-miss, keyed by task id.  Replies go out under one send
    lock, so result frames for queued tasks interleave safely with the
    ``need`` traffic of the running one.

    Tasks run with a fetch-on-miss hook installed
    (:func:`repro.core.runtime.set_payload_fetcher`) so
    :func:`~repro.core.runtime.kernel_for` pulls missing payloads over
    this very connection; the hook is restored after every task so a
    stale socket can never leak into a later dispatch (the task thread
    outlives individual tasks).  Each task first drops its frame's
    forgotten digests from the kernel memo
    (:func:`~repro.core.runtime.forget_kernels`) — on the task thread,
    the memo's only user — and is timed there, less its fetch waits.

    At EOF the running task is allowed to finish (a fetch it starts
    fails at once) and the queued ones are dropped: nobody is left to
    read their results.
    """
    from repro.core import runtime as _runtime

    send_lock = threading.Lock()
    waiters: dict = {}
    waiters_lock = threading.Lock()
    closed = False
    executor = ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="repro-shard"
    )

    def send(obj) -> None:
        try:
            with send_lock:
                send_msg(conn, obj)
        except (ConnectionError, OSError):
            pass  # parent vanished; the reader loop notices next

    def run_task(task_id, path, payload, forget) -> None:
        waited = 0.0

        def fetch(digest):
            nonlocal waited
            asked = time.perf_counter()
            waiter = _BlobWaiter()
            with waiters_lock:
                if closed:
                    raise ConnectionError("parent closed the connection")
                waiters[task_id] = waiter
            send(("need", task_id, [digest]))
            if not waiter.event.wait(timeout=60) or waiter.blobs is None:
                raise ConnectionError("parent stopped serving blobs")
            waited += time.perf_counter() - asked
            return waiter.blobs[digest]

        _runtime.forget_kernels(forget)
        previous = _runtime.set_payload_fetcher(fetch)
        try:
            started = time.perf_counter()
            value = resolve_task(path)(payload)
            seconds = time.perf_counter() - started - waited
            # A result that fails to pickle is reported like a raise.
            send(("result", task_id, value, seconds))
        except Exception:
            send(("error", task_id, traceback.format_exc()))
        finally:
            _runtime.set_payload_fetcher(previous)
            with waiters_lock:
                waiters.pop(task_id, None)

    try:
        while (message := recv_msg(conn)) is not None:
            kind = message[0]
            if kind == "blob":
                with waiters_lock:
                    waiter = waiters.get(message[1])
                if waiter is not None:
                    waiter.blobs = message[2]
                    waiter.event.set()
            elif kind == "task":
                _, task_id, path, payload, forget = message
                executor.submit(run_task, task_id, path, payload, forget)
            else:
                send(("error", None, f"unknown frame {kind!r}"))
    finally:
        # Wake any fetch still parked (its blob can never arrive now)
        # and fail the ones still to come, then let the running task
        # finish and drop the queued ones.
        with waiters_lock:
            closed = True
            for waiter in waiters.values():
                waiter.event.set()
        executor.shutdown(wait=True, cancel_futures=True)


class ShardServer:
    """One listening shard: accepts parents sequentially, forever.

    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    actual one.  :meth:`run` serves inline (the CLI's ``shard-worker``
    loop); :meth:`start`/:meth:`stop` run the same loop on a daemon
    thread for in-process tests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        bound_host, bound_port = self._listener.getsockname()[:2]
        self.address = f"{bound_host}:{bound_port}"
        self.connections = 0
        self._stopping = False
        self._thread: threading.Thread | None = None

    def run(self) -> None:
        """Accept-and-serve until the listener is closed."""
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed by stop()
                break
            self.connections += 1
            try:
                _serve_connection(conn)
            except (ConnectionError, OSError):
                pass  # parent vanished mid-frame; next accept
            finally:
                conn.close()

    def start(self) -> "ShardServer":
        self._thread = threading.Thread(target=self.run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        try:
            # Wakes a thread blocked in accept(); close() alone won't.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not listening any more
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def serve_shard(address: str, announce=print) -> None:
    """Blocking entry point of ``repro shard-worker --listen`` —
    announces the bound address (ephemeral ports print their real
    value, which the smoke tests parse) and serves until killed."""
    host, port = parse_address(address)
    server = ShardServer(host, port)
    announce(f"shard-worker listening on {server.address}", flush=True)
    server.run()


# -- parent side ---------------------------------------------------------------

#: Every open parent-side handle of this process.  A forked child
#: closes all their sockets, so no shard socket's parent end outlives
#: the parent in some other shard.
_HANDLES: "weakref.WeakSet[Shard]" = weakref.WeakSet()


def _run_forked_shard(conn, parent_end) -> None:
    """Body of a forked local shard: serve *conn* until EOF, then exit
    the process (never returns into the parent's code)."""
    status = 1
    try:
        parent_end.close()
        for handle in list(_HANDLES):
            handle._sock.close()
        _serve_connection(conn)
        status = 0
    finally:
        os._exit(status)


class Shard:
    """Parent-side handle on one shard: a connected socket speaking
    the frame protocol, whether the worker is a forked child or a
    remote process.

    :meth:`submit` sends the tagged task frame inline under a send
    lock and registers a completion callback by task id; a dedicated
    **reader thread** demultiplexes everything coming back — results
    and errors complete their task in whatever order the worker
    produced them, and ``need`` frames are served from *blob_of* (the
    arena payload lookup), reporting shipped bytes to *on_fetch* so
    the runtime's fetch counters see every payload that crosses the
    wire.  When the connection ends, every pending task fails with
    :class:`ShardLostError` and the handle stays closed.
    :attr:`inflight` is the pending-task count — the invariance tests
    assert it drains to zero after every sweep, cancelled ones
    included.  :attr:`compute_seconds` sums the compute time the
    shard's result frames report, so a dispatch reads each shard's
    share as a delta.  :meth:`forget` queues digests for the next task
    frame; :meth:`close` sends nothing, so a remote worker keeps its
    memo for the next parent.
    """

    def __init__(self, sock, name: str, blob_of, on_fetch=None, pid=None):
        self.name = name
        #: The forked child's pid (None for a remote shard).
        self.pid = pid
        #: Worker compute seconds reported by every result so far.
        self.compute_seconds = 0.0
        self._sock = sock
        self._blob_of = blob_of
        self._on_fetch = on_fetch
        #: Digests to forget, in drop order (a dict as an ordered set).
        self._forget: dict = {}
        self._pending: dict = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = False
        self._next_id = 0
        _HANDLES.add(self)
        self._thread = threading.Thread(target=self._recv_loop, daemon=True)
        self._thread.start()

    @classmethod
    def connect(cls, address: str, blob_of, on_fetch=None) -> "Shard":
        """Connect to a remote ``repro shard-worker`` at *address*."""
        sock = socket.create_connection(
            parse_address(address), timeout=_CONNECT_TIMEOUT_S
        )
        sock.settimeout(None)
        return cls(sock, address, blob_of, on_fetch)

    @classmethod
    def fork(cls, slot: int, blob_of, on_fetch=None) -> "Shard":
        """Fork a local shard for *slot*: the child serves one end of
        a socket pair, the parent keeps the other."""
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            _run_forked_shard(child_end, parent_end)
        child_end.close()
        return cls(parent_end, f"local-{slot}", blob_of, on_fetch, pid=pid)

    @property
    def inflight(self) -> int:
        """Tasks sent whose result has not come back yet."""
        with self._lock:
            return len(self._pending)

    @property
    def connected(self) -> bool:
        """False once the connection has ended, for whatever reason."""
        return not self._closed

    def forget(self, digests, held) -> None:
        """Queue *digests* for the worker to drop from its kernel memo,
        and unqueue every queued digest that is in *held* (the parent
        published it again: the worker's copy is live); the next task
        frame carries the queue."""
        with self._lock:
            self._forget.update(dict.fromkeys(digests))
            for digest in [d for d in self._forget if d in held]:
                del self._forget[digest]

    def submit(self, func, payload, done) -> None:
        """Run ``func(payload)`` on the shard; ``done(value, error)``
        is called exactly once, on the reader thread (or inline when
        the shard is already closed).  The task frame carries every
        digest queued by :meth:`forget` since the last one."""
        path = f"{func.__module__}:{func.__name__}"
        with self._lock:
            task_id = None if self._closed else self._next_id
            if task_id is not None:
                self._next_id += 1
                self._pending[task_id] = done
                forget, self._forget = list(self._forget), {}
        if task_id is None:
            done(None, ShardLostError(f"shard {self.name}: closed"))
            return
        try:
            with self._send_lock:
                send_msg(self._sock, ("task", task_id, path, payload, forget))
        except Exception as exc:
            with self._lock:
                done = self._pending.pop(task_id, None)
            if done is not None:
                done(None, ShardLostError(f"shard {self.name}: {exc!r}"))

    def close(self) -> None:
        """End the shard: a forked child is killed and reaped at once;
        a remote shard is only disconnected (its process and caches
        belong to whoever started it).  Pending tasks fail as lost."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pid = None
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        self._thread.join(timeout=5)
        self._sock.close()
        _HANDLES.discard(self)

    # -- reader thread -----------------------------------------------------

    def _recv_loop(self) -> None:
        """Demultiplex every inbound frame until the connection ends,
        then fail whatever is still pending."""
        reason = "connection closed"
        try:
            while (message := recv_msg(self._sock)) is not None:
                kind, task_id = message[0], message[1]
                if kind == "need":
                    blobs = {
                        digest: self._blob_of(digest)
                        for digest in message[2]
                    }
                    if self._on_fetch is not None:
                        for blob in blobs.values():
                            self._on_fetch(len(blob))
                    with self._send_lock:
                        send_msg(self._sock, ("blob", task_id, blobs))
                    continue
                if kind not in ("result", "error"):
                    reason = f"unexpected frame {kind!r}"
                    break
                with self._lock:
                    done = self._pending.pop(task_id, None)
                if done is None:
                    continue  # the task already failed parent-side
                if kind == "result":
                    self.compute_seconds += message[3]
                    done(message[2], None)
                else:
                    done(None, RemoteTaskError(
                        f"shard {self.name} raised:\n{message[2]}"
                    ))
        except Exception as exc:  # a broken connection is an ended one
            reason = repr(exc)
        finally:
            with self._lock:
                self._closed = True
                pending, self._pending = self._pending, {}
            for done in pending.values():
                done(None, ShardLostError(f"shard {self.name}: {reason}"))
