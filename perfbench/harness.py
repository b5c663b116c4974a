"""Server processes, the closed-loop HTTP client and ``/proc`` readings.

Each measured server is a fresh ``repro serve --port 0`` subprocess of
the checkout (unbuffered, so the bound port can be read off its
banner).  It is stopped with SIGINT — SIGTERM would skip the atexit
hook that shuts the worker pool down and unlinks the shared-memory
arena — and the caller asserts afterwards that no new ``psm_*``
segment survived it.

Load comes from one client process: every connection is a closed loop
that sends its next request when the previous reply arrives, over one
HTTP/1.1 keep-alive socket.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: server logs and span files.
SCRATCH = ROOT / ".perfbench"
BANNER = "repro service listening on http://"
#: How long a phase may run past its deadline (a set-up phase: at all)
#: before it is abandoned, so a hung server fails the run instead of
#: stalling it.
GRACE_S = 60
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_servers = itertools.count()


def _proc_stat(pid: int):
    """``(ppid, state, cpu seconds incl. reaped children)`` or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return int(fields[1]), fields[0], ticks / _CLOCK_TICKS


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _default_sigint() -> None:
    """Undo an inherited ``SIG_IGN`` for SIGINT (a shell starts
    background jobs that way), so the server's Python turns SIGINT into
    ``KeyboardInterrupt`` and shuts down cleanly."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral port.

    With *spans* set the server starts through ``launcher.py``, which
    wraps the layer boundaries and writes its spans to that file when
    the server shuts down.  The server's standard error goes to a log
    under :data:`SCRATCH`, kept only when it is not empty.
    """

    def __init__(self, args: list, spans: Path | None = None):
        SCRATCH.mkdir(exist_ok=True)
        if spans is None:
            entry = ["-m", "repro.cli"]
        else:
            entry = [str(Path(__file__).with_name("launcher.py")), str(spans)]
        command = [sys.executable, "-u", *entry, "serve", "--port", "0", *args]
        env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1"
        )
        self.log_path = SCRATCH / f"server-{os.getpid()}-{next(_servers)}.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=_default_sigint,
        )
        try:
            self.host, self.port = self._read_banner(timeout=60)
        except BaseException:
            self.stop()
            raise

    def _read_banner(self, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.2)
            if ready:
                line = stream.readline().decode("utf-8", "replace")
                if not line:
                    break
                if line.startswith(BANNER):
                    host, port = line[len(BANNER):].strip().rsplit(":", 1)
                    return host, int(port)
            elif self.process.poll() is not None:
                break
        raise RuntimeError(
            f"server printed no banner (exit {self.process.poll()}); "
            f"see {self.log_path}"
        )

    def family(self) -> list:
        """The server's pid followed by every live descendant's."""
        children: dict = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _proc_stat(int(entry))
                if stat is not None:
                    children.setdefault(stat[0], []).append(int(entry))
        family = [self.process.pid]
        for pid in family:
            family.extend(children.get(pid, ()))
        return family

    def cpu_seconds(self) -> float:
        """CPU time of the server and its live descendants (reaped
        children are included through the server's own counters)."""
        stats = (_proc_stat(pid) for pid in self.family())
        return sum(stat[2] for stat in stats if stat is not None)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its shard processes."""
        return sum(_peak_rss_kb(pid) for pid in self.family()) / 1024.0

    def stop(self, timeout: float = 20.0) -> list:
        """SIGINT the server, wait for it and for every descendant to
        end; returns the problems seen (empty when the stop was clean)."""
        problems = []
        family = self.family()[1:]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                problems.append(f"server ignored SIGINT for {timeout:.0f}s")
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        logged = os.fstat(self._log.fileno()).st_size
        self._log.close()
        deadline = time.monotonic() + 15
        for pid in family:
            while True:
                stat = _proc_stat(pid)
                if stat is None or stat[1] == "Z":
                    break
                if time.monotonic() > deadline:
                    problems.append(f"server child {pid} outlived the server")
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                    break
                time.sleep(0.05)
        if not problems and not logged:
            self.log_path.unlink(missing_ok=True)
        return problems


class Connection:
    """One keep-alive HTTP/1.1 connection speaking pre-encoded requests."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 24
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def call(self, wire: bytes) -> tuple:
        """Send one request; returns ``(status, body)``."""
        self.writer.write(wire)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        lowered = head.lower()
        at = lowered.find(b"content-length:")
        if at < 0:
            raise ValueError("response without Content-Length")
        length = int(head[at + 15:lowered.find(b"\r\n", at)])
        body = await self.reader.readexactly(length) if length else b""
        return status, body


async def _get(host: str, port: int, path: str) -> bytes:
    connection = Connection(host, port)
    await connection.open()
    try:
        status, body = await connection.call(
            f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()
        )
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body


def scrape_metrics(server: ServerProcess) -> dict:
    """``/metrics`` as ``{sample name with labels: value}``, read on a
    connection of its own (scrapes stay out of the measured loops)."""
    text = asyncio.run(_get(server.host, server.port, "/metrics"))
    values = {}
    for line in text.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


@dataclass
class Phase:
    """What one closed-loop phase did: latencies per call kind, the
    finished units with their raw responses, and its clock.  A phase
    measured in several windows spans ``[start_ns, end_ns]`` but was
    measured only for ``measured_ns`` of it."""

    samples: dict = field(default_factory=dict)
    finished: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    start_ns: int = 0
    end_ns: int = 0
    measured_ns: int = 0

    @property
    def elapsed(self) -> float:
        """Seconds measured, summed over the windows."""
        return self.measured_ns / 1e9

    def pooled(self, kinds) -> list:
        """The latencies of every call of *kinds*."""
        return [value for kind in kinds for value in self.samples.get(kind, ())]


def run_phase(
    server: ServerProcess, streams: list, seconds=None, phase=None
) -> Phase:
    """Drive one closed loop per unit stream until the streams run out
    or *seconds* pass (a unit in progress is finished, never cut);
    raises :class:`TimeoutError` after :data:`GRACE_S` more.

    Given a *phase*, the window is added to it; streams that are
    iterators then resume where the previous window left them."""
    if phase is None:
        phase = Phase()

    async def drive(units, deadline):
        connection = Connection(server.host, server.port)
        await connection.open()
        clock = time.perf_counter
        units = iter(units)
        try:
            while deadline is None or time.monotonic() < deadline:
                unit = next(units, None)
                if unit is None:
                    break
                responses = []
                for call in unit.calls:
                    started = clock()
                    try:
                        status, body = await connection.call(call.wire)
                    except (OSError, ValueError,
                            asyncio.IncompleteReadError) as error:
                        status, body = 0, repr(error).encode()
                        await connection.close()
                        await connection.open()
                    phase.samples.setdefault(call.kind, []).append(
                        clock() - started
                    )
                    phase.attempted += 1
                    if status != 200:
                        phase.failed += 1
                    responses.append((status, body))
                phase.finished.append((unit, responses))
        finally:
            await connection.close()

    async def main():
        start = time.monotonic_ns()
        phase.start_ns = phase.start_ns or start
        deadline = None if seconds is None else time.monotonic() + seconds
        await asyncio.wait_for(
            asyncio.gather(*(drive(units, deadline) for units in streams)),
            (seconds or 0) + GRACE_S,
        )
        phase.end_ns = time.monotonic_ns()
        phase.measured_ns += phase.end_ns - start

    asyncio.run(main())
    return phase


def verify(finished: list, seen=None) -> list:
    """Reference errors over finished ``(unit, responses)`` pairs, in
    order; a repeated unit with byte-identical responses is checked
    once (across calls sharing *seen*)."""
    errors = []
    seen = set() if seen is None else seen
    for unit, responses in finished:
        key = (id(unit), tuple(responses))
        if key not in seen:
            seen.add(key)
            errors.extend(unit.verify(responses))
    return errors


def percentile(values: list, quantile: float) -> tuple:
    """Nearest-rank *quantile* of *values*: ``(value, samples beyond)``."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(round(quantile * len(ordered), 6))))
    return ordered[rank - 1], len(ordered) - rank
