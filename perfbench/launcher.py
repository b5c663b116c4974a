"""Traced launcher: wrap the service's layer boundaries, then serve.

Usage, from the checkout root with ``PYTHONPATH=src``::

    python perfbench/launcher.py SPANS.json serve --port 0 [serve options]

Before handing over to the CLI's ``serve``, every callable in
:data:`WRAPS` is replaced — at the name its callers use, so a function
pulled in with ``from x import f`` is replaced in each importing
module — by a wrapper recording a span ``(id, name, start_ns, end_ns,
parent id, request id)`` on the monotonic clock the benchmark client
reads too.  ``ChoreoService.dispatch`` opens a new request id.  The
callable handed to ``ChoreoService._run_engine`` is wrapped so the
request id and parent span cross the engine-thread hop; its span
starts when the engine thread picks the work up, so the gap to the
``app.run_engine`` span's start is the engine queue wait.  Spans stay
in memory and are written to SPANS.json when the server shuts down.
Shard processes are not traced: from outside, the runtime layer shows
its parent-side time plus the counters of ``/metrics``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

#: ``(span name, module, attribute)`` of every wrapped callable.
WRAPS = (
    ("http.decode", "repro.service.http", "Request.json"),
    ("http.encode", "repro.service.app", "json_response"),
    ("tenants.admit", "repro.service.tenants", "TenantRegistry.admit"),
    ("tenants.release", "repro.service.app", "release_sessions"),
    ("coalesce.run", "repro.service.coalesce", "Coalescer.run"),
    ("bpel.parse", "repro.service.app", "process_from_dsl"),
    ("bpel.compile", "repro.service.app", "compile_process"),
    ("bpel.compile", "repro.core.choreography", "compile_process"),
    ("bpel.compile", "repro.core.engine", "compile_process"),
    ("engine.evolve", "repro.core.engine",
     "EvolutionEngine.apply_private_change"),
    ("equivalence.public_equal", "repro.core.engine", "language_equal"),
    ("view.project", "repro.core.choreography", "project_view"),
    ("view.project", "repro.core.engine", "project_view"),
    ("view.project", "repro.core.classify", "project_view"),
    ("view.project", "repro.core.propagate", "project_view"),
    ("classify", "repro.core.engine", "classify_against_partner"),
    ("propagate", "repro.core.engine", "propagate_additive"),
    ("propagate", "repro.core.engine", "propagate_subtractive"),
    ("suggestions", "repro.core.engine", "derive_suggestions"),
    ("adapt.recheck", "repro.core.engine", "is_consistent"),
    ("choreography.commit", "repro.core.choreography",
     "Choreography.replace_private"),
    ("sweep.check_pair", "repro.service.app", "check_pair"),
    ("sweep.sweep", "repro.service.app", "sweep_choreography"),
    ("runtime.map_streaming", "repro.core.runtime",
     "EvolutionRuntime.map_streaming"),
    ("runtime.map_chunked", "repro.core.runtime",
     "EvolutionRuntime.map_chunked"),
    ("migrate.classify", "repro.service.app", "classify_migration"),
    ("fleet.spawn", "repro.core.choreography", "Choreography.spawn_fleet"),
)

SPANS: list = []
_span_ids = itertools.count(1)
_request_ids = itertools.count(1)
#: ``(span id, request id)`` open in the running task or thread.
_current = contextvars.ContextVar("perfbench_span", default=(0, 0))
_now = time.monotonic_ns


def _traced(name: str, fn):
    """Wrap *fn* (plain, coroutine or generator function) in a span."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, request = _current.get()
            span = next(_span_ids)
            token = _current.set((span, request))
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _now()
                _current.reset(token)
                SPANS.append((span, name, start, end, parent, request))

        return wrapper
    if inspect.isgeneratorfunction(fn):
        # A generator runs in its consumer's context between yields: it
        # gets a span from first pull to exhaustion but parents nothing.

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, request = _current.get()
            start = _now()
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                SPANS.append(
                    (next(_span_ids), name, start, _now(), parent, request)
                )

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, request = _current.get()
        span = next(_span_ids)
        token = _current.set((span, request))
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            _current.reset(token)
            SPANS.append((span, name, start, end, parent, request))

    return wrapper


def _dispatch(fn):
    """``ChoreoService.dispatch``: the root span of a new request id."""

    @functools.wraps(fn)
    async def dispatch(self, request):
        span, request_id = next(_span_ids), next(_request_ids)
        token = _current.set((span, request_id))
        start = _now()
        try:
            return await fn(self, request)
        finally:
            end = _now()
            _current.reset(token)
            SPANS.append((span, "app.dispatch", start, end, 0, request_id))

    return dispatch


def _engine_hop(fn):
    """``ChoreoService._run_engine``: carry the request across the
    engine-thread hop; the engine-side span is the work itself."""

    @functools.wraps(fn)
    async def run_engine(self, work):
        parent, request = _current.get()
        hop = next(_span_ids)

        def traced_work():
            span = next(_span_ids)
            token = _current.set((span, request))
            start = _now()
            try:
                return work()
            finally:
                end = _now()
                _current.reset(token)
                SPANS.append((span, "app.engine", start, end, hop, request))

        token = _current.set((hop, request))
        start = _now()
        try:
            return await fn(self, traced_work)
        finally:
            end = _now()
            _current.reset(token)
            SPANS.append((hop, "app.run_engine", start, end, parent, request))

    return run_engine


def _patch(module: str, attribute: str, wrap) -> None:
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, leaf, wrap(getattr(owner, leaf)))


def install() -> None:
    """Replace every traced callable by its span-recording wrapper."""
    for name, module, attribute in WRAPS:
        _patch(module, attribute, functools.partial(_traced, name))
    _patch("repro.service.app", "ChoreoService.dispatch", _dispatch)
    _patch("repro.service.app", "ChoreoService._run_engine", _engine_hop)


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(SPANS, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
