"""docs/API.md ↔ route-table synchronization.

The route table (`repro.service.app.ROUTES`) is the single source of
truth for the service surface; `docs/API.md` documents it for humans.
These tests enforce the contract **bidirectionally**: every route must
have a `### METHOD /path` section in the docs, and every such section
must correspond to a live route — documentation for a removed endpoint
fails just like an undocumented addition.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

from repro.core.sweep import SweepReport
from repro.service.app import ROUTES, ChoreoService
from repro.service.http import Request

DOCS = Path(__file__).parent.parent / "docs" / "API.md"
README = Path(__file__).parent.parent / "README.md"

#: A metric name as the docs write it.  A ``{a,b}`` brace list inside
#: the name stands for each alternative; a brace group that ends the
#: name is a label set and is not part of it.
METRIC = re.compile(r"repro_(?:[a-z0-9_]|\{[a-z0-9_,]+\}(?=[a-z0-9_]))+")

#: The docs' endpoint headings: ``### METHOD /path``.
HEADING = re.compile(
    r"^###\s+(GET|POST|PUT|PATCH|DELETE)\s+(/\S*)\s*$", re.MULTILINE
)


def documented_endpoints() -> set:
    return set(HEADING.findall(DOCS.read_text(encoding="utf-8")))


def live_endpoints() -> set:
    return {(route.method, route.path) for route in ROUTES}


def documented_sweep_counters() -> set:
    """Keys of the ``counters`` object in the ``POST /sweep`` response
    example."""
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("### POST /sweep", 1)[1].split("\n### ", 1)[0]
    block = re.search(r'"counters":\s*\{(.*?)\}', section, re.DOTALL)
    return set(re.findall(r'"(\w+)":', block.group(1)))


def test_docs_file_exists():
    assert DOCS.is_file(), "docs/API.md is part of the service contract"


def test_every_route_is_documented():
    missing = live_endpoints() - documented_endpoints()
    assert not missing, (
        f"routes missing a '### METHOD /path' section in docs/API.md: "
        f"{sorted(missing)}"
    )


def test_every_documented_endpoint_is_live():
    stale = documented_endpoints() - live_endpoints()
    assert not stale, (
        f"docs/API.md documents endpoints that no longer exist: "
        f"{sorted(stale)}"
    )


def test_error_codes_in_docs_are_the_served_ones():
    """Spot-check: every stable error code the service can emit
    appears in the docs' error table (new codes must be documented)."""
    text = DOCS.read_text(encoding="utf-8")
    import repro.service.app as app
    import repro.service.tenants as tenants
    import inspect

    served = set()
    for module in (app, tenants):
        served.update(
            re.findall(
                r"ServiceError\(\s*\d+,\s*\"([a-z-]+)\"",
                inspect.getsource(module),
            )
        )
    assert served, "expected to find ServiceError codes in the source"
    undocumented = {code for code in served if f"`{code}`" not in text}
    assert not undocumented, (
        f"error codes raised by the service but absent from "
        f"docs/API.md: {sorted(undocumented)}"
    )


def test_route_summaries_are_nonempty():
    for route in ROUTES:
        assert route.summary.strip(), route


def test_sweep_counters_are_documented():
    """The documented ``/sweep`` counters are exactly the keys
    :meth:`SweepReport.as_dict` serves — an added, renamed or dropped
    counter fails until docs/API.md follows."""
    served = set(SweepReport().as_dict()["counters"])
    assert documented_sweep_counters() == served


def _expand(name: str) -> set:
    """*name* with its first brace list expanded, recursively."""
    match = re.search(r"\{([a-z0-9_,]+)\}", name)
    if match is None:
        return {name}
    return set().union(
        *(
            _expand(name[: match.start()] + part + name[match.end():])
            for part in match.group(1).split(",")
        )
    )


def documented_metric_names() -> set:
    """Every ``repro_*`` name in docs/API.md and in README's metrics
    table (its ``| `repro_…` |`` rows)."""
    table = "\n".join(
        line
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `repro_")
    )
    names: set = set()
    for text in (DOCS.read_text(encoding="utf-8"), table):
        for written in METRIC.findall(text):
            names |= _expand(written)
    return names


def scrape_metrics() -> str:
    """A live ``/metrics`` render, taken after one request so the
    latency histogram has samples."""

    def get(path: str) -> Request:
        return Request(
            method="GET", path=path, query="", headers={}, body=b"",
            keep_alive=True,
        )

    async def scrape() -> str:
        service = ChoreoService()
        try:
            await service.dispatch(get("/healthz"))
            status, (_, text) = await service.dispatch(get("/metrics"))
            assert status == 200
            return text
        finally:
            service.close()

    return asyncio.run(scrape())


def served_metric_names() -> set:
    """The sample and ``# TYPE`` names of a live ``/metrics`` render."""
    names: set = set()
    for line in scrape_metrics().splitlines():
        if line.startswith("# TYPE "):
            names.add(line.split()[2])
        elif line and not line.startswith("#"):
            names.add(re.match(r"[a-z_:][a-z0-9_:]*", line).group())
    return names


def test_documented_metric_names_are_served():
    """Every metric name the docs give is one ``/metrics`` serves — a
    renamed, dropped or misspelled series fails until the docs follow."""
    documented = documented_metric_names()
    assert "repro_verdict_cache_misses_total" in documented
    assert "repro_requests_total" in documented
    stale = documented - served_metric_names()
    assert not stale, (
        f"metric names documented but not served: {sorted(stale)}"
    )


def test_served_metric_families_are_documented():
    """Every family ``/metrics`` serves is documented — a new series
    fails until docs/API.md or README's metrics table names it.  A
    histogram counts as documented under its family name or the name
    of its ``_bucket``, ``_sum`` or ``_count`` samples."""
    served = {
        line.split()[2]
        for line in scrape_metrics().splitlines()
        if line.startswith("# TYPE ")
    }
    documented = {
        re.sub(r"_(bucket|sum|count)$", "", name)
        for name in documented_metric_names()
    } | documented_metric_names()
    undocumented = served - documented
    assert not undocumented, (
        f"metric families served but documented nowhere: "
        f"{sorted(undocumented)}"
    )
