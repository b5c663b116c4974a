"""The ``/metrics`` series table agrees with the counters it reads.

:data:`repro.service.metrics.SERIES` declares every exported family
once, with the source dict and the counter it reads.  These tests hold
the table and its sources to each other in both directions: every row
reads a counter its source has, and every counter a source hands out
has a row, except the few named in :data:`NOT_EXPORTED`.  So a
counter added without a row, or renamed on one side only, fails here
instead of going unexported or exporting 0.
"""

import pytest

from repro.core.runtime import EvolutionRuntime
from repro.service.app import ChoreoService
from repro.service.metrics import SERIES, render_metrics

#: ``(source, key)`` pairs deliberately not exported, with the reason.
NOT_EXPORTED = {
    ("cache", "maxsize"): "the verdict cache's capacity is a setting, "
    "not a count",
    ("runtime", "transport"): "names the shard transport for describe(); "
    "it is not a number",
}


def sources() -> dict:
    """The sources a fresh service renders ``/metrics`` from."""
    service = ChoreoService(runtime=EvolutionRuntime())
    try:
        return service.metric_sources()
    finally:
        service.close()
        service.runtime.shutdown()


def keys(series) -> list:
    """The counter names *series* reads."""
    if isinstance(series.key, dict):
        return list(series.key.values())
    return [series.key]


def test_every_row_reads_a_counter_its_source_has():
    served = sources()
    missing = [
        (series.name, series.source, key)
        for series in SERIES
        for key in keys(series)
        if key not in served[series.source]
    ]
    assert not missing


def test_every_counter_of_every_source_has_a_row():
    read = {(series.source, key) for series in SERIES for key in keys(series)}
    served = sources()
    unexported = [
        (source, key)
        for source, counters in served.items()
        for key in counters
        if (source, key) not in read and (source, key) not in NOT_EXPORTED
    ]
    assert not unexported
    stale = [
        (source, key)
        for source, key in NOT_EXPORTED
        if key not in served[source] or (source, key) in read
    ]
    assert not stale


def test_each_family_is_declared_once():
    names = [series.name for series in SERIES]
    assert len(names) == len(set(names))


def test_a_missing_counter_fails_the_render():
    served = sources()
    del served["runtime"]["dispatches"]
    with pytest.raises(KeyError):
        render_metrics(served)
