"""Shared benchmark fixtures and the paper-vs-measured reporting helper.

Every figure/table bench asserts the paper's verdict *inside* the
benchmark run (a bench that silently reproduces the wrong artifact is
worthless) and attaches the verdict to ``benchmark.extra_info`` so the
JSON output doubles as the reproduction record for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import platform

import pytest

from repro.bpel.compile import compile_process
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_invariant_change,
    accounting_private_subtractive_change,
    accounting_private_variant_change,
    buyer_private,
    buyer_private_after_additive_propagation,
    buyer_private_after_subtractive_propagation,
    logistics_private,
)


@pytest.fixture(scope="session")
def buyer_compiled():
    return compile_process(buyer_private())


@pytest.fixture(scope="session")
def accounting_compiled():
    return compile_process(accounting_private())


@pytest.fixture(scope="session")
def logistics_compiled():
    return compile_process(logistics_private())


@pytest.fixture(scope="session")
def accounting_invariant_compiled():
    return compile_process(accounting_private_invariant_change())


@pytest.fixture(scope="session")
def accounting_variant_compiled():
    return compile_process(accounting_private_variant_change())


@pytest.fixture(scope="session")
def accounting_subtractive_compiled():
    return compile_process(accounting_private_subtractive_change())


@pytest.fixture(scope="session")
def buyer_fig14_compiled():
    return compile_process(buyer_private_after_additive_propagation())


@pytest.fixture(scope="session")
def buyer_fig18_compiled():
    return compile_process(buyer_private_after_subtractive_propagation())


def pytest_benchmark_update_machine_info(config, machine_info):
    """Stamp the hardware context into every ``--benchmark-json``
    output (and thus every committed ``BENCH_*.json``): scaling results
    — especially the sharded fan-out series — are only comparable
    between runs with the same CPU budget, and
    ``benchmarks/report.py --gates`` warns (never gates) when the
    counts differ."""
    machine_info["hardware"] = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Drop the raw per-round timings (``stats.data``; the report and
    the gates read only the summary stats, and the raw rounds made up
    nearly all of a baseline's size), and stamp the measured
    multi-core fan-out curve (worker count → best-round sweep seconds,
    filled by ``bench_scaling_pipeline.py``) into the hardware block at
    JSON-write time — the curve is only meaningful next to the
    ``cpu_count`` it was measured on."""
    from bench_support import FANOUT_CURVE

    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
    if FANOUT_CURVE:
        hardware = output_json["machine_info"].setdefault("hardware", {})
        hardware["sweep_fanout_curve"] = dict(sorted(FANOUT_CURVE.items()))
