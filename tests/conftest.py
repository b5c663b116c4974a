"""Shared fixtures: the paper's scenario artifacts, compiled once.

Compilation and the automata algebra are deterministic, so session-scoped
fixtures are safe and keep the suite fast.  Tests that mutate processes
always work on fresh builders or clones.
"""

from __future__ import annotations

import pytest

from repro.bpel.compile import compile_process
from repro.scenario.figures import (
    fig5_intersection,
    fig5_party_a,
    fig5_party_b,
)
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
def buyer_process():
    return buyer_private()


@pytest.fixture(scope="session")
def accounting_process():
    return accounting_private()


@pytest.fixture(scope="session")
def logistics_process():
    return logistics_private()


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


@pytest.fixture(scope="session")
def party_a():
    return fig5_party_a()


@pytest.fixture(scope="session")
def party_b():
    return fig5_party_b()


@pytest.fixture(scope="session")
def fig5_product():
    return fig5_intersection()


# -- shared-memory leak guard --------------------------------------------------


@pytest.fixture(autouse=True)
def no_leaked_shared_memory():
    """Fail any test that leaves a new ``psm_*`` shared-memory segment
    behind.  The kernel arena keeps its payloads in process memory and
    shards fetch them over their own connections, so no test may
    create one at all (the twin fixture lives in
    benchmarks/conftest.py)."""
    from repro.core.runtime import shm_segments

    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"new shared-memory segment(s): {sorted(leaked)}"
