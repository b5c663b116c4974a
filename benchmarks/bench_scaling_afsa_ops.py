"""Scaling benchmarks for the aFSA operator algebra.

The paper reports no measurements; these sweeps characterize our
implementation: intersection + annotated emptiness (the consistency
check, quadratic in operand size), difference (dominated by completion
over Σ1 ∪ Σ2), minimization, and view projection.  Series are printed
per parameter point through pytest-benchmark's grouping.
"""

import pytest

from repro.afsa.difference import difference
from repro.afsa.emptiness import is_empty
from repro.afsa.kernel import k_good_states, kernel_of
from repro.afsa.minimize import minimize
from repro.afsa.product import intersect
from repro.afsa.view import project_view
from repro.afsa.kernel import materialize
from repro.afsa.serialize import kernel_from_wire, kernel_to_wire
from repro.workload.generator import (
    generate_choreography,
    generate_partner_pair,
    random_afsa,
    random_annotated_afsa,
)
from repro.bpel.compile import compile_process

SIZES = [8, 32, 128, 512]

#: The emptiness fixpoint scales further than the quadratic operators;
#: the extra size shows the near-linear SCC/worklist behavior.
EMPTINESS_SIZES = SIZES + [2048]


@pytest.mark.parametrize("size", SIZES)
def test_scaling_intersection(benchmark, size):
    """Intersection + annotated emptiness over automaton size."""
    left = random_afsa(seed=1, states=size, labels=8)
    right = random_afsa(seed=2, states=size, labels=8)
    benchmark.group = "intersection+emptiness"
    benchmark.extra_info["states"] = size

    def run():
        return is_empty(intersect(left, right))

    benchmark(run)


@pytest.mark.parametrize("size", EMPTINESS_SIZES)
def test_scaling_emptiness(benchmark, size):
    """The greatest-fixpoint good-state computation alone."""
    automaton = random_afsa(
        seed=3, states=size, labels=8, annotation_probability=0.5
    )
    kernel = kernel_of(automaton)
    benchmark.group = "emptiness-fixpoint"
    benchmark.extra_info["states"] = size

    # use_cache=False: measure the fixpoint, not the PR-2 memo hit.
    benchmark(lambda: k_good_states(kernel, use_cache=False))


@pytest.mark.parametrize("size", EMPTINESS_SIZES)
def test_scaling_emptiness_cyclic(benchmark, size):
    """The fixpoint on tracking-loop-style cyclic mandatory annotations
    (the shape that forces the SCC machinery, not just support counts)."""
    automaton = random_annotated_afsa(
        seed=3,
        states=size,
        labels=8,
        loops=max(1, size // 16),
        annotation_probability=0.5,
    )
    kernel = kernel_of(automaton)
    benchmark.group = "emptiness-fixpoint-cyclic"
    benchmark.extra_info["states"] = size

    # use_cache=False: measure the fixpoint, not the PR-2 memo hit.
    benchmark(lambda: k_good_states(kernel, use_cache=False))


@pytest.mark.parametrize("size", [8, 32, 128])
def test_scaling_difference(benchmark, size):
    """Difference: determinize + complete over Σ1 ∪ Σ2 + product."""
    left = random_afsa(seed=4, states=size, labels=6)
    right = random_afsa(seed=5, states=size, labels=6)
    benchmark.group = "difference"
    benchmark.extra_info["states"] = size
    benchmark(lambda: difference(left, right))


@pytest.mark.parametrize("size", SIZES)
def test_scaling_minimize(benchmark, size):
    """Moore refinement over automaton size."""
    automaton = random_afsa(seed=6, states=size, labels=8)
    benchmark.group = "minimize"
    benchmark.extra_info["states"] = size
    benchmark(lambda: minimize(automaton))


@pytest.mark.parametrize("steps", [2, 6, 12, 20])
def test_scaling_view_projection(benchmark, steps):
    """τ_P projection + minimization over process size."""
    initiator, _ = generate_partner_pair(
        seed=7, steps=steps, with_loop=True
    )
    public = compile_process(initiator).afsa
    benchmark.group = "view-projection"
    benchmark.extra_info["steps"] = steps
    benchmark(lambda: project_view(public, "R"))


@pytest.mark.parametrize("spokes", [16, 24, 31])
def test_scaling_view_projection_fresh(benchmark, spokes):
    """τ_P of a fanout-shaped hub onto every spoke, from a fresh public
    automaton each round.

    ``test_scaling_view_projection`` projects the same object every
    round and so times the view memo.  Here each round gets a new
    automaton over a new kernel (rebuilt from the wire form in the
    untimed setup), so nothing derived from the hub is cached: the row
    times relabeling, ε-elimination and minimization for every spoke,
    as the first ``/sweep`` over a newly registered hub pays them.
    """
    choreography = generate_choreography(seed=3, spokes=spokes, steps=4)
    public = compile_process(choreography.private("H")).afsa
    wire = kernel_to_wire(kernel_of(public))
    parties = [party for party in choreography.parties() if party != "H"]
    benchmark.group = "view-projection-fresh"
    benchmark.extra_info["spokes"] = spokes
    benchmark.extra_info["hub_states"] = len(public.states)

    def fresh_hub():
        return (materialize(kernel_from_wire(wire), name=public.name),), {}

    def project_every_spoke(hub):
        return [project_view(hub, party) for party in parties]

    views = benchmark.pedantic(
        project_every_spoke, setup=fresh_hub, rounds=15, warmup_rounds=1
    )
    assert len(views) == spokes

