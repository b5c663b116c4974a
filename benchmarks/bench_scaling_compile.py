"""Scaling benchmark: BPEL → aFSA compilation over process size.

Sweeps the prologue length of generated conversations; the compiler
cost covers traversal, minimization, and mapping-table composition —
the complete Sect. 3.3 pipeline a partner runs on every private-process
change (Fig. 4 step 1).
"""

import pytest

from repro.bpel.compile import compile_process
from repro.workload.generator import generate_partner_pair

STEPS = [2, 6, 12, 24, 48]


@pytest.mark.parametrize("steps", STEPS)
def test_scaling_compile(benchmark, steps):
    initiator, _ = generate_partner_pair(
        seed=11, steps=steps, with_loop=True
    )
    benchmark.group = "bpel-compile"
    benchmark.extra_info["steps"] = steps
    compiled = benchmark(lambda: compile_process(initiator))
    # Sanity: mapping covers every public state.
    assert set(compiled.mapping.states()) >= set(
        compiled.afsa.states
    ) - {state for state in compiled.afsa.states
         if not compiled.mapping.blocks_for_state(state)}


@pytest.mark.parametrize("steps", STEPS)
def test_scaling_compile_fresh(benchmark, steps):
    """Compile a fresh clone of the model each round.

    The compile memo is keyed by model identity, so the rows above time
    the memo hit after their first round.  Here the untimed setup hands
    each round a new ``ProcessModel.clone()``: the row times the
    traversal, minimization, mapping re-keying and the public
    process's materialization.
    """
    initiator, _ = generate_partner_pair(
        seed=11, steps=steps, with_loop=True
    )
    benchmark.group = "bpel-compile-fresh"
    benchmark.extra_info["steps"] = steps
    compiled = benchmark.pedantic(
        compile_process,
        setup=lambda: ((initiator.clone(),), {}),
        rounds=30,
        warmup_rounds=1,
    )
    benchmark.extra_info["public_states"] = len(compiled.afsa.states)


@pytest.mark.parametrize("branches", [2, 3, 4, 5])
def test_scaling_compile_flow_width(benchmark, branches):
    """Interleaving (flow) cost: the shuffle product grows with the
    product of branch sizes — the one exponential corner of the
    compiler (the paper's processes use no flow)."""
    from repro.bpel.model import Flow, Invoke, ProcessModel, Sequence

    flow = Flow(
        name="par",
        activities=[
            Sequence(
                name=f"lane {index}",
                activities=[
                    Invoke(partner="Q", operation=f"a{index}"),
                    Invoke(partner="Q", operation=f"b{index}"),
                ],
            )
            for index in range(branches)
        ],
    )
    process = ProcessModel(
        name=f"flow-{branches}", party="P", activity=flow
    )
    benchmark.group = "bpel-compile-flow"
    benchmark.extra_info["lanes"] = branches
    compiled = benchmark(lambda: compile_process(process))
    benchmark.extra_info["public_states"] = len(compiled.afsa.states)


@pytest.mark.parametrize("branches", [2, 4, 8])
def test_scaling_compile_choice_width(benchmark, branches):
    """Compilation cost over choice width (annotation size grows)."""
    from repro.bpel.model import (
        Case,
        Invoke,
        ProcessModel,
        Sequence,
        Switch,
    )

    cases = [
        Case(
            condition=f"c{index}",
            activity=Sequence(
                name=f"branch {index}",
                activities=[
                    Invoke(partner="Q", operation=f"op{index}"),
                    Invoke(partner="Q", operation=f"op{index}_b"),
                ],
            ),
        )
        for index in range(branches)
    ]
    process = ProcessModel(
        name=f"wide-{branches}",
        party="P",
        activity=Switch(name="wide", cases=cases[:-1],
                        otherwise=cases[-1].activity),
    )
    benchmark.group = "bpel-compile-width"
    benchmark.extra_info["branches"] = branches
    compiled = benchmark(lambda: compile_process(process))
    assert len(compiled.afsa.annotations) == 1
