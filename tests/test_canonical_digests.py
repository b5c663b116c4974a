"""Contract 8 for compiled public processes and their views.

A kernel's content digest addresses it in the arena, the rendezvous
router and the worker caches, so it must be a function of the process
alone.  Compiled public processes are materialized from the minimized
kernel, whose rows come in label-text order; before that they were
rebuilt through the validating constructor and their kernels took the
hash-seed-dependent order of the transition set (the compiled
``buyer_private()`` got one of two digests).  This compiles the three
paper processes and a generated hub in fresh interpreters under several
fixed ``PYTHONHASHSEED`` values and compares the public and view
digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
from repro.afsa.kernel import kernel_of
from repro.afsa.serialize import kernel_digest
from repro.afsa.view import project_view
from repro.bpel.compile import compile_process
from repro.scenario.procurement import (
    accounting_private, buyer_private, logistics_private,
)
from repro.workload.generator import generate_choreography

processes = [buyer_private(), accounting_private(), logistics_private()]
processes.append(
    generate_choreography(seed=3, spokes=6, steps=4).private("H")
)
digests = {}
for process in processes:
    public = compile_process(process).afsa
    digests[process.name] = kernel_digest(kernel_of(public))
    for partner in sorted(public.alphabet.partners() - {process.party}):
        view = project_view(public, partner)
        digests[f"{process.name}/{partner}"] = kernel_digest(kernel_of(view))
print(json.dumps(digests, sort_keys=True))
"""

SEEDS = ("1", "2", "3", "4", "5")


def _digests(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(output)


def test_public_and_view_digests_do_not_depend_on_the_hash_seed():
    runs = {seed: _digests(seed) for seed in SEEDS}
    reference = runs[SEEDS[0]]
    assert len(reference) > 4
    for seed, digests in runs.items():
        assert digests == reference, seed
