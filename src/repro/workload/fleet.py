"""Fleet generation: message logs for running-instance workloads.

The migration engine (:mod:`repro.instances.migrate`) needs fleets that
look like production traffic: thousands of conversations driven through
the same protocol, most of them healthy, some cut off mid-flight, some
corrupted.  This module samples such fleets from a public process:

* **compliant** logs — random walks through the annotated good set that
  end with a completed conversation (the word is accepted under the
  paper's annotated-emptiness semantics);
* **truncated** logs — proper prefixes of compliant logs: instances
  photographed mid-conversation (the common case when a partner
  evolves);
* **divergent** logs — a compliant prefix followed by a message the
  model does not enable at that point: corrupted or foreign traffic
  that must classify as stranded.

Variants are drawn from a bounded pool (``distinct`` bases, a few cut
points and corruptions per base), so a fleet of 10 000 instances shares
a few dozen distinct traces — exactly the prefix-sharing profile the
memoized replay cache exploits and the scaling bench measures.  All
generation is seed-deterministic.
"""

from __future__ import annotations

import random

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import (
    Kernel,
    k_good_states,
    k_replay_step,
    k_start_closure,
    kernel_of,
)
from repro.instances.replay import continuation_witness
from repro.instances.store import InstanceStore
from repro.messages.alphabet import INTERNER

#: Mix categories, in the order of the ``mix`` weights.
COMPLIANT = "compliant"
TRUNCATED = "truncated"
DIVERGENT = "divergent"

#: Variants derived per base trace (cut prefixes / corruptions).
_CUTS_PER_BASE = 3
_CORRUPTIONS_PER_BASE = 2


def _good_enabled(kernel: Kernel, states, good) -> list:
    """Label ids enabled from *states* with a good target (sorted by
    canonical text, so the walk is seed-deterministic)."""
    enabled = {
        lid
        for state in states
        for lid, targets in kernel.adj[state].items()
        if any(target in good for target in targets)
    }
    return sorted(enabled, key=INTERNER.text)


def _sample_compliant_ids(
    kernel: Kernel, rng: random.Random, max_steps: int
) -> tuple:
    """One annotated-accepted word as label ids.

    The random walk stays inside the good set the whole way (annotated
    acceptance is membership of a run through good states only) and is
    completed via the shortest continuation when the budget runs out.
    An automaton with an empty annotated language has no compliant log
    at all; the empty trace is returned for it.
    """
    good = k_good_states(kernel)
    finals = kernel.finals
    states = frozenset(
        state for state in k_start_closure(kernel) if state in good
    )
    trace: list = []
    if not states:
        return ()
    for _ in range(max_steps):
        can_finish = any(state in finals for state in states)
        moves = _good_enabled(kernel, states, good)
        if can_finish and (not moves or rng.random() < 0.4):
            return tuple(trace)
        if not moves:
            return tuple(trace)
        label_id = rng.choice(moves)
        trace.append(label_id)
        states = frozenset(
            state
            for state in k_replay_step(kernel, states, label_id)
            if state in good
        )
    completion = continuation_witness(kernel, states)
    if completion:
        intern = INTERNER.intern
        trace.extend(intern(label) for label in completion)
    return tuple(trace)


def _replay_ids(kernel: Kernel, label_ids) -> frozenset:
    states = k_start_closure(kernel)
    for label_id in label_ids:
        states = k_replay_step(kernel, states, label_id)
        if not states:
            break
    return states


def _corrupt(kernel: Kernel, base: tuple, rng: random.Random, salt: int) -> tuple:
    """A divergent variant: a prefix of *base* plus a message the model
    does not enable there (falling back to a label foreign to Σ)."""
    cut = rng.randrange(len(base) + 1) if base else 0
    prefix = list(base[:cut])
    states = _replay_ids(kernel, prefix)
    enabled = {lid for state in states for lid in kernel.adj[state]}
    # By text, not by id: ids follow the process's first-intern order.
    candidates = sorted(kernel.alphabet_ids - enabled, key=INTERNER.text)
    if candidates:
        prefix.append(rng.choice(candidates))
    else:
        prefix.append(INTERNER.intern(f"X#Z#divergent{salt}"))
    return tuple(prefix)


def sample_compliant_trace(
    automaton: AFSA, seed: int = 0, max_steps: int = 40
) -> list[str]:
    """One accepted message log of *automaton*, as label texts."""
    rng = random.Random(seed)
    text_of = INTERNER.text
    return [
        text_of(label_id)
        for label_id in _sample_compliant_ids(
            kernel_of(automaton), rng, max_steps
        )
    ]


def generate_fleet(
    automaton: AFSA,
    instances: int,
    seed: int = 0,
    version: str = "v1",
    distinct: int = 16,
    mix: tuple = (0.7, 0.2, 0.1),
    max_steps: int = 40,
    store: InstanceStore | None = None,
) -> InstanceStore:
    """Populate a store with *instances* running instances of
    *automaton*.

    Args:
        automaton: the public process the fleet executes.
        instances: fleet size.
        seed: RNG seed (fleets are deterministic per seed).
        version: version id stamped on every record.
        distinct: number of base compliant traces; the distinct-trace
            pool is bounded by ``distinct * (1 + cuts + corruptions)``
            regardless of fleet size.
        mix: relative weights of (compliant, truncated, divergent)
            instances.
        max_steps: random-walk budget per base trace.
        store: append to this store instead of creating a new one.

    Returns:
        The populated :class:`~repro.instances.store.InstanceStore`.
    """
    if store is None:
        store = InstanceStore()
    rng = random.Random(seed)
    kernel = kernel_of(automaton)

    bases = [
        _sample_compliant_ids(kernel, rng, max_steps)
        for _ in range(max(1, distinct))
    ]
    pools: dict = {COMPLIANT: list(bases), TRUNCATED: [], DIVERGENT: []}
    for base_index, base in enumerate(bases):
        if base:
            for _ in range(_CUTS_PER_BASE):
                pools[TRUNCATED].append(base[: rng.randrange(len(base))])
        else:  # empty accepted word: the only prefix is itself
            pools[TRUNCATED].append(base)
        for salt in range(_CORRUPTIONS_PER_BASE):
            pools[DIVERGENT].append(
                _corrupt(kernel, base, rng, base_index * 7 + salt)
            )

    categories = (COMPLIANT, TRUNCATED, DIVERGENT)
    weights = [max(0.0, weight) for weight in mix]
    if len(weights) != 3 or not sum(weights):
        raise ValueError("mix must be three non-negative weights")
    # Intern each pool trace once; every record shares its tuple.
    for category, pool in pools.items():
        pools[category] = [store.intern_trace(trace) for trace in pool]
    for _ in range(instances):
        category = rng.choices(categories, weights=weights)[0]
        store.add_interned(version, rng.choice(pools[category]))
    return store
