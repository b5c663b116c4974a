"""Test-only eager reference pipeline (the hypothesis oracle).

The eager ``k_intersect`` + good-set pipeline is no longer invoked by
any production code path — verdicts come from the fused lazy engine
(:mod:`repro.afsa.lazy`) and witnesses from the streaming extractor
(:mod:`repro.afsa.witness`).  This module is its designated retirement
home: an independent, materialize-everything implementation of the
*same* canonical witness definition (documented in
:mod:`repro.afsa.witness`), kept exclusively for the property suite
and the benchmark baselines to diff the lazy results against.

Importing :func:`~repro.afsa.kernel.k_intersect` anywhere outside
``afsa/``, ``tests/`` or this module fails the CI grep lint; both
entry points below bump the ``eager_oracle`` counter in
:func:`repro.afsa.lazy.warm_stats`, and the sweep telemetry asserts
that counter stays zero on every non-test path.
"""

from __future__ import annotations

from repro.afsa import lazy as _lazy
from repro.afsa.emptiness import (
    EmptinessWitness,
    kernel_completion_bfs,
    kernel_unsupported_variables,
)
from repro.afsa.kernel import (
    Kernel,
    k_good_states,
    k_good_states_naive,
    k_intersect,
    k_remove_epsilon,
)
from repro.formula.evaluate import evaluate
from repro.messages.alphabet import INTERNER


def eager_pair_verdict(left: Kernel, right: Kernel) -> bool:
    """``L(left ∩ right) ≠ ∅`` via the materialized product.

    The reference semantics of ``product_verdict``: the worklist
    greatest fixpoint for negation-free annotations, the round-based
    :func:`~repro.afsa.kernel.k_good_states_naive` recursion when
    either operand carries negation (the lazy engine's documented
    dual-rail exactness).
    """
    _lazy.COUNTERS["eager_oracle"] += 1
    a = k_remove_epsilon(left)
    b = k_remove_epsilon(right)
    product = k_intersect(a, b)
    if a.ann_profile()[2] and b.ann_profile()[2]:
        return product.start in k_good_states(product)
    return product.start in k_good_states_naive(product)


def eager_pair_witness(left: Kernel, right: Kernel) -> EmptinessWitness:
    """The canonical witness recomputed from the materialized product.

    Byte-identical to :func:`repro.afsa.witness.lazy_pair_witness` by
    construction: same good-set semantics, same canonical BFS, and the
    same diagnosed-region blocked report (``_diagnosed_region`` below
    mirrors the lazy exploration's locally-dead pruning eagerly).
    """
    _lazy.COUNTERS["eager_oracle"] += 1
    a = k_remove_epsilon(left)
    b = k_remove_epsilon(right)
    product = k_intersect(a, b)
    positive = a.ann_profile()[2] and b.ann_profile()[2]
    if positive:
        region, dead = _diagnosed_region(product)
        good = _region_fixpoint(product, region, dead)
    else:
        region = set(range(product.n))
        good = k_good_states_naive(product)
    if product.start in good:
        word, path, _ = kernel_completion_bfs(
            product, [product.start], good
        )
        return EmptinessWitness(empty=False, word=word, path=path)
    names = product.names
    entries = []
    for state in region:
        if state in good:
            continue
        unsupported = kernel_unsupported_variables(product, state, good)
        if unsupported is None:
            continue
        entries.append((repr(names[state]), names[state], unsupported))
    entries.sort(key=lambda entry: entry[0])
    return EmptinessWitness(
        empty=True,
        blocked_states=[name for _, name, _ in entries],
        missing_variables={
            name: unsupported for _, name, unsupported in entries
        },
    )


def _diagnosed_region(product: Kernel) -> tuple[set, set]:
    """The diagnosed region ``D`` of a negation-free product: closure
    of the start state through locally-satisfiable states, stopping at
    (but including) each locally-dead boundary state — exactly the
    pairs the lazy exploration discovers, recomputed from the product.
    A state is locally dead when its annotation fails even with every
    outgoing label assumed supported."""
    text_of = INTERNER.text
    ann = product.ann
    adj = product.adj
    dead: set = set()
    region = {product.start}
    stack = [product.start]
    while stack:
        state = stack.pop()
        formula = ann.get(state)
        if formula is not None and not evaluate(
            formula, {text_of(lid) for lid in adj[state]}
        ):
            dead.add(state)
            continue
        for targets in adj[state].values():
            for target in targets:
                if target not in region:
                    region.add(target)
                    stack.append(target)
    return region, dead


def _region_fixpoint(product: Kernel, region: set, dead: set) -> set:
    """The good set over the diagnosed region minus its dead boundary
    (reindexed sub-kernel, worklist fixpoint, mapped back)."""
    alive = sorted(region - dead)
    if not alive:
        return set()
    remap = {state: i for i, state in enumerate(alive)}
    adj = []
    for state in alive:
        row: dict = {}
        for lid, targets in product.adj[state].items():
            kept = tuple(remap[t] for t in targets if t in remap)
            if kept:
                row[lid] = kept
        adj.append(row)
    sub = Kernel(
        n=len(alive),
        start=remap.get(product.start, 0),
        names=[product.names[state] for state in alive],
        finals=frozenset(
            remap[state] for state in product.finals if state in remap
        ),
        ann={
            remap[state]: formula
            for state, formula in product.ann.items()
            if state in remap
        },
        adj=adj,
        eps=[()] * len(alive),
        alphabet_ids=frozenset(),
    )
    return {alive[i] for i in k_good_states(sub)}
