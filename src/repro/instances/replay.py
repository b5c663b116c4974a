"""Kernel trace replay: executed logs walked through an aFSA.

A running instance is, operationally, the prefix of messages it has
already exchanged.  Replaying that prefix through an automaton yields
the set of states the instance may currently occupy (the automaton is
in general nondeterministic, so a prefix denotes a *set*); the residual
language from that set decides the instance's fate under the paper's
compliance criterion:

* the reached set intersects the annotated **good set**
  (:func:`~repro.afsa.kernel.k_good_states`) — the instance can still
  complete a conversation that satisfies every mandatory annotation;
* the reached set only intersects the classical **coreachable set** —
  a completion exists structurally but every path is blocked on a
  mandatory message the counterparty does not currently support;
* neither — the instance's log has diverged from the model, or it sits
  in a dead region.

Fleets share prefixes heavily (thousands of conversations driven
through the same protocol), so :class:`ReplayCache` memoizes reached
state sets per trace *prefix* in a trie keyed by interned label ids:
each distinct prefix is stepped through the kernel exactly once, and
every further instance that shares it replays in amortized O(1) per
event (one trie-node hop).  The cache is attached to the kernel like
every other derived fact, which makes it a per-(version, prefix) memo —
a new process version compiles to a new kernel and starts cold.

The trie is also the substrate of two PR-5 behaviors: **incremental
fleet maintenance** (an :meth:`~repro.instances.store.InstanceStore.
extend`-grown trace is a superstring of an already-replayed prefix, so
the :class:`~repro.instances.migrate.FleetClassifier` delta path pays
only the *new* events when it re-classifies the affected class), and
**persistent-worker replay** (shard workers memoize arena kernels by
content digest, and since the cache rides the kernel, their tries
survive across dispatches of a long-lived shard — chained migrations
against live versions reuse each version's trie for free).
"""

from __future__ import annotations

from repro.afsa.emptiness import (
    kernel_completion_bfs,
    kernel_unsupported_variables,
)
from repro.afsa.kernel import (
    Kernel,
    k_good_states,
    k_replay_step,
    k_start_closure,
)

#: Replay verdicts (shared with :mod:`repro.instances.migrate`).
MIGRATABLE = "migratable"
PENDING = "pending"
STRANDED = "stranded"


class _TrieNode:
    """One replayed prefix: its reached state set and its extensions."""

    __slots__ = ("states", "children")

    def __init__(self, states: frozenset):
        self.states = states
        self.children: dict = {}


class ReplayCache:
    """Memoized per-(version, trace-prefix) replay over one kernel.

    Attributes:
        events: total events replayed through :meth:`replay`.
        steps: kernel step computations actually performed — for a
            fleet sharing prefixes this is the number of *distinct*
            prefixes, not the number of events (the amortization the
            scaling bench measures).
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.root = _TrieNode(k_start_closure(kernel))
        self.events = 0
        self.steps = 0

    @classmethod
    def for_kernel(cls, kernel: Kernel) -> "ReplayCache":
        """Return the kernel's attached cache (building it once)."""
        cache = kernel._replay
        if cache is None:
            cache = cls(kernel)
            kernel._replay = cache
        return cache

    def replay(self, label_ids) -> frozenset:
        """Replay a full trace; return the reached state set.

        An empty frozenset means the trace diverged from the model (at
        some event no occupied state enabled the message).  Divergence
        is sticky — the empty set steps to itself — so shared divergent
        prefixes stay cache hits too.
        """
        kernel = self.kernel
        node = self.root
        for label_id in label_ids:
            self.events += 1
            child = node.children.get(label_id)
            if child is None:
                if node.states:
                    self.steps += 1
                    states = k_replay_step(kernel, node.states, label_id)
                else:
                    states = node.states  # divergence is sticky
                child = _TrieNode(states)
                node.children[label_id] = child
            node = child
        return node.states


def replay_trace(kernel: Kernel, label_ids, cache: ReplayCache | None = None) -> frozenset:
    """Replay *label_ids* through *kernel* via its attached cache."""
    if cache is None:
        cache = ReplayCache.for_kernel(kernel)
    return cache.replay(label_ids)


def classify_states(kernel: Kernel, states: frozenset) -> str:
    """The compliance verdict of an instance occupying *states*.

    ``migratable`` when the annotated residual language is non-empty,
    ``pending`` when only the un-annotated residual is (completion
    blocked on unsupported mandatory messages), ``stranded`` otherwise
    (including the empty set of a diverged trace).
    """
    if not states:
        return STRANDED
    if states & k_good_states(kernel):
        return MIGRATABLE
    if states & kernel.coreachable():
        return PENDING
    return STRANDED


def continuation_witness(kernel: Kernel, states: frozenset) -> list | None:
    """Shortest continuation completing an instance from *states*.

    Runs the shared canonical BFS
    (:func:`repro.afsa.emptiness.kernel_completion_bfs`) through good
    states only (the annotated residual), seeding the multi-source
    queue in state-repr order — so witnesses are identical however the
    fleet was batched *and* across worker processes that rebuilt the
    model from the wire format with a different state numbering.
    Returns the label list (possibly empty when a good final is already
    occupied), or ``None`` when the instance is not migratable.
    """
    good = k_good_states(kernel)
    names = kernel.names
    sources = sorted(
        states & good, key=lambda state: repr(names[state])
    )
    if not sources:
        return None
    word, _, final = kernel_completion_bfs(kernel, sources, good)
    if final is None:  # pragma: no cover - good states are live
        return None
    return word


def blocked_messages(kernel: Kernel, states: frozenset) -> list:
    """Unsupported mandatory messages pinning a *pending* instance.

    For every occupied non-good state with an unsatisfied annotation,
    collect the annotation variables that have no supporting
    transition into a good state — the same per-state diagnosis the
    consistency witness reports
    (:func:`repro.afsa.emptiness.kernel_unsupported_variables`), lifted
    to instances.
    """
    good = k_good_states(kernel)
    missing: set = set()
    for state in states - good:
        unsupported = kernel_unsupported_variables(kernel, state, good)
        if unsupported:
            missing.update(unsupported)
    return sorted(missing)
