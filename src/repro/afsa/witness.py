"""Streaming witness extraction over the lazy pair exploration.

:func:`lazy_pair_witness` produces the
:class:`~repro.afsa.emptiness.EmptinessWitness` of an operand pair
straight from the retained :class:`~repro.afsa.lazy._PairExploration`
— the product is never materialized, completing the lazy engine's
takeover of the unhappy path (diagnosis used to be the one consumer
still paying the eager ``k_intersect`` + ``k_good_states`` cost).

**Canonical witness form** — defined here, in one place; the eager
reference (:mod:`repro.afsa.oracle`) recomputes it from a materialized
product, and the property suite asserts byte-identity:

* **Non-empty pair**: the shortest accepted word of the product found
  by a BFS from the start pair through *exactly good* pair states,
  expanding each state's edges sorted by ``(label text, repr(target
  name))`` — the very ordering of
  :func:`~repro.afsa.emptiness.kernel_completion_bfs`, with product
  names being ``(left name, right name)`` tuples.  The good set is the
  paper's greatest fixpoint for negation-free annotations and the
  round-based :func:`~repro.afsa.kernel.k_good_states_naive` semantics
  when either operand carries negation (matching
  ``product_verdict``'s documented dual-rail exactness).  This is
  byte-identical to what the retired eager path produced.
* **Empty pair**: a blocked-state report over the **diagnosed region**
  ``D`` — the closure of the start pair through locally-satisfiable
  pairs, stopping at (but *including*) each locally-dead boundary pair
  (for negated annotations no pair is locally decidable, so ``D`` is
  the full reachable product).  Good states are the fixpoint over
  ``D`` minus its dead boundary; each non-good pair of ``D`` whose
  conjoined annotation (``conjoin`` of the operand annotations,
  exactly as the eager product would carry) is present, not ``TRUE``
  and unsatisfied under the supported-label assignment is reported
  with its unsupported variables, sorted by ``repr`` of the pair name.
  This *migrates* the old eager canonical form, which diagnosed the
  whole reachable product: states beyond a locally-dead boundary are
  unreachable through any satisfiable run, so they explain nothing —
  the paper's own Fig. 5 diagnosis ("does not contain the mandatory
  transition labeled B#A#msg1") is precisely the boundary pair.
  Restricting to ``D`` is what keeps diagnosis as cheap as the
  verdict; the reference oracle implements the same definition
  eagerly so the two can never drift apart.

**Early-exit proof obligation** — a non-empty witness may be returned
*before* exhaustion only when it provably equals the full-product BFS
result: (1) the optimistic good set restricted to explored states must
equal the pessimistic one (then the explored part of the true good set
is known exactly), and (2) a second BFS through the optimistic good
set — where every unexplored frontier pair counts as an accepting
stand-in — must pop the same final with the same word and path before
popping any frontier pair.  Deleting the frontier entries that are not
truly good from that BFS queue does not reorder the remaining pops,
and no state beyond the frontier can be discovered before the final
(its discoverer would be a frontier pop), so the full-product BFS
provably traverses the identical explored sequence.  If either check
fails the frontier is expanded geometrically and the extraction
retried; exhaustion is the exact fallback.
"""

from __future__ import annotations

from collections import deque

from repro.afsa import lazy as _lazy
from repro.afsa.emptiness import EmptinessWitness
from repro.afsa.kernel import Kernel, k_good_states, k_remove_epsilon
from repro.formula.ast import TRUE
from repro.formula.evaluate import evaluate
from repro.formula.simplify import conjoin
from repro.formula.transform import variables as formula_variables
from repro.messages.alphabet import INTERNER


def lazy_pair_witness(left: Kernel, right: Kernel) -> EmptinessWitness:
    """The canonical :class:`EmptinessWitness` of ``left ∩ right``,
    extracted from the lazily explored pair prefix.

    Reuses the exploration the verdict retained (deciding a fresh one
    when the pair aged out of the LRU) and memoizes the witness on it
    — repeated diagnosis of the same pair is ~O(1).  Seeded
    explorations never inherit a witness
    (:meth:`~repro.afsa.lazy._PairExploration.seed_from` invalidates
    it), so a post-evolution pair is always re-extracted.
    """
    a = k_remove_epsilon(left)
    b = k_remove_epsilon(right)
    exploration = _lazy._live_exploration(a, b)
    witness = exploration.witness
    if witness is not None:
        return witness
    _lazy.COUNTERS["witness_lazy"] += 1
    if not exploration.positive:
        witness = _dual_witness(exploration)
    else:
        witness = _positive_witness(exploration)
    exploration.witness = witness
    return witness


def _positive_witness(exploration) -> EmptinessWitness:
    """Streaming extraction for negation-free operands: interleave the
    pessimistic/optimistic good-set bounds with on-demand frontier
    expansion until the witness is proven (see the module docstring's
    early-exit proof obligation)."""
    while True:
        n = exploration.cursor
        good_lo = (
            k_good_states(exploration._subgraph_kernel()) if n else set()
        )
        if 0 in good_lo:
            word, path, _ = _pair_bfs(exploration, good_lo)
            if exploration.exhausted:
                return EmptinessWitness(empty=False, word=word, path=path)
            good_hi = k_good_states(exploration._optimistic_kernel())
            if {s for s in good_hi if s < n} == good_lo:
                word_hi, path_hi, final_hi = _pair_bfs(
                    exploration, good_hi
                )
                if (
                    final_hi is not None
                    and word_hi == word
                    and path_hi == path
                ):
                    return EmptinessWitness(
                        empty=False, word=word, path=path
                    )
            _lazy.COUNTERS["witness_expansions"] += 1
            exploration.expand(max(64, 2 * exploration.cursor))
            continue
        if exploration.exhausted:
            return _blocked_report(exploration, good_lo)
        _lazy.COUNTERS["witness_expansions"] += 1
        if 0 not in k_good_states(exploration._optimistic_kernel()):
            # The verdict is already certifiably empty: the blocked
            # report spans the whole diagnosed region, so run the
            # (pruning-confined) exploration dry in one go.
            exploration.expand(float("inf"))
        else:
            exploration.expand(max(64, 2 * exploration.cursor))


def _dual_witness(exploration) -> EmptinessWitness:
    """Extraction for negated annotations: the three-valued bounds
    carry no closed certificate region, so the exploration (which
    never prunes) is run dry and the exact two-valued fixpoint — the
    documented :func:`~repro.afsa.kernel.k_good_states_naive`
    semantics — drives both witness shapes."""
    if not exploration.exhausted:
        _lazy.COUNTERS["witness_expansions"] += 1
        exploration.expand(float("inf"))
    good, _ = exploration.dual_rail()
    if 0 in good:
        word, path, _ = _pair_bfs(exploration, good)
        return EmptinessWitness(empty=False, word=word, path=path)
    return _blocked_report(exploration, good)


def _pair_bfs(exploration, good) -> tuple:
    """Canonical shortest-witness BFS over the discovered pair graph.

    Replicates :func:`~repro.afsa.emptiness.kernel_completion_bfs`
    exactly — FIFO queue seeded with the start pair, edges expanded
    sorted by ``(label text, repr(target name))`` — with pair names
    assembled on the fly from the operand name arrays.  Returns
    ``(word, path, final)``; ``final`` is None when an unexplored
    frontier pair is popped before any final (the shortest completion
    may leave the explored region — expand and retry).
    """
    nb = exploration.nb
    pairs = exploration.pairs
    rows = exploration.rows
    finals = exploration.finals
    n = exploration.cursor
    a_names = exploration.a.names
    b_names = exploration.b.names
    label_of = INTERNER.label
    text_of = INTERNER.text

    def name_of(idx: int) -> tuple:
        qa, qb = divmod(pairs[idx], nb)
        return (a_names[qa], b_names[qb])

    parents: dict = {0: None}
    queue: deque = deque([0])
    final = None
    while queue:
        state = queue.popleft()
        if state >= n:
            return [], [], None
        if state in finals:
            final = state
            break
        edges = [
            (text_of(lid), repr(name_of(target)), label_of(lid), target)
            for lid, targets in rows[state].items()
            for target in targets
        ]
        edges.sort(key=lambda item: (item[0], item[1]))
        for _, _, label, target in edges:
            if target in good and target not in parents:
                parents[target] = (state, label)
                queue.append(target)

    word: list = []
    path: list = []
    if final is not None:
        cursor = final
        path.append(name_of(final))
        while parents[cursor] is not None:
            previous, label = parents[cursor]
            word.append(label)
            path.append(name_of(previous))
            cursor = previous
        word.reverse()
        path.reverse()
    return word, path, final


def _conjoined(formula_a, formula_b):
    """The pair annotation exactly as the eager product would carry it
    (``conjoin`` may simplify variables away — the raw ``And`` the
    verdict path evaluates is equivalent but not name-identical)."""
    if formula_a is None and formula_b is None:
        return None
    return conjoin(
        formula_a if formula_a is not None else TRUE,
        formula_b if formula_b is not None else TRUE,
    )


def _blocked_report(exploration, good) -> EmptinessWitness:
    """The empty-pair diagnosis over the exhausted diagnosed region:
    every non-good pair (explored, plus the locally-dead boundary the
    positive exploration pruned at discovery) with an unsatisfied
    annotation, sorted canonically by ``repr`` of the pair name.

    The region is recomputed by a forward BFS from the start pair
    rather than read off the exploration's discovery index: a
    warm-*seeded* exploration may hold copied pairs that are
    unreachable in the post-evolution product (the translated prefix
    is a superset of the new reachable region) and its copied rows
    were installed without discovering their pruned successors — both
    would skew the report, which must be byte-identical to a cold
    extraction.
    """
    nb = exploration.nb
    pairs = exploration.pairs
    index = exploration.index
    rows = exploration.rows
    a = exploration.a
    b = exploration.b
    a_names, b_names = a.names, b.names
    a_ann, b_ann = a.ann, b.ann
    text_of = INTERNER.text

    if exploration.start < 0:
        # The start pair itself is locally dead: the diagnosed region
        # is exactly that boundary pair.
        reachable: list = []
        boundary = [a.start * nb + b.start]
    else:
        seen = {0}
        stack = [0]
        boundary_seen: set = set()
        boundary = []
        amask, bmask = exploration.amask, exploration.bmask
        a_adj, b_adj = a.adj, b.adj
        while stack:
            state = stack.pop()
            for targets in rows[state].values():
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
            if exploration.positive:
                # Re-derive the locally-dead boundary from the operand
                # adjacency: pruned successors are absent from the row
                # buckets (and, on seeded explorations, possibly from
                # the discovery index too).
                qa, qb = divmod(pairs[state], nb)
                mask = amask[qa] & bmask[qb]
                row_a, row_b = a_adj[qa], b_adj[qb]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    lid = low.bit_length() - 1
                    for ta in row_a[lid]:
                        base = ta * nb
                        for tb in row_b[lid]:
                            tpid = base + tb
                            if tpid in boundary_seen:
                                continue
                            tidx = index.get(tpid)
                            if tidx is None or tidx < 0:
                                boundary_seen.add(tpid)
                                boundary.append(tpid)
        reachable = sorted(seen)

    entries = []
    for idx in reachable:
        if idx in good:
            continue
        qa, qb = divmod(pairs[idx], nb)
        formula = _conjoined(a_ann.get(qa), b_ann.get(qb))
        if formula is None or formula == TRUE:
            continue
        supported = {
            text_of(lid)
            for lid, targets in rows[idx].items()
            if any(target in good for target in targets)
        }
        if evaluate(formula, supported):
            continue
        name = (a_names[qa], b_names[qb])
        missing = sorted(
            variable
            for variable in formula_variables(formula)
            if variable not in supported
        )
        entries.append((repr(name), name, missing))

    # Boundary pairs were never expanded; their supported labels come
    # straight from the operand adjacency (a successor outside the
    # diagnosed region is never good — a seeded exploration may still
    # hold good pairs the evolved product no longer reaches).
    region_good = good.intersection(reachable)
    amask, bmask = exploration.amask, exploration.bmask
    a_adj, b_adj = a.adj, b.adj
    for pid in boundary:
        qa, qb = divmod(pid, nb)
        formula = _conjoined(a_ann.get(qa), b_ann.get(qb))
        if formula is None or formula == TRUE:
            continue
        supported = set()
        mask = amask[qa] & bmask[qb]
        row_a, row_b = a_adj[qa], b_adj[qb]
        while mask:
            low = mask & -mask
            mask ^= low
            lid = low.bit_length() - 1
            if any(
                index.get(ta * nb + tb, -1) in region_good
                for ta in row_a[lid]
                for tb in row_b[lid]
            ):
                supported.add(text_of(lid))
        if evaluate(formula, supported):  # pragma: no cover - dead
            continue
        name = (a_names[qa], b_names[qb])
        missing = sorted(
            variable
            for variable in formula_variables(formula)
            if variable not in supported
        )
        entries.append((repr(name), name, missing))

    entries.sort(key=lambda entry: entry[0])
    return EmptinessWitness(
        empty=True,
        blocked_states=[name for _, name, _ in entries],
        missing_variables={
            name: missing for _, name, missing in entries
        },
    )
