"""Fused on-the-fly annotated product emptiness (lazy pair exploration).

Every consistency check of the framework (Sect. 3.2: ``L(A ∩ B) ≠ ∅``)
used to run in two eager stages: :func:`~repro.afsa.kernel.k_intersect`
materialized the whole reachable pair graph — names, conjoined
annotations, adjacency — and only then did
:func:`~repro.afsa.kernel.k_good_states` compute the greatest-fixpoint
good set to ask one single-bit question: *is the start pair good?*  At
size 512 the product has ~100k pair states and the verdict consumes
>99% of its construction for nothing.

This module fuses the two stages into one lazy engine that explores
pair states on the fly and decides the start pair's verdict as early as
the exploration permits:

* **bitset successors** — shared labels of a pair are one mask test
  (:meth:`~repro.afsa.kernel.Kernel.label_masks`); pair states are
  packed ints ``qa * n_b + qb``; no name tuples, no
  :func:`~repro.formula.simplify.conjoin` — a pair's annotation is the
  *raw* conjunction of the operand annotations, evaluated separately;
* **dead-pair pruning** — a pair whose (conjunctive) annotation needs a
  variable outside the pair's shared label bitset can never become good
  under *any* assignment; it is pruned at discovery and never expanded
  (the paper's Fig. 5 inconsistency — a mandatory message the partner
  does not support at all — is decided in O(1) this way);
* **interleaved verdict bounds** — at geometric exploration checkpoints
  the engine computes two sound bounds of the good set with the PR-2
  incremental fixpoint run on the *explored subgraph only*:

  - *pessimistic* (frontier states assumed dead): every edge of the
    explored subgraph exists in the full product, so its good set is a
    post-fixpoint of the full operator and therefore a **subset** of
    the true good set — ``start ∈ good`` here certifies **non-empty**;
  - *optimistic* (frontier states assumed good finals): for
    negation-free annotations (monotone operator) the true good set
    restricted to explored states is contained in this one — ``start ∉
    good`` here certifies **empty**;

  undecided means explore on; when the frontier empties the two bounds
  coincide and the verdict is exact.  Past a threshold the engine stops
  checkpointing and finishes with one exact fixpoint — the worst case
  is bounded by "exploration + one fixpoint", still strictly cheaper
  than the eager pipeline, which additionally pays name
  materialization and per-pair annotation simplification.

The soundness of the monotone bounds (and of the pruning) relies on
negation-free formulas — the only kind the paper's framework
generates.  **Negation dual-rail rule** (replacing the eager fallback
this module used to take): when any operand annotation contains
negation, pruning is disabled entirely — a locally-dead pair still
shapes its neighbours' early fixpoint rounds once ``NOT`` is in play —
and the verdict bounds come from :meth:`_PairExploration.dual_rail`, a
three-valued (Kleene) round iteration that tracks per discovered pair
whether it is *definitely*, *possibly*, or *definitely not* in the
current fixpoint round, with every unexplored frontier pair held at
*unknown*.  A stabilized iteration certifies the verdict soundly; at
exhaustion the iteration degenerates to two values and equals
:func:`~repro.afsa.kernel.k_good_states_naive` on the full reachable
product round for round — which is therefore the *documented exact
semantics* of ``product_verdict`` for negated annotations.  The eager
``k_intersect`` pipeline survives only as the test-only hypothesis
oracle (:mod:`repro.afsa.oracle`); no non-test code path invokes it.

**Streaming-witness rule** (replacing the old fallback-to-
materialization rule): callers that need a witness — the canonical
shortest conversation, or the blocked-state diagnosis of an
inconsistent pair — extract it from the retained exploration via
:func:`repro.afsa.witness.lazy_pair_witness`, which BFSes over the
explored pair prefix and expands the frontier on demand only when the
shortest witness provably may leave it.  The canonical witness form is
defined (in one place) in :mod:`repro.afsa.witness`; no consumer
materializes the product for diagnosis any more.

:class:`PairVerdictCache` memoizes verdicts (and lazily-extracted
witnesses) across calls, keyed on operand *kernel identity*: sweep
grids, propagation step 5, engine auto-adapt re-checks and migration
residual checks repeatedly test the same operand pair, and a kernel is
one immutable compiled artifact, so identity is a sound key.
Entries hold their operands *weakly* and die with either of them:
replacing a private process compiles a new public aFSA, which carries a
*new* kernel, and once nothing owns the old kernel (or a transient
propagation proposal, or an auto-adapt view) its entries go with it.
The cache therefore never pins a kernel, and its occupancy follows what
the caller keeps resident rather than how many versions it has seen.
A dead operand's entry is dropped before the cache's next operation,
and a hit must match the operand objects, so a recycled ``id()`` never
meets a stale entry.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

from repro.afsa.kernel import (
    Kernel,
    k_good_states,
    k_remove_epsilon,
)
from repro.formula.ast import And, Formula
from repro.formula.evaluate import evaluate, evaluate3
from repro.formula.transform import variables as formula_variables
from repro.messages.alphabet import INTERNER

#: Past this many explored pairs the engine stops checkpointing and
#: runs to exhaustion + one exact fixpoint (bounds the overhead of an
#: undecidable-early product to ~one fixpoint total).  Both checkpoint
#: schedules below are capped by it.
_CHECKPOINT_LIMIT = 16384

#: Explored-size checkpoints at which the cheap non-emptiness
#: certificate (pessimistic bound) is attempted.
_PESSIMISTIC_CHECKPOINTS = tuple(
    size
    for size in (64, 256, 1024, 4096, 16384)
    if size <= _CHECKPOINT_LIMIT
)

#: Checkpoints at which the emptiness certificate (optimistic bound) is
#: attempted — sparser, because it pays off less often and its fixpoint
#: spans explored *and* frontier states.
_OPTIMISTIC_CHECKPOINTS = tuple(
    size for size in _PESSIMISTIC_CHECKPOINTS if size >= 256
)


class _PairExploration:
    """Incremental BFS over the product pair graph of two ε-free
    kernels, with dead-pair pruning at discovery.

    Discovered pairs get dense indices in discovery order and are
    expanded strictly in index order, so at any moment the *explored*
    states are exactly the prefix ``[0, cursor)`` and the *frontier*
    is ``[cursor, len(pairs))``.
    """

    __slots__ = (
        "a",
        "b",
        "nb",
        "a_adj",
        "b_adj",
        "amask",
        "bmask",
        "a_finals",
        "b_finals",
        "a_conj",
        "b_conj",
        "a_complex",
        "b_complex",
        "a_ann",
        "b_ann",
        "pairs",
        "rows",
        "anns",
        "finals",
        "index",
        "cursor",
        "start",
        "explored_finals",
        "explored_annotated",
        "explored_deadends",
        "certificate",
        "positive",
        "ann_vars",
        "witness",
    )

    def __init__(self, a: Kernel, b: Kernel):
        self.a = a
        self.b = b
        self.nb = b.n
        self.a_adj = a.adj
        self.b_adj = b.adj
        self.amask = a.label_masks()
        self.bmask = b.label_masks()
        self.a_finals = a.finals
        self.b_finals = b.finals
        self.a_conj, self.a_complex, a_positive = a.ann_profile()
        self.b_conj, self.b_complex, b_positive = b.ann_profile()
        #: Negation-free operands: pruning and the monotone bounds are
        #: sound.  With negation anywhere, pruning is fully disabled
        #: (see the module docstring's dual-rail rule) and verdicts
        #: come from :meth:`dual_rail`.
        self.positive = a_positive and b_positive
        self.a_ann = a.ann
        self.b_ann = b.ann

        self.pairs: list = []  # packed pair id per dense index
        self.rows: list = []  # successor row per index (None = frontier)
        self.anns: dict = {}  # dense index -> raw combined Formula
        self.finals: set = set()  # dense indices that are final pairs
        self.index: dict = {}  # packed pair id -> dense index | -1 dead
        self.cursor = 0
        self.explored_finals = 0
        self.explored_annotated = 0
        self.explored_deadends = 0
        #: Memo of :meth:`certificate_region` — None = not computed
        #: yet, False = computed and absent, list = the region.
        self.certificate: list | bool | None = None
        #: Per annotated index: interned ``((name, lid), …)`` variable
        #: tuples for the dual-rail annotation evaluation (lazy memo).
        self.ann_vars: dict = {}
        #: Memoized :class:`~repro.afsa.emptiness.EmptinessWitness` of
        #: :func:`repro.afsa.witness.lazy_pair_witness`.  Deliberately
        #: *never* inherited by :meth:`seed_from`: a pre-evolution
        #: witness cannot be proven canonical for the new product
        #: without re-extraction, so seeded explorations start with no
        #: witness and only the certificate region — the witness's
        #: support — is translated.
        self.witness = None
        self.start = self._discover(a.start * self.nb + b.start)

    # -- discovery ---------------------------------------------------------

    def _locally_dead(self, qa: int, qb: int, shared: int) -> bool:
        """True when the pair's annotation is unsatisfiable even under
        the most optimistic assignment (every shared label true) — the
        pair can never join the good set and is pruned outright."""
        needed = self.a_conj.get(qa)
        if needed is not None and needed & ~shared:
            return True
        needed = self.b_conj.get(qb)
        if needed is not None and needed & ~shared:
            return True
        entry = self.a_complex.get(qa)
        if entry is not None:
            formula, names = entry
            if not evaluate(
                formula,
                {name: bool(shared >> lid & 1) for name, lid in names},
            ):
                return True
        entry = self.b_complex.get(qb)
        if entry is not None:
            formula, names = entry
            if not evaluate(
                formula,
                {name: bool(shared >> lid & 1) for name, lid in names},
            ):
                return True
        return False

    def _discover(self, pid: int) -> int:
        qa, qb = divmod(pid, self.nb)
        shared = self.amask[qa] & self.bmask[qb]
        # Pruning is sound only for monotone (negation-free) operators:
        # with a NOT in play, even a pair whose own annotation is
        # definitely unsatisfiable still shapes its neighbours' early
        # fixpoint rounds (it is live in round 1, which can *refute* a
        # neighbour's negated variable), so non-positive explorations
        # discover everything.
        if self.positive and self._locally_dead(qa, qb, shared):
            self.index[pid] = -1
            return -1
        idx = len(self.pairs)
        self.index[pid] = idx
        self.pairs.append(pid)
        self.rows.append(None)
        if qa in self.a_finals and qb in self.b_finals:
            self.finals.add(idx)
        formula_a = self.a_ann.get(qa)
        formula_b = self.b_ann.get(qb)
        if formula_a is not None or formula_b is not None:
            if formula_a is None:
                combined: Formula = formula_b
            elif formula_b is None:
                combined = formula_a
            else:
                # Raw conjunction — evaluation-equivalent to the eager
                # pipeline's simplified conjoin(), at none of its cost.
                combined = And(formula_a, formula_b)
            self.anns[idx] = combined
        return idx

    # -- expansion ---------------------------------------------------------

    def expand(self, limit: int) -> None:
        """Expand discovered pairs in index order until *limit* pairs
        are explored or the frontier is exhausted."""
        pairs = self.pairs
        rows = self.rows
        index = self.index
        a_adj, b_adj = self.a_adj, self.b_adj
        amask, bmask = self.amask, self.bmask
        nb = self.nb
        discover = self._discover
        cursor = self.cursor
        while cursor < len(pairs) and cursor < limit:
            pid = pairs[cursor]
            qa, qb = divmod(pid, nb)
            row_a = a_adj[qa]
            row_b = b_adj[qb]
            row: dict = {}
            mask = amask[qa] & bmask[qb]
            while mask:
                low = mask & -mask
                mask ^= low
                lid = low.bit_length() - 1
                bucket = []
                for target_a in row_a[lid]:
                    base = target_a * nb
                    for target_b in row_b[lid]:
                        tpid = base + target_b
                        target = index.get(tpid)
                        if target is None:
                            target = discover(tpid)
                        if target >= 0:
                            bucket.append(target)
                if bucket:
                    row[lid] = tuple(bucket)
            rows[cursor] = row
            if cursor in self.finals:
                self.explored_finals += 1
            elif not row:
                self.explored_deadends += 1
            if cursor in self.anns:
                self.explored_annotated += 1
            cursor += 1
        self.cursor = cursor

    @property
    def exhausted(self) -> bool:
        return self.cursor == len(self.pairs)

    # -- cross-version warm start ------------------------------------------

    def seed_from(self, old: "_PairExploration", map_a, map_b) -> bool:
        """Seed this exploration from *old*'s explored region after an
        evolution step (cross-version verdict delta).

        ``map_a`` / ``map_b`` translate operand state indices of the
        old product into this one (``None`` = the operand is the same
        kernel object, identity).  A non-identity map must come from
        :func:`kernel_correspondence`: it only contains *stable*
        states — same name, final flag, annotation, and outgoing
        (label, target-name) row — so a translated pair has the same
        shared-label mask, the same raw annotation, the same dead-pair
        pruning verdict, and, when additionally **every operand
        successor** of both sides is stable, the same successor row up
        to translation.  Exactly those pairs are copied: discovered
        first (so the explored region stays the dense prefix the
        verdict bounds slice on) and their successor rows translated
        instead of recomputed, with every untranslated successor
        becoming ordinary frontier.  Both verdict bounds stay sound on
        the seeded exploration: copied edges exist in the true product
        (pessimistic bound) and copied rows are *complete* (optimistic
        bound).

        When the old exploration certified non-emptiness, only its
        recorded :attr:`certificate` region is copied — the good
        states reachable from the start pair through good states form
        a closed post-fixpoint witness, so if that region survives the
        evolution intact the very first pessimistic bound re-certifies
        the verdict from a few dozen translated pairs, skipping the
        BFS entirely.  Emptiness verdicts have no local witness, so
        the whole explored region is copied and only the changed slice
        is re-explored.

        Returns False — leaving ``self`` unusable, callers restart
        cold — when the start pair does not survive translation or a
        stability promise fails defensively.

        Witness state is *invalidated*, never translated: the old
        exploration's :attr:`witness` memo stays behind (a stale
        witness can not be proven canonical for the new product), and
        any witness of the seeded pair is re-extracted on demand by
        :func:`repro.afsa.witness.lazy_pair_witness` — only the
        certificate region, the witness's support, crosses versions.
        """
        nb_old = old.nb
        nb = self.nb
        old_pairs = old.pairs
        translated: list = [None] * len(old_pairs)
        for i, pid in enumerate(old_pairs):
            qa, qb = divmod(pid, nb_old)
            na = qa if map_a is None else map_a.get(qa)
            if na is None:
                continue
            nq = qb if map_b is None else map_b.get(qb)
            if nq is None:
                continue
            translated[i] = na * nb + nq

        # A pair's row may be copied only when *all* operand successors
        # of both sides are stable too: then every product successor —
        # including the ones pruned at discovery — keeps its pruning
        # verdict, so the translated row is exactly what expand() would
        # compute.
        succ_stable_a = _successor_stability(old.a, map_a)
        succ_stable_b = _successor_stability(old.b, map_b)
        cursor_old = old.cursor
        certificate = old.certificate_region()
        candidates = (
            certificate if certificate is not None else range(cursor_old)
        )
        copyable = []
        for i in candidates:
            if i >= cursor_old or translated[i] is None:
                continue
            qa, qb = divmod(old_pairs[i], nb_old)
            if succ_stable_a(qa) and succ_stable_b(qb):
                copyable.append(i)
        if not copyable or not cursor_old:
            return False
        if translated[0] != self.pairs[0] or copyable[0] != 0:
            # The old start pair must survive as *this* start pair,
            # row included, or the explored prefix would have a hole
            # at index 0.
            return False

        index = self.index
        discover = self._discover
        for i in copyable:
            pid = translated[i]
            idx = index.get(pid)
            if idx is None:
                idx = discover(pid)
            if idx < 0:  # pragma: no cover - stability guarantees alive
                return False
        boundary = len(self.pairs)

        for i in copyable:
            idx = index[translated[i]]
            row_new: dict = {}
            for lid, targets in old.rows[i].items():
                bucket = []
                for t in targets:
                    tpid = translated[t]
                    if tpid is None:  # pragma: no cover - defensive
                        return False
                    tidx = index.get(tpid)
                    if tidx is None:
                        tidx = discover(tpid)
                    if tidx < 0:  # pragma: no cover - defensive
                        return False
                    bucket.append(tidx)
                if bucket:
                    row_new[lid] = tuple(bucket)
            self.rows[idx] = row_new
            if idx in self.finals:
                self.explored_finals += 1
            elif not row_new:
                self.explored_deadends += 1
            if idx in self.anns:
                self.explored_annotated += 1
        self.cursor = boundary
        return True

    # -- verdict bounds ----------------------------------------------------

    def _subgraph_kernel(self) -> Kernel:
        """The explored subgraph with frontier states assumed dead
        (edges into the frontier dropped) — its good set is a *lower*
        bound of the true good set."""
        n = self.cursor
        if self.exhausted:
            adj = self.rows
        else:
            adj = []
            for i in range(n):
                filtered: dict = {}
                for lid, targets in self.rows[i].items():
                    kept = tuple(t for t in targets if t < n)
                    if kept:
                        filtered[lid] = kept
                adj.append(filtered)
        return Kernel(
            n=n,
            start=0,
            names=self.pairs[:n],
            finals=frozenset(t for t in self.finals if t < n),
            ann={i: f for i, f in self.anns.items() if i < n},
            adj=adj,
            eps=[()] * n,
            alphabet_ids=frozenset(),
        )

    def _optimistic_kernel(self) -> Kernel:
        """The explored subgraph with frontier states assumed to be
        unconditionally good finals — for negation-free annotations its
        good set is an *upper* bound of the true good set on explored
        states."""
        n = self.cursor
        m = len(self.pairs)
        adj = self.rows[:n] + [{}] * (m - n)
        return Kernel(
            n=m,
            start=0,
            names=self.pairs,
            finals=frozenset(self.finals) | frozenset(range(n, m)),
            ann={i: f for i, f in self.anns.items() if i < n},
            adj=adj,
            eps=[()] * m,
            alphabet_ids=frozenset(),
        )

    def start_good_lower(self) -> bool:
        """Certificate of non-emptiness (sound, may return False while
        the true verdict is non-empty)."""
        if not self.explored_finals:
            return False
        return 0 in k_good_states(self._subgraph_kernel())

    def certificate_region(self) -> list | None:
        """The verdict's *support region*: the good states reachable
        from the start pair through good states only (by explored
        index, ascending), or None when the explored region does not
        certify non-emptiness.

        The region is a closed post-fixpoint witness of the verdict —
        what a cross-version warm start copies, translating a few
        dozen certificate pairs instead of re-exploring the product.
        Computed (and memoized, including the negative outcome) on
        demand: only seed time pays for the extra fixpoint + BFS,
        never the verdict hot path.

        Non-positive explorations never carry a certificate: the
        region's closed-post-fixpoint reading relies on monotonicity.
        """
        if self.certificate is None:
            if not self.positive or not self.explored_finals:
                self.certificate = False
                return None
            good = k_good_states(self._subgraph_kernel())
            if 0 not in good:
                self.certificate = False
                return None
            n = self.cursor
            seen = {0}
            stack = [0]
            rows = self.rows
            while stack:
                state = stack.pop()
                for targets in rows[state].values():
                    for target in targets:
                        if (
                            target < n
                            and target in good
                            and target not in seen
                        ):
                            seen.add(target)
                            stack.append(target)
            self.certificate = sorted(seen)
        return self.certificate or None

    def start_good_upper(self) -> bool:
        """Upper bound on the start pair's goodness (``False`` is a
        sound certificate of emptiness for negation-free operands)."""
        if not self.explored_annotated and not self.explored_deadends:
            # Nothing in the explored subgraph can kill a state while
            # the frontier counts as good finals.
            return True
        return 0 in k_good_states(self._optimistic_kernel())

    # -- dual-rail bounds (negated annotations) ----------------------------

    def _ann_eval_items(self):
        """``(index, formula, ((name, lid), …))`` per annotated
        discovered pair, with the interned variable tuples memoized in
        :attr:`ann_vars` across rounds and calls."""
        intern = INTERNER.intern
        cache = self.ann_vars
        items = []
        for idx, formula in self.anns.items():
            entry = cache.get(idx)
            if entry is None:
                entry = cache[idx] = tuple(
                    (name, intern(name))
                    for name in formula_variables(formula)
                )
            items.append((idx, formula, entry))
        return items

    def dual_rail(self, max_rounds: int | None = None):
        """Three-valued good-set bounds over the discovered pairs.

        Runs the round iteration of
        :func:`~repro.afsa.kernel.k_good_states_naive` abstractly: each
        discovered pair holds a Kleene value — *definitely good this
        round* (``lo``), *possibly good* (``hi``), or neither =
        definitely dead — starting from all-definite (the concrete
        round 0 is *every* product state).  Per round, backward
        liveness is computed twice (through definite states from
        definite good finals; through possible states from possible
        finals *and every frontier pair*, whose unexplored out-edges
        may reach anything), and annotations are evaluated with
        :func:`~repro.formula.evaluate.evaluate3` — a frontier pair's
        variable is *unknown* when the label is in its shared mask and
        definitely false otherwise.

        If two consecutive rounds produce the same value vector ``v``,
        every later concrete round — and hence the concrete fixpoint —
        stays inside ``v``'s concretization, so ``start ∈ lo``
        certifies non-emptiness and ``start ∉ hi`` emptiness, *without
        negation-free monotonicity*.  Returns ``(lo, hi)`` index sets
        on stabilization, or ``None`` when the iteration did not
        settle within the round budget (explore further and retry).
        At exhaustion no unknowns remain, the iteration is exactly the
        naive two-valued recursion on the full reachable product
        (non-positive explorations never prune), and it provably
        stabilizes within the budget — the verdict is then exact.
        """
        m = len(self.pairs)
        n = self.cursor
        rows = self.rows
        if max_rounds is None:
            max_rounds = m + 2
        preds: list = [[] for _ in range(m)]
        for i in range(n):
            for targets in rows[i].values():
                for t in targets:
                    preds[t].append(i)
        finals = self.finals
        ann_items = self._ann_eval_items()
        nb = self.nb
        pairs = self.pairs
        amask, bmask = self.amask, self.bmask
        lo = [True] * m
        hi = [True] * m
        for _ in range(max_rounds):
            live_lo = [False] * m
            stack = [i for i in finals if lo[i]]
            for i in stack:
                live_lo[i] = True
            while stack:
                s = stack.pop()
                for p in preds[s]:
                    if lo[p] and not live_lo[p]:
                        live_lo[p] = True
                        stack.append(p)
            live_hi = [False] * m
            stack = [i for i in finals if hi[i]]
            stack.extend(
                i for i in range(n, m) if hi[i] and i not in finals
            )
            for i in stack:
                live_hi[i] = True
            while stack:
                s = stack.pop()
                for p in preds[s]:
                    if hi[p] and not live_hi[p]:
                        live_hi[p] = True
                        stack.append(p)
            new_lo = list(live_lo)
            new_hi = list(live_hi)
            for idx, formula, var_items in ann_items:
                if not new_lo[idx] and not new_hi[idx]:
                    continue
                bounds: dict = {}
                if idx < n:
                    row = rows[idx]
                    for name, lid in var_items:
                        targets = row.get(lid)
                        if not targets:
                            bounds[name] = (False, False)
                        else:
                            bounds[name] = (
                                any(live_lo[t] for t in targets),
                                any(live_hi[t] for t in targets),
                            )
                else:
                    qa, qb = divmod(pairs[idx], nb)
                    shared = amask[qa] & bmask[qb]
                    for name, lid in var_items:
                        if shared >> lid & 1:
                            bounds[name] = (False, True)
                        else:
                            bounds[name] = (False, False)
                eval_lo, eval_hi = evaluate3(formula, bounds)
                new_lo[idx] = new_lo[idx] and eval_lo
                new_hi[idx] = new_hi[idx] and eval_hi
            if new_lo == lo and new_hi == hi:
                return (
                    {i for i in range(m) if lo[i]},
                    {i for i in range(m) if hi[i]},
                )
            lo, hi = new_lo, new_hi
        return None


# -- cross-version lineage and exploration retention ---------------------------

#: Version lineage: ``id(new ε-free kernel) -> (new, old ε-free
#: kernel)``.  Registered by :func:`note_lineage` when an evolution
#: step replaces a public process (and per projected view); consulted
#: on every cold lazy verdict to seed the new pair's exploration from
#: the old product's surviving region.  Entries pin their kernels
#: (sound ``id()`` keys) and age out of the bounded LRU exactly like
#: the verdict cache.
_LINEAGE: OrderedDict = OrderedDict()
_LINEAGE_MAX = 64

#: Recent lazy explorations: ``(id(a), id(b)) -> (a, b, exploration)``.
#: This is what a post-evolution warm start copies from; kept small —
#: an exploration retains the explored pair rows, comparable to one
#: eager product.
_EXPLORATIONS: OrderedDict = OrderedDict()
_EXPLORATIONS_MAX = 16

#: Memoized stable-state correspondences:
#: ``(id(old), id(new)) -> (old, new, {old state -> new state})``.
_CORRESPONDENCE: OrderedDict = OrderedDict()
_CORRESPONDENCE_MAX = 64


def note_lineage(old: Kernel, new: Kernel) -> None:
    """Record that *new* evolved from *old* (one step).

    Both kernels are reduced to their memoized ε-free forms — the
    representation the lazy engine explores — so later verdicts on
    *new* can look the lineage up directly.  Only the latest ancestor
    per kernel is kept: chained evolutions re-register at each step.
    """
    a_old = k_remove_epsilon(old)
    a_new = k_remove_epsilon(new)
    if a_old is a_new:
        return
    # The original *old* kernel rides along: cross-process consumers
    # (the sweep fan-out) must ship the ancestor under the same arena
    # digest the pre-evolution sweep published — the original grid
    # kernel, not its ε-free reduction — or the workers' retained
    # explorations (keyed on ε-free forms of *their* attached
    # originals) would never match.
    _LINEAGE[id(a_new)] = (a_new, a_old, old)
    _LINEAGE.move_to_end(id(a_new))
    while len(_LINEAGE) > _LINEAGE_MAX:
        _LINEAGE.popitem(last=False)


def lineage_of(kernel: Kernel) -> Kernel | None:
    """The registered ancestor of *kernel* — the *original* kernel
    passed to :func:`note_lineage`, not its ε-free reduction — or
    None.

    Consumers that re-establish lineage in another address space — the
    sweep fan-out ships (old, new) arena digest pairs so persistent
    workers can seed from their *own* retained explorations — read the
    registry through this accessor: shipping the original keeps the
    digest identical to what the pre-evolution sweep published, so the
    worker's kernel memo resolves to the very kernel object its
    exploration is keyed on.
    """
    entry = _LINEAGE.get(id(k_remove_epsilon(kernel)))
    if entry is None:
        return None
    return entry[2]


def _row_signature(kernel: Kernel, state: int) -> dict:
    names = kernel.names
    return {
        lid: tuple(sorted(repr(names[t]) for t in targets))
        for lid, targets in kernel.adj[state].items()
    }


def kernel_correspondence(old: Kernel, new: Kernel) -> dict:
    """The stable-state map ``old index -> new index`` of two ε-free
    kernels (memoized).

    A state is *stable* when a state of the same name exists in *new*
    with the same final flag, the same annotation, and the same
    outgoing row by (label id, target names).  Stability is exactly
    what the warm-start seeding of :meth:`_PairExploration.seed_from`
    needs: stable states have identical label masks, annotations and
    pruning behavior, and stable states whose successors are all
    stable have identical (translated) product successor rows.
    """
    key = (id(old), id(new))
    entry = _CORRESPONDENCE.get(key)
    if entry is not None and entry[0] is old and entry[1] is new:
        _CORRESPONDENCE.move_to_end(key)
        return entry[2]
    new_index = {name: j for j, name in enumerate(new.names)}
    stable: dict = {}
    for i, name in enumerate(old.names):
        j = new_index.get(name)
        if j is None:
            continue
        if (i in old.finals) != (j in new.finals):
            continue
        old_ann = old.ann.get(i)
        new_ann = new.ann.get(j)
        if (old_ann is None) != (new_ann is None):
            continue
        if old_ann is not None and str(old_ann) != str(new_ann):
            continue
        if _row_signature(old, i) != _row_signature(new, j):
            continue
        stable[i] = j
    _CORRESPONDENCE[key] = (old, new, stable)
    _CORRESPONDENCE.move_to_end(key)
    while len(_CORRESPONDENCE) > _CORRESPONDENCE_MAX:
        _CORRESPONDENCE.popitem(last=False)
    return stable


def _successor_stability(kernel: Kernel, mapping):
    """A memoized ``state -> bool`` predicate: every outgoing target of
    the state is in *mapping* (identity maps are always stable)."""
    if mapping is None:
        return lambda state: True
    adj = kernel.adj
    memo: dict = {}

    def stable(state: int) -> bool:
        verdict = memo.get(state)
        if verdict is None:
            verdict = memo[state] = all(
                target in mapping
                for targets in adj[state].values()
                for target in targets
            )
        return verdict

    return stable


def _remember_exploration(
    a: Kernel, b: Kernel, exploration: _PairExploration
) -> None:
    key = (id(a), id(b))
    _EXPLORATIONS[key] = (a, b, exploration)
    _EXPLORATIONS.move_to_end(key)
    while len(_EXPLORATIONS) > _EXPLORATIONS_MAX:
        _EXPLORATIONS.popitem(last=False)


def _warm_exploration(a: Kernel, b: Kernel):
    """Try to seed a new exploration of ``a × b`` from a retained
    pre-evolution exploration via the lineage registry; returns the
    seeded :class:`_PairExploration` or None (start cold)."""
    for evolved_side, kern in ((0, a), (1, b)):
        lineage = _LINEAGE.get(id(kern))
        if lineage is None or lineage[0] is not kern:
            continue
        old_kern = lineage[1]
        key = (
            (id(old_kern), id(b))
            if evolved_side == 0
            else (id(a), id(old_kern))
        )
        stored = _EXPLORATIONS.get(key)
        if stored is None:
            continue
        old_a, old_b, old_exploration = stored
        expected = (old_kern, b) if evolved_side == 0 else (a, old_kern)
        if old_a is not expected[0] or old_b is not expected[1]:
            continue
        stable = kernel_correspondence(old_kern, kern)
        if not stable:
            continue
        exploration = _PairExploration(a, b)
        if exploration.start < 0:
            # Pruned start: the cold constructor decides this in O(1)
            # anyway — don't report it as a warm start.
            return None
        map_a = stable if evolved_side == 0 else None
        map_b = None if evolved_side == 0 else stable
        if exploration.seed_from(old_exploration, map_a, map_b):
            return exploration
        # Seeding bailed on this side (partial mutation: throw the
        # exploration away); the other operand may carry viable
        # lineage of its own, so keep trying before going cold.
    return None


#: Warm-start telemetry: explorations seeded from a retained ancestor,
#: and how many of those decided without expanding past the seed (the
#: certificate survived the evolution intact).  Read via
#: :func:`warm_stats`; cleared by :func:`clear_warm_state`.
_WARM_STATS = {"seeded": 0, "decided_from_seed": 0}

#: Witness-path telemetry: witnesses extracted by the streaming lazy
#: engine, extra frontier expansions those extractions needed beyond
#: the verdict's exploration, and invocations of the test-only eager
#: oracle (:mod:`repro.afsa.oracle`) — the last must stay zero on
#: every non-test code path, which the sweep counters assert.
_WITNESS_STATS = {
    "witness_lazy": 0,
    "witness_expansions": 0,
    "eager_oracle": 0,
}


def warm_stats() -> dict:
    """A copy of the cross-version warm-start and witness-path
    counters."""
    return {**_WARM_STATS, **_WITNESS_STATS}


def retained_exploration(left: Kernel, right: Kernel):
    """The exploration retained for an operand pair, if any.

    Introspection for tests and benches (e.g. to read the recorded
    :meth:`_PairExploration.certificate_region`); returns None when the
    pair was never lazily explored or has aged out of the LRU.
    """
    key = (id(k_remove_epsilon(left)), id(k_remove_epsilon(right)))
    entry = _EXPLORATIONS.get(key)
    return entry[2] if entry is not None else None


def clear_warm_state() -> None:
    """Drop all cross-version warm-start state (lineage, retained
    explorations, correspondences).  Benches and tests use this to
    measure/pin the cold path."""
    _LINEAGE.clear()
    _EXPLORATIONS.clear()
    _CORRESPONDENCE.clear()
    _WARM_STATS["seeded"] = 0
    _WARM_STATS["decided_from_seed"] = 0
    for key in _WITNESS_STATS:
        _WITNESS_STATS[key] = 0


def _decide(exploration: _PairExploration, warmed: bool) -> bool:
    """Run the checkpointed verdict loop over *exploration*."""
    if exploration.start < 0:
        return False
    if not exploration.positive:
        return _decide_dual(exploration)
    if warmed and exploration.cursor > 1:
        # The copied region is already explored: try both certificates
        # before any expansion — for an unchanged-verdict evolution the
        # surviving region usually still carries the certificate, and
        # the whole BFS is skipped.
        if exploration.exhausted:
            return exploration.start_good_lower()
        if exploration.start_good_lower():
            return True
        if not exploration.start_good_upper():
            return False
    optimistic = set(_OPTIMISTIC_CHECKPOINTS)
    for limit in _PESSIMISTIC_CHECKPOINTS:
        if limit <= exploration.cursor and not exploration.exhausted:
            continue
        exploration.expand(limit)
        if exploration.exhausted:
            # Frontier empty: the pessimistic bound is exact.
            return exploration.start_good_lower()
        if exploration.start_good_lower():
            return True
        if limit in optimistic and not exploration.start_good_upper():
            return False
    # Undecided after the checkpoint budget: run to exhaustion and
    # decide with one exact fixpoint.
    exploration.expand(float("inf"))
    return exploration.start_good_lower()


def _decide_dual(exploration: _PairExploration) -> bool:
    """Checkpointed verdict loop for negated annotations: interleave
    exploration with the three-valued :meth:`_PairExploration.dual_rail`
    bounds instead of the monotone pessimistic/optimistic pair."""
    for limit in _PESSIMISTIC_CHECKPOINTS:
        if limit <= exploration.cursor and not exploration.exhausted:
            continue
        exploration.expand(limit)
        rails = exploration.dual_rail()
        if rails is not None:
            lo, hi = rails
            if 0 in lo:
                return True
            if 0 not in hi:
                return False
        if exploration.exhausted:
            # At exhaustion the iteration always stabilizes with
            # lo == hi (the exact naive fixpoint), so the bounds above
            # decided; reaching here means the rails were None, which
            # exhaustion rules out.
            break  # pragma: no cover - defensive
    exploration.expand(float("inf"))
    lo, _ = exploration.dual_rail()
    return 0 in lo


def _lazy_annotated_verdict(a: Kernel, b: Kernel) -> bool:
    """Decide ``L(a ∩ b) ≠ ∅`` (annotated test) on the fly.

    Operands must be ε-free with negation-free annotations.  The
    exploration (warm-seeded across versions when the lineage registry
    knows an ancestor) is retained afterwards so the *next* evolution
    step can seed from it in turn.
    """
    exploration = _warm_exploration(a, b)
    warmed = exploration is not None
    if exploration is None:
        exploration = _PairExploration(a, b)
    else:
        _WARM_STATS["seeded"] += 1
    seeded_cursor = exploration.cursor
    verdict = _decide(exploration, warmed)
    if warmed and exploration.cursor == seeded_cursor:
        _WARM_STATS["decided_from_seed"] += 1
    _remember_exploration(a, b, exploration)
    return verdict


def _live_exploration(a: Kernel, b: Kernel) -> _PairExploration:
    """The retained exploration for ``a × b`` (decided, for witness
    extraction), creating and deciding a fresh one when the pair was
    never explored or aged out of the LRU."""
    key = (id(a), id(b))
    entry = _EXPLORATIONS.get(key)
    if entry is not None and entry[0] is a and entry[1] is b:
        _EXPLORATIONS.move_to_end(key)
        return entry[2]
    exploration = _warm_exploration(a, b)
    warmed = exploration is not None
    if exploration is None:
        exploration = _PairExploration(a, b)
    else:
        _WARM_STATS["seeded"] += 1
    if exploration.start >= 0:
        _decide(exploration, warmed)
    _remember_exploration(a, b, exploration)
    return exploration


def _lazy_classical_verdict(a: Kernel, b: Kernel) -> bool:
    """Decide classical (annotation-blind) product non-emptiness: BFS
    until the first final pair, no pruning, no fixpoint."""
    nb = b.n
    a_adj, b_adj = a.adj, b.adj
    amask, bmask = a.label_masks(), b.label_masks()
    a_finals, b_finals = a.finals, b.finals
    start = a.start * nb + b.start
    if a.start in a_finals and b.start in b_finals:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        pid = frontier.pop()
        qa, qb = divmod(pid, nb)
        row_a = a_adj[qa]
        row_b = b_adj[qb]
        mask = amask[qa] & bmask[qb]
        while mask:
            low = mask & -mask
            mask ^= low
            lid = low.bit_length() - 1
            for target_a in row_a[lid]:
                base = target_a * nb
                final_a = target_a in a_finals
                for target_b in row_b[lid]:
                    tpid = base + target_b
                    if tpid not in seen:
                        if final_a and target_b in b_finals:
                            return True
                        seen.add(tpid)
                        frontier.append(tpid)
    return False


def product_verdict(left: Kernel, right: Kernel, annotated: bool = True) -> bool:
    """``L(left ∩ right) ≠ ∅`` via the lazy engine, uncached.

    The benchmark hook (and the engine behind :func:`pair_verdict`):
    ε-eliminates the operands (a memo hit when already ε-free) and
    runs the fused exploration.  Exact for the *full* annotation
    language: negation-free operands use the monotone
    pessimistic/optimistic bounds, negated ones the dual-rail
    three-valued bounds (whose exhaustion semantics equal
    :func:`~repro.afsa.kernel.k_good_states_naive` on the full
    product) — there is no eager fallback left.
    """
    a = k_remove_epsilon(left)
    b = k_remove_epsilon(right)
    if not annotated:
        return _lazy_classical_verdict(a, b)
    return _lazy_annotated_verdict(a, b)


class _OperandRef(weakref.ref):
    """A weak reference to one operand kernel of a cache entry that
    remembers the entry's key, so the death callback can name it."""

    __slots__ = ("key",)

    def __new__(cls, kernel: Kernel, callback, key: tuple):
        self = super().__new__(cls, kernel, callback)
        self.key = key
        return self

    def __init__(self, kernel: Kernel, callback, key: tuple):
        super().__init__(kernel, callback)


class _CacheEntry:
    """One cached pair verdict; the operand kernels are held weakly
    (see the module docstring's invalidation contract)."""

    __slots__ = ("_left", "_right", "consistent", "witness")

    def __init__(self, left_ref, right_ref, consistent: bool):
        self._left = left_ref
        self._right = right_ref
        self.consistent = consistent
        self.witness = None

    @property
    def left(self) -> Kernel | None:
        """The left operand, or None once it died."""
        return self._left()

    @property
    def right(self) -> Kernel | None:
        """The right operand, or None once it died."""
        return self._right()


class PairVerdictCache:
    """Bounded LRU of product-emptiness verdicts keyed on kernel
    identity pairs.

    An entry lives while both its operand kernels do: each operand's
    weak reference queues the entry's key when the kernel dies, and
    the next lookup, store or invalidation drops the queued entries.
    The callback only appends to a list, so it is safe wherever the
    garbage collector happens to run it.  Only the engine-side
    operations mutate the cache; the occupancy readers (``len``,
    :meth:`info`) count live entries from a snapshot without
    mutating, so an observability surface may call them from another
    thread.

    ``hits`` / ``misses`` are running counters; the sweep engine
    reports their deltas per run (:meth:`SweepReport.describe`).
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries", "_dead")

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._dead: list = []

    def _purge(self) -> None:
        """Drop the entries whose operand died since the last call."""
        dead = self._dead
        entries = self._entries
        while dead:
            key = dead.pop().key
            entry = entries.get(key)
            if entry is not None and (
                entry.left is None or entry.right is None
            ):
                entries.pop(key, None)

    def _get(self, left: Kernel, right: Kernel, annotated: bool):
        """The live entry for this operand pair, or None (uncounted)."""
        self._purge()
        key = (id(left), id(right), annotated)
        entry = self._entries.get(key)
        if entry is None or entry.left is not left or (
            entry.right is not right
        ):
            return None
        return entry

    def __len__(self) -> int:
        return sum(
            1
            for entry in list(self._entries.values())
            if entry.left is not None and entry.right is not None
        )

    def lookup(self, left: Kernel, right: Kernel, annotated: bool = True):
        """Return the cached :class:`_CacheEntry` or None (counted)."""
        entry = self._get(left, right, annotated)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((id(left), id(right), annotated))
        self.hits += 1
        return entry

    def store(
        self,
        left: Kernel,
        right: Kernel,
        consistent: bool,
        annotated: bool = True,
    ) -> _CacheEntry:
        """Record a verdict (evicting the LRU entry when full)."""
        key = (id(left), id(right), annotated)
        entry = self._get(left, right, annotated)
        if entry is None:
            dead = self._dead.append
            entry = _CacheEntry(
                _OperandRef(left, dead, key),
                _OperandRef(right, dead, key),
                consistent,
            )
            self._entries[key] = entry
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        self._entries.move_to_end(key)
        return entry

    def stats(self) -> tuple:
        """Return the running ``(hits, misses)`` counters."""
        return self.hits, self.misses

    def info(self) -> dict:
        """Occupancy + counters as one dict (the ``/metrics`` hook).

        Keys: ``size`` (live entries), ``maxsize``, ``hits``,
        ``misses`` — everything an observability surface needs without
        reaching into ``_entries``.
        """
        return {
            "size": len(self),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
        }

    def invalidate_kernels(self, kernels) -> None:
        """Drop every entry whose either operand is one of *kernels*.

        Entries normally leave with their operands (weak references,
        see the class docstring).  Policy-driven eviction — the
        service front-end unregistering a tenant's choreography —
        wants them *gone now*, even while a retained exploration or
        the lineage registry still keeps a kernel alive, so the shared
        cache's capacity serves the tenants that remain.
        """
        doomed = {id(kernel) for kernel in kernels}
        if not doomed:
            return
        self._purge()
        for key in [
            key
            for key in list(self._entries)
            if key[0] in doomed or key[1] in doomed
        ]:
            self._entries.pop(key, None)

    def invalidate_digests(self, digests) -> None:
        """Drop every entry whose either operand carries one of the
        content *digests* — the cross-process companion of
        :meth:`invalidate_kernels`.

        With the content-addressed arena, the durable identity of a
        published kernel is its payload digest, not its ``id()``: a
        worker that resolved the kernel through
        :func:`~repro.core.runtime.kernel_for` holds a *different*
        object under the *same* digest.  Digest invalidation lets an
        eviction decision made anywhere (the parent unregistering a
        tenant, a future control-plane broadcast) name the entries to
        drop without sharing object identity.  Only digests already
        computed are consulted (``kernel._digest`` is set on publish
        and on worker resolution); a kernel that never crossed a
        process boundary has no digest and cannot be addressed by one.
        """
        doomed = set(digests)
        if not doomed:
            return
        self._purge()
        for key, entry in list(self._entries.items()):
            left, right = entry.left, entry.right
            if (left is not None and left._digest in doomed) or (
                right is not None and right._digest in doomed
            ):
                self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._dead.clear()


#: The process-wide verdict cache every consistency-check consumer
#: shares (sweeps, negotiation, propagation step 5, engine auto-adapt,
#: migration residual checks).
VERDICTS = PairVerdictCache()


def pair_verdict(left: Kernel, right: Kernel, annotated: bool = True) -> bool:
    """Cached consistency verdict of an operand kernel pair.

    ``True`` iff the annotated (or, with ``annotated=False``,
    classical) intersection language is non-empty — byte-identical to
    the eager pipeline's verdict, in ~O(1) for a repeated pair.
    """
    entry = VERDICTS.lookup(left, right, annotated)
    if entry is not None:
        return entry.consistent
    consistent = product_verdict(left, right, annotated=annotated)
    VERDICTS.store(left, right, consistent, annotated)
    return consistent


def cached_witness(left: Kernel, right: Kernel):
    """The witness previously stored for this pair, if any (does not
    touch the hit/miss counters — witnesses ride on verdict entries)."""
    entry = VERDICTS._get(left, right, True)
    if entry is None:
        return None
    return entry.witness


def store_witness(left: Kernel, right: Kernel, witness) -> None:
    """Attach a lazily-extracted witness to the pair's verdict entry."""
    entry = VERDICTS.store(left, right, not witness.empty, True)
    entry.witness = witness
