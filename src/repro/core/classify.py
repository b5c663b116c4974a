"""Change classification (Sect. 4: Defs. 5 and 6).

Two orthogonal dimensions:

* **change framework** — does the change add message sequences
  (*additive*: ``A' \\ A ≠ ∅``), remove them (*subtractive*:
  ``A \\ A' ≠ ∅``), both, or neither (Def. 5);
* **change propagation** — does the changed public process remain
  consistent with a partner (*invariant*: ``A' ∩ B ≠ ∅``) or does the
  agreed protocol break (*variant*: ``A' ∩ B = ∅``, Def. 6).

Classification also implements the refined propagation criterion of
Sect. 4.2: the strict protocol-equivalence test
``(A \\ A') ∩ B = ∅ ∧ (A' \\ A) ∩ B = ∅`` is exposed as
:meth:`ChangeClassification.protocol_equivalent` — the paper points out
it is "too restrictive", and Def. 6 is the criterion actually used.

All three questions are emptiness questions, so none of them builds an
automaton.  Def. 5 is unannotated language inclusion — two
short-circuiting :func:`~repro.afsa.kernel.k_language_included` walks
over the operands' memoized DFAs.  Def. 6 is the cached lazy pair
verdict (:func:`~repro.afsa.lazy.pair_verdict`), the same verdict a
consistency check of that pair returns.  Protocol equivalence is one
on-the-fly walk (:func:`~repro.afsa.kernel.k_language_equal_within`).
Only propagation (:mod:`repro.core.propagate`) materializes automata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.automaton import AFSA
from repro.afsa.emptiness import is_consistent
from repro.afsa.equivalence import language_included
from repro.afsa.kernel import k_language_equal_within, kernel_of
from repro.afsa.view import project_view

#: Change-framework verdicts (Def. 5).
ADDITIVE = "additive"
SUBTRACTIVE = "subtractive"
BOTH = "additive+subtractive"
NEUTRAL = "neutral"

#: Change-propagation verdicts (Def. 6).
VARIANT = "variant"
INVARIANT = "invariant"


@dataclass
class ChangeClassification:
    """Outcome of classifying a change δ transforming A into A'.

    Attributes:
        additive: ``A' \\ A ≠ ∅`` (new message sequences appeared).
        subtractive: ``A \\ A' ≠ ∅`` (message sequences disappeared).
        old_public: A, as classified (the bilateral view when a
            partner was supplied).
        new_public: A', as classified.
        variant: ``A' ∩ B = ∅`` — only set when a partner was supplied.
        partner: name of the partner the variant verdict refers to.
    """

    additive: bool
    subtractive: bool
    old_public: AFSA = field(repr=False, compare=False)
    new_public: AFSA = field(repr=False, compare=False)
    variant: bool | None = None
    partner: str = ""

    @property
    def framework(self) -> str:
        """The Def. 5 verdict: additive/subtractive/both/neutral."""
        if self.additive and self.subtractive:
            return BOTH
        if self.additive:
            return ADDITIVE
        if self.subtractive:
            return SUBTRACTIVE
        return NEUTRAL

    @property
    def propagation(self) -> str | None:
        """The Def. 6 verdict: variant/invariant (None if unchecked)."""
        if self.variant is None:
            return None
        return VARIANT if self.variant else INVARIANT

    @property
    def requires_propagation(self) -> bool:
        """True when the change must be propagated to the partner."""
        return bool(self.variant)

    def protocol_equivalent(self, partner_public: AFSA) -> bool:
        """The strict Sect. 4.2 criterion: ``A ∩ B ≡ A' ∩ B``.

        The paper formalizes it as ``(A \\ A') ∩ B = ∅ ∧ (A' \\ A) ∩ B
        = ∅`` (unannotated); one walk over ``det(A) × det(A') × B``
        answers both conjuncts, stopping at the first word of ``L(B)``
        that exactly one of A and A' accepts.  Stricter than
        invariance: it also fails for changes that merely alter
        options fully under the change originator's control.
        """
        return k_language_equal_within(
            kernel_of(self.old_public),
            kernel_of(self.new_public),
            kernel_of(partner_public),
        )

    def describe(self) -> str:
        """One-line verdict rendering."""
        parts = [self.framework]
        if self.propagation is not None:
            parts.append(self.propagation)
            if self.partner:
                parts.append(f"w.r.t. {self.partner}")
        return " / ".join(parts)


def classify_change(old_public: AFSA, new_public: AFSA) -> ChangeClassification:
    """Classify δ along the change-framework dimension only (Def. 5).

    Both verdicts are *unannotated* inclusion tests — Def. 5 is about
    which message sequences exist, not about their mandatory status:
    ``A' \\ A ≠ ∅`` iff ``L(A') ⊄ L(A)``.
    """
    return ChangeClassification(
        additive=not language_included(new_public, old_public),
        subtractive=not language_included(old_public, new_public),
        old_public=old_public,
        new_public=new_public,
    )


def classify_against_partner(
    old_public: AFSA,
    new_public: AFSA,
    partner_public: AFSA,
    partner: str = "",
) -> ChangeClassification:
    """Full classification of δ against one partner (Defs. 5 + 6).

    When *partner* is given, both operands are projected onto the
    bilateral conversation first (τ_partner on the originator side; the
    partner's own public process is projected onto the originator's
    party if it mentions third parties) — Sect. 3.4's prerequisite that
    "the processes to be compared are representing the bilateral
    message exchanges only".

    Variance is the *annotated* consistency verdict — mandatory
    messages decide it (this is what makes Fig. 12b empty) — taken from
    the lazy pair engine and its verdict cache, so it is the verdict a
    consistency check of ``(τ_partner(A'), B)`` returns.
    """
    if partner:
        old_view = project_view(old_public, partner)
        new_view = project_view(new_public, partner)
    else:
        old_view = old_public
        new_view = new_public

    classification = classify_change(old_view, new_view)
    classification.variant = not is_consistent(new_view, partner_public)
    classification.partner = partner
    return classification
