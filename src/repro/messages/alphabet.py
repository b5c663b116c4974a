"""Alphabets: finite sets of message labels with partner-oriented queries.

An :class:`Alphabet` wraps the Σ component of an aFSA (Def. 2).  It is a
thin, immutable-by-convention set wrapper that adds the queries the
choreography layer needs: which partners appear, which labels involve a
given partner, and set algebra used by the intersection (Σ1 ∩ Σ2, Def. 3)
and difference (completed over Σ1 ∪ Σ2, see DESIGN.md deviation #1)
operators.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.messages.label import (
    Label,
    MessageLabel,
    is_epsilon,
    label_text,
    parse_label,
)


class LabelInterner:
    """Process-wide interning of message labels to dense integers.

    The aFSA kernel (:mod:`repro.afsa.kernel`) stores transitions as
    integer adjacency structures; all kernels share this one table so a
    label interned while building one automaton keeps the same id in
    every product/difference/view derived from it.  The table only ever
    grows, which is fine: a choreography uses a few dozen distinct
    message labels, not millions.
    """

    __slots__ = ("_ids", "_labels", "_texts", "_text_ids")

    def __init__(self):
        self._ids: dict = {}
        self._labels: list = []
        self._texts: list = []
        #: Exact ``str`` inputs already interned, so a repeated text
        #: (every label of every replayed trace) skips the parse.
        #: Filled only after a successful parse: a malformed text
        #: raises on every call.
        self._text_ids: dict = {}

    def __len__(self) -> int:
        return len(self._labels)

    def intern(self, label: Label) -> int:
        """Return the dense id of *label* (assigning one if new)."""
        is_text = type(label) is str
        if is_text:
            index = self._text_ids.get(label)
            if index is not None:
                return index
        parsed = parse_label(label)
        index = self._ids.get(parsed)
        if index is None:
            index = len(self._labels)
            self._ids[parsed] = index
            self._labels.append(parsed)
            self._texts.append(label_text(parsed))
        if is_text:
            self._text_ids[label] = index
        return index

    def label(self, index: int) -> Label:
        """Return the label object for dense id *index*."""
        return self._labels[index]

    def text(self, index: int) -> str:
        """Return the canonical text of the label with id *index*."""
        return self._texts[index]


#: The shared interning table used by every kernel in the process.
INTERNER = LabelInterner()


class Alphabet:
    """A finite set of transition labels (ε is never a member).

    The constructor normalizes raw ``"A#B#op"`` strings into
    :class:`MessageLabel` instances so that alphabets built from textual
    input compare equal to alphabets built programmatically.
    """

    def __init__(self, labels: Iterable[Label] = ()):
        normalized = set()
        for label in labels:
            if is_epsilon(label):
                continue
            normalized.add(parse_label(label))
        self._labels: frozenset = frozenset(normalized)

    @classmethod
    def _from_parsed(cls, labels: frozenset) -> "Alphabet":
        """Trusted constructor: *labels* are already parsed and ε-free.

        Used by the kernel when materializing an :class:`AFSA` — the
        labels come out of the interner, which only stores normalized
        parsed labels.
        """
        self = object.__new__(cls)
        self._labels = labels
        return self

    def __contains__(self, label: Label) -> bool:
        if is_epsilon(label):
            return False
        return parse_label(label) in self._labels

    def __iter__(self) -> Iterator[Label]:
        return iter(sorted(self._labels, key=str))

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Alphabet):
            return self._labels == other._labels
        if isinstance(other, (set, frozenset)):
            return self._labels == Alphabet(other)._labels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        inner = ", ".join(str(label) for label in self)
        return f"Alphabet({{{inner}}})"

    # -- set algebra ------------------------------------------------------

    def union(self, other: "Alphabet | Iterable[Label]") -> "Alphabet":
        """Return Σ1 ∪ Σ2 (used when completing automata for difference)."""
        return Alphabet(list(self._labels) + list(Alphabet(other)._labels))

    def intersection(self, other: "Alphabet | Iterable[Label]") -> "Alphabet":
        """Return Σ1 ∩ Σ2 (the alphabet of the Def. 3 intersection)."""
        other_set = Alphabet(other)._labels
        return Alphabet(label for label in self._labels if label in other_set)

    def difference(self, other: "Alphabet | Iterable[Label]") -> "Alphabet":
        """Return Σ1 \\ Σ2."""
        other_set = Alphabet(other)._labels
        return Alphabet(
            label for label in self._labels if label not in other_set
        )

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # -- partner queries --------------------------------------------------

    def partners(self) -> set[str]:
        """Return the set of partner names appearing in any message label."""
        names: set[str] = set()
        for label in self._labels:
            if isinstance(label, MessageLabel):
                names.add(label.sender)
                names.add(label.receiver)
        return names

    def involving(self, partner: str) -> "Alphabet":
        """Return the sub-alphabet of messages with *partner* as endpoint."""
        return Alphabet(
            label
            for label in self._labels
            if isinstance(label, MessageLabel) and label.involves(partner)
        )

    def not_involving(self, partner: str) -> "Alphabet":
        """Return the sub-alphabet of messages *partner* does not see."""
        return Alphabet(
            label
            for label in self._labels
            if not (
                isinstance(label, MessageLabel) and label.involves(partner)
            )
        )

    def sent_by(self, partner: str) -> "Alphabet":
        """Return the sub-alphabet of messages sent by *partner*."""
        return Alphabet(
            label
            for label in self._labels
            if isinstance(label, MessageLabel) and label.sender == partner
        )

    def received_by(self, partner: str) -> "Alphabet":
        """Return the sub-alphabet of messages received by *partner*."""
        return Alphabet(
            label
            for label in self._labels
            if isinstance(label, MessageLabel) and label.receiver == partner
        )

    def operations(self) -> set[str]:
        """Return all operation names (opaque labels count as their text)."""
        result: set[str] = set()
        for label in self._labels:
            if isinstance(label, MessageLabel):
                result.add(label.operation)
            else:
                result.add(str(label))
        return result
