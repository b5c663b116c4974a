"""Serialization of aFSAs: JSON round-trip and Graphviz DOT export.

The JSON schema is deliberately simple and stable so that automata can be
checked into test fixtures and exchanged between partners (the paper,
Sect. 6: "the only information which has to be exchanged between partners
is about the changes applied to public processes")::

    {
      "name": "party A",
      "states": ["q0", "q1"],
      "start": "q0",
      "finals": ["q1"],
      "alphabet": ["B#A#msg0"],
      "transitions": [["q0", "B#A#msg0", "q1"]],
      "annotations": {"q0": "B#A#msg0"}
    }

State identifiers are stringified on export; use
:meth:`AFSA.relabel_states` first when structural state names (tuples)
matter.  Annotations are serialized in the textual formula syntax and
re-parsed on import.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Any

from repro.afsa.automaton import AFSA, iter_sorted_transitions
from repro.afsa.kernel import Kernel
from repro.formula.parser import parse_formula
from repro.messages.alphabet import INTERNER


def afsa_to_dict(automaton: AFSA) -> dict[str, Any]:
    """Convert *automaton* to a JSON-friendly dict (states stringified)."""
    def state_id(state: Any) -> str:
        return state if isinstance(state, str) else repr(state)

    return {
        "name": automaton.name,
        "states": sorted(state_id(state) for state in automaton.states),
        "start": state_id(automaton.start),
        "finals": sorted(state_id(state) for state in automaton.finals),
        "alphabet": [str(label) for label in automaton.alphabet],
        "transitions": [
            [
                state_id(transition.source),
                "" if transition.is_silent else str(transition.label),
                state_id(transition.target),
            ]
            for transition in iter_sorted_transitions(automaton)
        ],
        "annotations": {
            state_id(state): str(formula)
            for state, formula in sorted(
                automaton.annotations.items(), key=lambda item: repr(item[0])
            )
        },
    }


def afsa_from_dict(data: dict[str, Any]) -> AFSA:
    """Rebuild an :class:`AFSA` from :func:`afsa_to_dict` output."""
    return AFSA(
        states=data.get("states", ()),
        transitions=[
            (source, label, target)
            for source, label, target in data.get("transitions", ())
        ],
        start=data["start"],
        finals=data.get("finals", ()),
        annotations={
            state: parse_formula(text)
            for state, text in data.get("annotations", {}).items()
        },
        alphabet=data.get("alphabet", ()),
        name=data.get("name", ""),
    )


def afsa_to_json(automaton: AFSA, indent: int = 2) -> str:
    """Serialize *automaton* to a JSON string."""
    return json.dumps(afsa_to_dict(automaton), indent=indent, sort_keys=True)


def afsa_from_json(text: str) -> AFSA:
    """Deserialize an automaton from :func:`afsa_to_json` output."""
    return afsa_from_dict(json.loads(text))


def kernel_to_wire(kernel: Kernel) -> tuple:
    """Pack *kernel* into the dense wire format shards receive.

    The sweep and migration engines used to re-serialize operands to
    the partner-exchange JSON for every worker payload, and workers
    paid a full parse + ``AFSA`` validation + kernel rebuild per pair.
    The wire tuple instead ships the interned dense arrays directly:
    int adjacency with a *local* label table (interner ids are
    process-local, so labels travel as canonical texts and are
    re-interned on arrival — a few dozen strings, not per-transition
    work), annotation formulas in the textual syntax, and state names
    as-is (they must be picklable; witness canonicality sorts by their
    ``repr``, so shipping the original objects keeps worker output
    byte-identical to the serial path).

    The tuple is *canonical*: set-shaped fields (finals, annotations,
    alphabet) are sorted and adjacency labels travel in first-appearance
    order, which a wire → kernel → wire round trip preserves.  Interner
    ids are process-local, so any encoding that leaked their values (or
    their hash-dependent frozenset iteration order) would make the same
    logical kernel serialize to different bytes in parent and worker —
    and the payload digest (:func:`payload_digest`) is the
    content-address the arena, the rendezvous router and the worker
    caches all key on.
    """
    text_of = INTERNER.text
    local_ids: dict = {}
    labels: list = []
    rows = []
    for row in kernel.adj:
        out = []
        for lid, targets in row.items():
            local = local_ids.get(lid)
            if local is None:
                local = local_ids[lid] = len(labels)
                labels.append(text_of(lid))
            out.append((local, targets))
        rows.append(tuple(out))
    return (
        kernel.n,
        kernel.start,
        list(kernel.names),
        tuple(sorted(kernel.finals)),
        tuple(
            (state, str(formula))
            for state, formula in sorted(kernel.ann.items())
        ),
        tuple(rows),
        tuple(kernel.eps),
        tuple(labels),
        tuple(sorted(text_of(lid) for lid in kernel.alphabet_ids)),
    )


def kernel_from_wire(wire: tuple) -> Kernel:
    """Rebuild a :class:`~repro.afsa.kernel.Kernel` from
    :func:`kernel_to_wire` output (trusted path: no ``AFSA`` is
    materialized and nothing is revalidated)."""
    n, start, names, finals, ann, rows, eps, labels, alphabet = wire
    intern = INTERNER.intern
    lids = [intern(text) for text in labels]
    return Kernel(
        n=n,
        start=start,
        names=list(names),
        finals=frozenset(finals),
        ann={state: parse_formula(text) for state, text in ann},
        adj=[
            {lids[local]: tuple(targets) for local, targets in row}
            for row in rows
        ],
        eps=[tuple(targets) for targets in eps],
        alphabet_ids=frozenset(intern(text) for text in alphabet),
    )


def kernel_to_payload(kernel: Kernel) -> bytes:
    """Pack *kernel* as the bytes the arena publishes and shards fetch:
    the dense wire tuple, pickled."""
    return pickle.dumps(
        kernel_to_wire(kernel), protocol=pickle.HIGHEST_PROTOCOL
    )


def kernel_from_payload(payload: bytes) -> Kernel:
    """Rebuild a kernel from :func:`kernel_to_payload` bytes."""
    return kernel_from_wire(pickle.loads(payload))


def payload_digest(payload: bytes) -> str:
    """Content address of a kernel payload: blake2b over the exact
    payload bytes.

    Digest equality is the distributed cache-correctness contract —
    the arena dedups publishes by it, the rendezvous router hashes it,
    and worker memos key on it — so it must be a function of kernel
    *content* only.  :func:`kernel_to_wire` guarantees that by
    canonicalizing every set-shaped field; this function just hashes
    the resulting bytes.
    """
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def kernel_digest(kernel: Kernel) -> str:
    """The content digest of *kernel* (memoized on the kernel).

    Serializing is the dominant cost, so the digest is computed once
    per kernel object and cached in a slot; the arena's publish path
    stores the digest it derived from the payload it just built, so
    published kernels never pay a second serialization here.
    """
    digest = kernel._digest
    if digest is None:
        digest = kernel._digest = payload_digest(kernel_to_payload(kernel))
    return digest


def afsa_to_dot(automaton: AFSA, shorten_labels: bool = True) -> str:
    """Render *automaton* as Graphviz DOT (paper-figure styling).

    Final states are double circles (the paper's "thick line"); state
    annotations appear as box-shaped satellite nodes connected by dashed
    edges, exactly like the squares in the paper's figures.

    Args:
        shorten_labels: render annotation variables with bare operation
            names (``terminateOp AND get_statusOp``) as the figures do.
    """
    def state_id(state: Any) -> str:
        text = state if isinstance(state, str) else repr(state)
        return json.dumps(text)

    def short(text: str) -> str:
        if not shorten_labels:
            return text
        parts = text.split("#")
        return parts[-1] if len(parts) == 3 else text

    lines = ["digraph afsa {", "  rankdir=LR;"]
    if automaton.name:
        lines.append(f"  label={json.dumps(automaton.name)};")
    lines.append('  __start__ [shape=point, label=""];')
    for state in sorted(automaton.states, key=repr):
        shape = (
            "doublecircle" if state in automaton.finals else "circle"
        )
        lines.append(f"  {state_id(state)} [shape={shape}];")
    lines.append(f"  __start__ -> {state_id(automaton.start)};")
    for transition in iter_sorted_transitions(automaton):
        label = "ε" if transition.is_silent else short(str(transition.label))
        lines.append(
            f"  {state_id(transition.source)} -> "
            f"{state_id(transition.target)} "
            f"[label={json.dumps(label)}];"
        )
    for index, (state, formula) in enumerate(
        sorted(automaton.annotations.items(), key=lambda item: repr(item[0]))
    ):
        rendered = str(formula)
        if shorten_labels:
            rendered = " ".join(
                short(token) for token in rendered.split(" ")
            )
        annotation_id = f'"__annotation_{index}__"'
        lines.append(
            f"  {annotation_id} [shape=box, label={json.dumps(rendered)}];"
        )
        lines.append(
            f"  {state_id(state)} -> {annotation_id} "
            f"[style=dashed, arrowhead=none];"
        )
    lines.append("}")
    return "\n".join(lines)
