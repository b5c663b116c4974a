"""The state ↔ BPEL-block mapping table (Sect. 3.3, Table 1).

The compiler records, for every aFSA state it creates, the blocks of the
private process the state belongs to: the blocks that *begin* at the
state plus the innermost block whose sequencing created it.  This
reproduces Table 1 for the buyer process and is the lookup structure the
propagation algorithms use in step 3 ("derive the regions of the
opponent's private process where adaptations have to be performed").

Because the published public processes are *minimized*, the table must
survive minimization: the minimizer reports which raw compiler states
each minimized state represents
(:func:`repro.afsa.kernel.k_minimize_with_origins`), and
:meth:`MappingTable.composed_with` regroups the entries accordingly.
"""

from __future__ import annotations

from repro.afsa.automaton import State

#: A block path: root-first chain of block names, e.g.
#: ("BPELProcess", "Sequence:buyer process", "While:tracking").
BlockPath = tuple[str, ...]


class MappingTable:
    """Relation between public-process states and private-process blocks.

    Entries map each state to a set of :data:`BlockPath` values.  The
    rendered form (see :meth:`rows`) lists block *names* like Table 1;
    full paths are kept so that propagation can climb to "a higher level
    block" (Sect. 5.3 step "ad 3").
    """

    def __init__(self, entries: dict[State, set[BlockPath]] | None = None):
        self._entries: dict[State, set[BlockPath]] = {}
        if entries:
            for state, paths in entries.items():
                self._entries[state] = set(paths)

    def associate(self, state: State, path: BlockPath) -> None:
        """Record that *state* belongs to the block at *path*."""
        self._entries.setdefault(state, set()).add(tuple(path))

    def states(self) -> list[State]:
        """Return all states with entries (stable order)."""
        return sorted(self._entries, key=repr)

    def paths_for_state(self, state: State) -> list[BlockPath]:
        """Return the block paths associated with *state* (sorted)."""
        return sorted(self._entries.get(state, ()))

    def blocks_for_state(self, state: State) -> list[str]:
        """Return the block *names* for *state* — one Table 1 row.

        Innermost blocks first is not meaningful here; Table 1 lists them
        in document order, which equals sorted path order because paths
        share prefixes.
        """
        names: list[str] = []
        for path in self.paths_for_state(state):
            name = path[-1]
            if name not in names:
                names.append(name)
        return names

    def states_for_block(self, block_name: str) -> list[State]:
        """Return the states associated with a block name (inverse
        lookup used by propagation step 3)."""
        result = []
        for state, paths in self._entries.items():
            if any(path[-1] == block_name for path in paths):
                result.append(state)
        return sorted(result, key=repr)

    def enclosing_blocks(self, block_name: str) -> list[str]:
        """Return the chain of blocks enclosing *block_name* (outermost
        first, excluding the block itself).

        Sect. 5.3: changes may have "to be performed either on the block
        … or in a higher level block"; this returns those candidates.
        """
        for paths in self._entries.values():
            for path in paths:
                if path and path[-1] == block_name:
                    return list(path[:-1])
        return []

    def innermost_common_block(self, state: State) -> str | None:
        """Return the innermost block name associated with *state*.

        Used when a single suggestion target must be picked: the deepest
        entry is the most specific region.
        """
        paths = self.paths_for_state(state)
        if not paths:
            return None
        deepest = max(paths, key=len)
        return deepest[-1]

    def rows(self) -> list[tuple[State, list[str]]]:
        """Return (state, block names) rows — the shape of Table 1."""
        return [
            (state, self.blocks_for_state(state)) for state in self.states()
        ]

    def render(self) -> str:
        """Render the table like Table 1 of the paper."""
        lines = ["State Number | BPEL Block Name", "-" * 48]
        for state, blocks in self.rows():
            lines.append(f"{state!r:>12} | {', '.join(blocks)}")
        return "\n".join(lines)

    def composed_with(
        self, correspondence: dict[State, set[State]]
    ) -> "MappingTable":
        """Return a table keyed by new states.

        *correspondence* maps each new state to the raw states it
        represents (``CompiledProcess.correspondence``); entries are
        unions of the raw states' entries.
        """
        result = MappingTable()
        for new_state, raw_states in correspondence.items():
            for raw_state in raw_states:
                for path in self._entries.get(raw_state, ()):
                    result.associate(new_state, path)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"<MappingTable: {len(self._entries)} states>"
