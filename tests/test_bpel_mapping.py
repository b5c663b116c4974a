"""Unit tests for the mapping table (Table 1) and state correspondence."""

from repro.bpel.mapping import MappingTable
from repro.afsa.automaton import AFSABuilder
from repro.afsa.kernel import k_minimize_with_origins, kernel_of


def state_correspondence(automaton):
    """Minimized state name -> the raw state names it represents."""
    kernel = kernel_of(automaton)
    reduced, origins = k_minimize_with_origins(kernel)
    return {
        reduced.names[index]: {kernel.names[state] for state in states}
        for index, states in enumerate(origins)
    }


class TestMappingTable:
    def _table(self):
        table = MappingTable()
        table.associate(1, ("BPELProcess",))
        table.associate(1, ("BPELProcess", "Sequence:main"))
        table.associate(
            2, ("BPELProcess", "Sequence:main", "While:loop")
        )
        return table

    def test_blocks_for_state(self):
        table = self._table()
        assert table.blocks_for_state(1) == [
            "BPELProcess",
            "Sequence:main",
        ]

    def test_states_for_block(self):
        table = self._table()
        assert table.states_for_block("While:loop") == [2]
        assert table.states_for_block("Sequence:main") == [1]

    def test_enclosing_blocks(self):
        table = self._table()
        assert table.enclosing_blocks("While:loop") == [
            "BPELProcess",
            "Sequence:main",
        ]

    def test_innermost_common_block(self):
        table = self._table()
        assert table.innermost_common_block(1) == "Sequence:main"
        assert table.innermost_common_block(2) == "While:loop"
        assert table.innermost_common_block(99) is None

    def test_rows_shape(self):
        rows = self._table().rows()
        assert rows[0] == (1, ["BPELProcess", "Sequence:main"])

    def test_render_contains_blocks(self):
        rendered = self._table().render()
        assert "While:loop" in rendered
        assert "BPEL Block Name" in rendered

    def test_equality(self):
        assert self._table() == self._table()
        assert self._table() != MappingTable()

    def test_composed_with(self):
        table = self._table()
        composed = table.composed_with({"m0": {1}, "m1": {1, 2}})
        assert composed.blocks_for_state("m0") == [
            "BPELProcess",
            "Sequence:main",
        ]
        assert "While:loop" in composed.blocks_for_state("m1")

    def test_duplicate_association_idempotent(self):
        table = MappingTable()
        table.associate(1, ("X",))
        table.associate(1, ("X",))
        assert table.paths_for_state(1) == [("X",)]


class TestStateCorrespondence:
    def test_identity_on_dfa(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.mark_final("b")
        automaton = builder.build(start="a")
        correspondence = state_correspondence(automaton)
        assert correspondence == {"m0": {"a"}, "m1": {"b"}}

    def test_merged_states_grouped(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b1")
        builder.add_transition("a", "A#B#y", "b2")
        builder.add_transition("b1", "A#B#z", "f")
        builder.add_transition("b2", "A#B#z", "f")
        builder.mark_final("f")
        automaton = builder.build(start="a")
        correspondence = state_correspondence(automaton)
        merged = [
            raw for raw in correspondence.values() if raw == {"b1", "b2"}
        ]
        assert len(merged) == 1

    def test_epsilon_closure_included(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        builder.add_epsilon("b", "c")
        builder.add_transition("c", "A#B#y", "f")
        builder.mark_final("f")
        automaton = builder.build(start="a")
        correspondence = state_correspondence(automaton)
        post_x = next(
            raw
            for reduced, raw in correspondence.items()
            if "b" in raw
        )
        assert "c" in post_x

    def test_paper_buyer_correspondence(self, buyer_compiled):
        correspondence = buyer_compiled.correspondence
        assert correspondence[1] == {1}
        # The loop state merges the compiled loop-head with the
        # post-status junction.
        assert 3 in correspondence[3]
        assert len(correspondence[3]) >= 2


class TestTable1:
    """Row-by-row reproduction of Table 1 of the paper."""

    def test_row_1(self, buyer_compiled):
        assert buyer_compiled.mapping.blocks_for_state(1) == [
            "BPELProcess",
            "Sequence:buyer process",
        ]

    def test_row_2(self, buyer_compiled):
        assert buyer_compiled.mapping.blocks_for_state(2) == [
            "Sequence:buyer process"
        ]

    def test_row_3(self, buyer_compiled):
        assert buyer_compiled.mapping.blocks_for_state(3) == [
            "Sequence:buyer process",
            "While:tracking",
            "Switch:termination?",
            "Sequence:cond continue",
            "Sequence:cond terminate",
        ]

    def test_row_4(self, buyer_compiled):
        assert buyer_compiled.mapping.blocks_for_state(4) == [
            "Sequence:cond continue"
        ]

    def test_row_5(self, buyer_compiled):
        assert buyer_compiled.mapping.blocks_for_state(5) == [
            "Sequence:cond terminate"
        ]

    def test_inverse_lookup(self, buyer_compiled):
        mapping = buyer_compiled.mapping
        assert mapping.states_for_block("While:tracking") == [3]

    def test_enclosing_chain_for_propagation(self, buyer_compiled):
        """Sect. 5.3 'ad 3': from 'cond continue' the higher-level
        blocks include While:tracking."""
        chain = buyer_compiled.mapping.enclosing_blocks(
            "Sequence:cond continue"
        )
        assert "While:tracking" in chain
