"""Repetition vectors and consistency of CSDF graphs."""

import pickle

import pytest

from repro.csdf.actor import CSDFActor
from repro.csdf.builder import CSDFBuilder
from repro.csdf.edge import CSDFEdge
from repro.csdf.phase import PhaseVector
from repro.csdf.repetition import cycle_vector, is_consistent, repetition_vector
from repro.exceptions import InconsistentGraphError


class TestRepetitionVector:
    def test_unit_rate_chain(self, simple_chain_csdf):
        assert repetition_vector(simple_chain_csdf) == {"a": 1, "b": 1, "c": 1}

    def test_multirate_chain(self, multirate_csdf):
        # a produces 2, b consumes 1 => b fires twice per a firing;
        # b produces 3, c consumes 2 => c fires 3 times per 2 b firings.
        assert repetition_vector(multirate_csdf) == {"a": 1, "b": 2, "c": 3}

    def test_cycle_vector_counts_phase_cycles(self):
        graph = (
            CSDFBuilder("g")
            .actor("a", [1.0])
            .actor("b", [1.0, 1.0])  # two phases
            .edge("a", "b", production=[4], consumption=[1, 1])
            .build()
        )
        cycles = cycle_vector(graph)
        # a produces 4 per cycle; b consumes 2 per cycle of 2 phases -> 2 cycles of b.
        assert cycles == {"a": 1, "b": 2}
        assert repetition_vector(graph) == {"a": 1, "b": 4}

    def test_inconsistent_graph_detected(self):
        graph = (
            CSDFBuilder("bad")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[2], consumption=[1])
            .edge("a", "b", production=[1], consumption=[1])
            .build()
        )
        with pytest.raises(InconsistentGraphError):
            repetition_vector(graph)
        assert not is_consistent(graph)

    def test_cyclic_graph_with_consistent_rates(self):
        graph = (
            CSDFBuilder("loop")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1], consumption=[1])
            .edge("b", "a", production=[1], consumption=[1], initial_tokens=1)
            .build()
        )
        assert repetition_vector(graph) == {"a": 1, "b": 1}

    def test_disconnected_components_each_get_a_solution(self):
        graph = (
            CSDFBuilder("two_parts")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .actor("x", [1.0])
            .actor("y", [1.0])
            .edge("a", "b", production=[2], consumption=[1])
            .edge("x", "y", production=[1], consumption=[3])
            .build()
        )
        repetitions = repetition_vector(graph)
        assert repetitions["b"] == 2 * repetitions["a"]
        assert repetitions["x"] == 3 * repetitions["y"]

    def test_zero_rate_on_one_side_is_inconsistent(self):
        graph = (
            CSDFBuilder("zero")
            .actor("a", [1.0])
            .actor("b", [1.0, 1.0])
            .edge("a", "b", production=[1], consumption=[0, 0])
            .build()
        )
        with pytest.raises(InconsistentGraphError):
            repetition_vector(graph)

    def test_empty_graph_rejected(self):
        from repro.csdf.graph import CSDFGraph

        with pytest.raises(InconsistentGraphError):
            repetition_vector(CSDFGraph("empty"))

    def test_hiperlan_like_rates(self):
        # Mirrors the A/D -> prefix-removal -> frequency-offset structure.
        graph = (
            CSDFBuilder("hl2")
            .actor("adc", [0.0])
            .actor("pfx", [1.0] * 18)
            .actor("frq", [18.0, 32.0, 18.0])
            .edge("adc", "pfx", production=[80],
                  consumption=[8, 8, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0])
            .edge("pfx", "frq",
                  production=[0, 0, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8],
                  consumption=[8, 0, 0])
            .build()
        )
        repetitions = repetition_vector(graph)
        assert repetitions["adc"] == 1
        assert repetitions["pfx"] == 18
        assert repetitions["frq"] == 24  # 8 cycles of 3 phases


class TestInconsistencyMessages:
    """The integer solver reports inconsistencies in the same words as the
    former ``Fraction`` solver: the ratios are printed as fractions."""

    def test_fractional_ratio_message(self):
        graph = (
            CSDFBuilder("bad")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .actor("c", [1.0])
            .edge("a", "b", production=[3], consumption=[2])
            .edge("b", "c", production=[1], consumption=[1])
            .edge("a", "c", production=[1], consumption=[1])
            .build()
        )
        with pytest.raises(InconsistentGraphError) as error:
            repetition_vector(graph)
        assert str(error.value) == (
            "rate inconsistency detected at edge 'e2_b_c': actor 'b' would need "
            "cycle ratios 3/2 and 1"
        )

    def test_self_loop_message(self):
        graph = (
            CSDFBuilder("bad")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "a", production=[2], consumption=[1])
            .edge("a", "b", production=[1], consumption=[1])
            .build()
        )
        with pytest.raises(InconsistentGraphError) as error:
            repetition_vector(graph)
        assert str(error.value) == (
            "rate inconsistency detected at edge 'e1_a_a': actor 'a' would need "
            "cycle ratios 1 and 2"
        )

    def test_fractional_rates_are_exact(self):
        graph = (
            CSDFBuilder("f")
            .actor("a", [1.0])
            .actor("b", [1.0])
            .edge("a", "b", production=[1.5], consumption=[1])
            .build()
        )
        assert repetition_vector(graph) == {"a": 2, "b": 3}


class TestRepetitionCache:
    """The vector is cached on the graph and dropped with the fingerprint."""

    @staticmethod
    def _graph():
        return (
            CSDFBuilder("g")
            .actor("a", [1.0])
            .actor("b", [1.0, 2.0])
            .edge("a", "b", production=[2], consumption=[1, 1])
            .build()
        )

    def test_each_call_returns_a_fresh_dict(self):
        graph = self._graph()
        first = repetition_vector(graph)
        first["a"] = 99
        assert repetition_vector(graph) == {"a": 1, "b": 2}
        assert repetition_vector(graph) is not repetition_vector(graph)

    def test_survives_capacity_only_replace_and_copy(self):
        graph = self._graph()
        repetition_vector(graph)
        cached = graph._repetitions
        assert cached is not None
        edge = graph.edges[0]
        graph.replace_edge(edge.with_capacity(4))
        assert graph._repetitions is cached
        clone = graph.copy("clone")
        assert clone._repetitions is cached
        assert repetition_vector(clone) == {"a": 1, "b": 2}

    def test_add_edge_drops_it(self):
        graph = self._graph()
        repetition_vector(graph)
        graph.add_actor(CSDFActor("c", PhaseVector([1.0])))
        assert graph._repetitions is None
        repetition_vector(graph)
        graph.add_edge(
            CSDFEdge("e_b_c", "b", "c", PhaseVector([1]), PhaseVector([1]))
        )
        assert graph._repetitions is None
        assert repetition_vector(graph) == {"a": 1, "b": 2, "c": 2}

    def test_rate_changing_replace_drops_it(self):
        graph = self._graph()
        assert repetition_vector(graph) == {"a": 1, "b": 2}
        edge = graph.edges[0]
        graph.replace_edge(
            CSDFEdge(edge.name, "a", "b", PhaseVector([4]), edge.consumption_rates)
        )
        assert graph._repetitions is None
        assert repetition_vector(graph) == {"a": 1, "b": 4}

    def test_kept_out_of_pickles(self):
        graph = self._graph()
        before = pickle.dumps(graph)
        repetition_vector(graph)
        assert pickle.dumps(graph) == before
        restored = pickle.loads(pickle.dumps(graph))
        assert restored._repetitions is None
        assert repetition_vector(restored) == {"a": 1, "b": 2}
