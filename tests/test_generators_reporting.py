"""Tests for the synthetic DFG generators and the reporting helpers."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.analysis import rec_ii
from repro.graphs.dfg import DependenceKind
from repro.graphs.generators import (
    binary_tree_dfg,
    chain_dfg,
    layered_dfg,
    random_dfg,
)
from repro.reporting.figures import Series, render_line_chart, series_to_csv
from repro.reporting.tables import Table, format_ratio, format_seconds

from oracles.graphs import data_dag, undirected_graph


class TestGenerators:
    def test_chain(self):
        dfg = chain_dfg(5)
        assert dfg.num_nodes == 5
        assert rec_ii(dfg) == 5
        assert chain_dfg(5, loop_carried=False).loop_carried_edges() == []

    def test_chain_rejects_bad_length(self):
        with pytest.raises(ValueError):
            chain_dfg(0)

    def test_binary_tree(self):
        dfg = binary_tree_dfg(3)
        assert dfg.num_nodes == 8 + 7
        assert dfg.loop_carried_edges() == []
        dfg.validate()

    def test_layered(self):
        dfg = layered_dfg([3, 4, 2], seed=1)
        assert dfg.num_nodes == 9
        dfg.validate()
        with pytest.raises(ValueError):
            layered_dfg([])

    @settings(max_examples=30, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=30),
        edge_probability=st.floats(min_value=0.0, max_value=0.5),
        num_loop_carried=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_dfg_invariants(self, num_nodes, edge_probability,
                                   num_loop_carried, seed):
        dfg = random_dfg(num_nodes, edge_probability, num_loop_carried,
                         seed=seed)
        dfg.validate()
        assert dfg.num_nodes == num_nodes
        assert nx.is_directed_acyclic_graph(data_dag(dfg))
        assert nx.is_connected(undirected_graph(dfg))
        assert len(dfg.loop_carried_edges()) <= num_loop_carried
        for edge in dfg.edges():
            if edge.kind is DependenceKind.LOOP_CARRIED:
                assert edge.distance >= 1

    def test_random_dfg_is_deterministic_per_seed(self):
        assert random_dfg(15, seed=7).to_dict() == random_dfg(15, seed=7).to_dict()


class TestTables:
    def test_render_and_column(self):
        table = Table(headers=["name", "value"], title="demo")
        table.add_row("a", 1)
        table.add_row("b", None)
        text = table.render()
        assert "demo" in text and "name" in text and "-" in text
        assert table.column("value") == [1, None]
        assert len(table) == 2

    def test_row_width_checked(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_csv(self, tmp_path):
        table = Table(headers=["x", "y"])
        table.add_row(1, 2.5)
        path = tmp_path / "out.csv"
        text = table.to_csv(str(path))
        assert "x,y" in text
        assert path.read_text().startswith("x,y")

    def test_formatters(self):
        assert format_seconds(None) == "TO"
        assert format_seconds(0.001) == "~0.01"
        assert format_seconds(1.234) == "1.23"
        assert format_ratio(None) == "-"
        assert format_ratio(12.3456) == "12.35"


class TestFigures:
    def test_render_line_chart(self):
        ours = Series("ours", ["2x2", "5x5"], [0.1, 0.2])
        baseline = Series("baseline", ["2x2", "5x5"], [1.0, None])
        text = render_line_chart([ours, baseline], title="demo")
        assert "demo" in text and "legend" in text
        assert "ours" in text and "baseline" in text

    def test_render_empty(self):
        assert render_line_chart([Series("x", ["a"], [None])]) == "(no data)"

    def test_series_csv(self, tmp_path):
        ours = Series("ours", ["2x2", "5x5"], [0.1, 0.2])
        path = tmp_path / "series.csv"
        text = series_to_csv([ours], str(path))
        assert "x,ours" in text
        assert path.exists()
