"""Tests for graph generators, IO, statistics and builders."""

import pytest

from repro.errors import DatasetError, GraphError
from repro.graphs.builders import paper_running_example, path_graph, star_graph
from repro.graphs.generators import (
    PlantedAStar,
    planted_astar_graph,
    random_attributed_graph,
)
from repro.graphs.io import (
    from_json_dict,
    load_json,
    save_json,
    to_adjacency_text,
    to_json_dict,
)
from repro.graphs.stats import graph_stats, stats_table


class TestBuilders:
    def test_running_example_shape(self):
        graph = paper_running_example()
        assert graph.num_vertices == 5
        assert graph.num_edges == 5
        assert graph.attributes_of(2) == frozenset({"a", "c"})
        assert graph.is_connected()

    def test_star_graph(self):
        graph = star_graph(["x"], [["a"], ["b", "c"]])
        assert graph.degree(0) == 2
        assert graph.neighbor_values(0) == frozenset({"a", "b", "c"})

    def test_star_graph_needs_leaves(self):
        with pytest.raises(GraphError):
            star_graph(["x"], [])

    def test_path_graph(self):
        graph = path_graph([["a"], ["b"], ["c"]])
        assert graph.num_edges == 2
        assert graph.degree(1) == 2

    def test_path_graph_empty(self):
        with pytest.raises(GraphError):
            path_graph([])


class TestGenerators:
    def test_random_graph_connected_and_sized(self):
        graph = random_attributed_graph(30, 60, ["a", "b", "c"], seed=1)
        assert graph.num_vertices == 30
        assert graph.num_edges == 60
        assert graph.is_connected()
        for vertex in graph.vertices():
            assert len(graph.attributes_of(vertex)) == 2

    def test_random_graph_seeded(self):
        first = random_attributed_graph(20, 40, ["a", "b"], seed=5)
        second = random_attributed_graph(20, 40, ["a", "b"], seed=5)
        assert first == second

    def test_random_graph_guards(self):
        with pytest.raises(DatasetError):
            random_attributed_graph(10, 3, ["a"])  # too few edges
        with pytest.raises(DatasetError):
            random_attributed_graph(4, 100, ["a"])  # too many edges
        with pytest.raises(DatasetError):
            random_attributed_graph(4, 4, [])  # no values

    def test_planted_graph_places_cores(self):
        patterns = [PlantedAStar("core", ("l1", "l2"), strength=1.0)]
        graph, truth = planted_astar_graph(
            50, 120, patterns, noise_values=("n",), seed=0
        )
        positions = truth.core_positions["core"]
        assert positions
        for vertex in positions:
            assert "core" in graph.attributes_of(vertex)

    def test_planted_strength_one_means_leaves_nearby(self):
        patterns = [PlantedAStar("core", ("l1",), strength=1.0)]
        graph, truth = planted_astar_graph(40, 100, patterns, seed=3)
        hits = sum(
            1
            for vertex in truth.core_positions["core"]
            if "l1" in graph.neighbor_values(vertex)
        )
        assert hits / len(truth.core_positions["core"]) > 0.9

    def test_planted_guards(self):
        with pytest.raises(DatasetError):
            planted_astar_graph(10, 20, [], noise_rate=2.0)
        with pytest.raises(DatasetError):
            planted_astar_graph(10, 20, [], carrier_fraction=0.0)


class TestIO:
    def test_json_round_trip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.json"
        save_json(paper_graph, path)
        loaded = load_json(path)
        assert loaded == paper_graph

    def test_json_dict_round_trip(self, paper_graph):
        assert from_json_dict(to_json_dict(paper_graph)) == paper_graph

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_json(tmp_path / "missing.json")

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GraphError):
            load_json(path)

    def test_adjacency_text_mentions_all_vertices(self, paper_graph):
        text = to_adjacency_text(paper_graph)
        assert len(text.splitlines()) == paper_graph.num_vertices
        assert "a,c" in text  # v2's values


class TestJsonBoundary:
    """``from_json_dict`` rejects malformed documents with the JSON path
    of the first offending entry and still loads every valid shape."""

    @pytest.mark.parametrize(
        "document, path",
        [
            ({"vertices": [[1]]}, "vertices[0]"),
            ({"vertices": [1, {"id": 2}]}, "vertices[1]"),
            ({"edges": [[1]]}, "edges[0]"),
            ({"edges": [[1, 2], [1, 2, 3]]}, "edges[1]"),
            ({"edges": [5]}, "edges[0]"),
            ({"edges": [[1, 2], "12"]}, "edges[1]"),
            ({"edges": [[1, 2], {"u": 1, "v": 2}]}, "edges[1]"),
            ({"edges": [[[1], 2]]}, "edges[0]"),
            ({"edges": [[1, {}]]}, "edges[0]"),
            ({"edges": [[1, 2], [3, 4], [5, 5]]}, "edges[2]"),
            ({"attributes": {"1": "abc"}}, 'attributes["1"]'),
            ({"attributes": {"1": 5}}, 'attributes["1"]'),
            ({"attributes": {"1": None}}, 'attributes["1"]'),
            ({"attributes": {"x": {"a": 1}}}, 'attributes["x"]'),
            ({"attributes": {"1": ["a"], "2": ["b", ["c"]]}}, 'attributes["2"]'),
            ({"vertices": {}}, "vertices"),
            ({"edges": "ab"}, "edges"),
            ({"attributes": []}, "attributes"),
            ({"attributes": {"1": ["a", None]}}, 'attributes["1"]'),
            ({"attributes": {"1": [1.5], "2": [None]}}, 'attributes["2"]'),
            ({"attributes": {"1": [True, 1]}}, 'attributes["1"]'),
            ({"attributes": {"1": ["a"], "2": [False]}}, 'attributes["2"]'),
            ({"attributes": {"1": ["a", 1]}}, 'attributes["1"]'),
            ({"attributes": {"1": ["a"], "2": ["b", 2.5]}}, 'attributes["2"]'),
            ({"attributes": {"1": [1], "2": [2], "3": ["c"]}}, 'attributes["3"]'),
        ],
    )
    def test_malformed_entry_named_by_path(self, document, path):
        with pytest.raises(GraphError) as excinfo:
            from_json_dict(document)
        assert str(excinfo.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("document", [[], "graph", 5, None])
    def test_non_object_document_rejected(self, document):
        with pytest.raises(GraphError, match="must be an object"):
            from_json_dict(document)

    def test_empty_document_is_the_empty_graph(self):
        graph = from_json_dict({})
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_edge_endpoints_need_not_be_listed_as_vertices(self):
        graph = from_json_dict({"edges": [[1, 2], [2, 3]]})
        assert sorted(graph.vertices()) == [1, 2, 3]
        assert graph.num_edges == 2

    def test_attributes_may_introduce_isolated_vertices(self):
        graph = from_json_dict({"attributes": {"7": ["a", "b"]}})
        assert graph.attributes_of(7) == frozenset({"a", "b"})
        assert graph.degree(7) == 0

    def test_numeric_values_are_kept(self):
        graph = from_json_dict({"attributes": {"1": [3, 2.5], "2": [3]}})
        assert graph.attributes_of(1) == frozenset({3, 2.5})
        assert graph.attributes_of(2) == frozenset({3})

    def test_numeric_looking_string_ids_keep_their_attributes(self):
        document = {
            "edges": [["1", "2"], ["2", "3"]],
            "attributes": {"1": ["x", "y"], "2": ["x", "y"], "3": ["x"]},
        }
        graph = from_json_dict(document)
        assert sorted(graph.vertices()) == ["1", "2", "3"]
        assert graph.attributes_of("1") == frozenset({"x", "y"})
        assert graph.attributes_of("3") == frozenset({"x"})

    def test_float_ids_keep_their_attributes(self):
        graph = from_json_dict(
            {"edges": [[1.5, 2]], "attributes": {"1.5": ["x"], "2": ["y"]}}
        )
        assert sorted(graph.vertices()) == [1.5, 2]
        assert graph.attributes_of(1.5) == frozenset({"x"})
        assert graph.attributes_of(2) == frozenset({"y"})

    @pytest.mark.parametrize(
        "document, int_vertices, expected",
        [
            ({"edges": [[1, 2]], "attributes": {"1": ["a"]}}, True, 1),
            ({"edges": [[1, 2]], "attributes": {"1": ["a"]}}, False, 1),
            ({"edges": [["1", 2]], "attributes": {"1": ["a"]}}, True, "1"),
            ({"edges": [[-3, 2]], "attributes": {"-3": ["a"]}}, True, -3),
            ({"edges": [[0.5, 2]], "attributes": {"0.5": ["a"]}}, False, 0.5),
            ({"vertices": ["b", 2], "attributes": {"b": ["a"]}}, True, "b"),
            ({"edges": [[1, 2]], "attributes": {"7": ["a"]}}, True, 7),
            ({"edges": [[1, 2]], "attributes": {"7": ["a"]}}, False, "7"),
        ],
        ids=[
            "int",
            "int-keeping-string-keys",
            "digit-string",
            "negative-int",
            "float",
            "string-among-ints",
            "unnamed-parsed",
            "unnamed-kept",
        ],
    )
    def test_attribute_key_resolution(self, document, int_vertices, expected):
        graph = from_json_dict(document, int_vertices=int_vertices)
        owners = [v for v in graph if graph.attributes_of(v) == {"a"}]
        assert owners == [expected]
        assert type(owners[0]) is type(expected)

    @pytest.mark.parametrize(
        "document",
        [
            {"vertices": [1, "1"]},
            {"edges": [[1, 2], ["2", 3]], "attributes": {"2": ["a"]}},
            {"vertices": [1.5, "1.5"]},
        ],
        ids=["vertices", "edges", "float"],
    )
    def test_ids_sharing_a_string_form_rejected(self, document):
        with pytest.raises(GraphError, match="share the attributes key"):
            from_json_dict(document)

    @pytest.mark.parametrize(
        "ids",
        [["1", "2", "3"], [1.5, 2, "x"], ["1", 2, "b"]],
        ids=["digit-strings", "float-int-string", "digit-string-int"],
    )
    def test_mixed_ids_round_trip(self, tmp_path, ids):
        from repro.graphs.attributed_graph import AttributedGraph

        graph = AttributedGraph()
        graph.add_edge(ids[0], ids[1])
        graph.add_edge(ids[1], ids[2])
        for index, vertex in enumerate(ids):
            graph.set_attributes(vertex, ["a", f"v{index}"])
        path = tmp_path / "graph.json"
        save_json(graph, path)
        loaded = load_json(path)
        assert loaded == graph
        assert loaded.num_vertices == 3

    def test_string_keys_kept_without_int_vertices(self):
        document = {"edges": [["1", "2"]], "attributes": {"1": ["a"]}}
        graph = from_json_dict(document, int_vertices=False)
        assert graph.attributes_of("1") == frozenset({"a"})
        assert sorted(graph.vertices()) == ["1", "2"]

    @pytest.mark.parametrize(
        "name", ["usflight", "dblp", "dblp-trend", "cora", "citeseer", "pokec"]
    )
    def test_dataset_analogues_round_trip(self, tmp_path, name):
        from repro.datasets.registry import load_dataset

        graph = load_dataset(name, scale=0.001 if name == "pokec" else 0.05)
        path = tmp_path / f"{name}.json"
        save_json(graph, path)
        assert load_json(path) == graph


class TestStats:
    def test_paper_graph_stats(self, paper_graph):
        stats = graph_stats(paper_graph)
        assert stats.num_vertices == 5
        assert stats.num_edges == 5
        assert stats.num_values == 3
        assert stats.num_coresets == 3
        assert stats.avg_values_per_vertex == pytest.approx(7 / 5)
        assert stats.avg_degree == pytest.approx(2.0)

    def test_coresets_require_attributed_neighbours(self):
        from repro.graphs.attributed_graph import AttributedGraph

        graph = AttributedGraph.from_edges(
            [(1, 2)], {1: {"a"}, 2: set(), 3: {"b"}}
        )
        stats = graph_stats(graph)
        # 'a' has only an unattributed neighbour; 'b' is isolated.
        assert stats.num_coresets == 0

    def test_stats_table_format(self, paper_graph):
        text = stats_table([("example", paper_graph)])
        assert "example" in text
        assert "#Nodes" in text
