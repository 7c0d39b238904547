"""Construction-equivalence suite: batched == triples.

The columnar batch builder (``InvertedDatabase.from_graph``) must
reproduce the pre-columnar reference builder (``_from_graph_triples`` —
one ``_add_position`` per (coreset, vertex, leaf-value) triple)
*exactly*: identical row masks, row frequencies, interner ids,
``_initial_row_order``, snapshots, leaf unions and initial
``description_length`` floats, on every mask backend including the
64-bit-chunk stress variant.  The vectorised grouping's block
boundaries are pinned, as is the frozen vertex-order contract the
batch path relies on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CSPMConfig
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import BigintMaskBackend, ChunkedMaskBackend
from repro.core.mdl import description_length, initial_description_length
from repro.errors import ConfigError, MiningError
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph
from repro.graphs.io import save_json

# Production defaults, the wide chunks dense graphs get, and the
# chunk-boundary stress variant from tests/test_mask_backends.py.
ALL_BACKENDS = [
    BigintMaskBackend(),
    ChunkedMaskBackend(),
    ChunkedMaskBackend(chunk_bits=4096),
    ChunkedMaskBackend(chunk_bits=64),
]


def random_graph(seed, num_vertices=40, num_edges=95):
    graph, _ = planted_astar_graph(
        num_vertices,
        num_edges,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t",), strength=0.85),
        ],
        noise_values=("n1", "n2", "n3"),
        noise_rate=0.25,
        seed=seed,
    )
    return graph


def fingerprint(db):
    """Everything the acceptance criteria pin, in comparable form."""
    backend = db.mask_backend
    return (
        db.snapshot(),
        {key: db.row_frequency(*key) for key in db.snapshot()},
        db.initial_row_order(),
        {core: db.coreset_frequency(core) for core in db.coresets()},
        {
            leaf: db.interner.intern(leaf)
            for leaf in sorted(db.leafsets(), key=repr)
        },
        dict(db.vertex_bit_table()),
        {
            leaf: frozenset(backend.iter_bits(db.leaf_union_mask(leaf)))
            for leaf in db.leafsets()
        },
    )


def builders(graph, backend):
    triple = InvertedDatabase._from_graph_triples(graph, mask_backend=backend)
    columnar = InvertedDatabase.from_graph(graph, mask_backend=backend)
    return triple, columnar


@pytest.fixture(params=ALL_BACKENDS, ids=lambda b: repr(b))
def backend(request):
    return request.param


class TestColumnarEquivalence:
    """Batched-vs-triple identity on every backend variant."""

    def test_paper_graph_identical(self, backend):
        graph = paper_running_example()
        triple, columnar = builders(graph, backend)
        assert fingerprint(columnar) == fingerprint(triple)
        columnar.validate(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_identical(self, backend, seed):
        graph = random_graph(seed)
        triple, columnar = builders(graph, backend)
        assert fingerprint(columnar) == fingerprint(triple)

    def test_initial_description_length_byte_identical(self, backend):
        graph = random_graph(7)
        standard = StandardCodeTable.from_graph(graph)
        core = CoreCodeTable.singletons_from_graph(graph)
        triple, columnar = builders(graph, backend)
        reference = initial_description_length(triple, standard, core)
        folded = initial_description_length(columnar, standard, core)
        assert folded == reference
        # And both agree with the from-scratch recompute.
        assert folded == description_length(columnar, standard, core)

    def test_mining_identical_on_all_paths(self):
        graph = random_graph(11)
        standard = StandardCodeTable.from_graph(graph)
        core = CoreCodeTable.singletons_from_graph(graph)
        results = []
        for db in builders(graph, ChunkedMaskBackend()):
            trace = run_partial(db, standard, core)
            results.append(
                (
                    [t.merged_pair for t in trace.iterations],
                    trace.final_dl_bits,
                    trace.total_gain_computations,
                    db.snapshot(),
                )
            )
        assert results[0] == results[1]

    def test_tiny_group_blocks_identical(self, monkeypatch):
        # Force many flushes so block boundaries are exercised.
        graph = random_graph(5)
        reference = fingerprint(InvertedDatabase.from_graph(graph))
        monkeypatch.setattr(
            InvertedDatabase, "_GROUP_BLOCK_TRIPLES", 16
        )
        blocked = InvertedDatabase.from_graph(graph)
        assert fingerprint(blocked) == reference

    def test_layout_priced_once_on_the_first_block(self, monkeypatch):
        # The builder prices layouts on its first flush only, and not
        # at all when the caller passes a backend.
        import repro.core.inverted_db as inverted_db

        priced = []

        def spy(bits, starts):
            priced.append(len(bits))
            return ChunkedMaskBackend(chunk_bits=4096)

        monkeypatch.setattr(inverted_db, "resolve_backend", spy)
        monkeypatch.setattr(InvertedDatabase, "_GROUP_BLOCK_TRIPLES", 16)
        graph = random_graph(5)
        db = InvertedDatabase.from_graph(graph)
        assert len(priced) == 1 and priced[0] >= 16
        assert db.mask_backend.layout == "chunked/4096"
        explicit = InvertedDatabase.from_graph(
            graph, mask_backend=ChunkedMaskBackend(chunk_bits=4096)
        )
        assert len(priced) == 1
        assert fingerprint(db) == fingerprint(explicit)


VALUES = ["a", "b", "c", "d", "e"]


@st.composite
def attributed_graphs(draw, max_vertices=10):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = AttributedGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
        size = draw(st.integers(min_value=1, max_value=3))
        values = draw(
            st.sets(st.sampled_from(VALUES), min_size=size, max_size=size)
        )
        graph.set_attributes(vertex, values)
    for vertex in range(1, n):
        graph.add_edge(vertex - 1, vertex)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


@given(graph=attributed_graphs())
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_property_columnar_matches_triples(graph):
    for backend in (
        BigintMaskBackend(),
        ChunkedMaskBackend(chunk_bits=64),
        ChunkedMaskBackend(chunk_bits=4096),
    ):
        triple = InvertedDatabase._from_graph_triples(
            graph, mask_backend=backend
        )
        columnar = InvertedDatabase.from_graph(graph, mask_backend=backend)
        assert fingerprint(columnar) == fingerprint(triple)


class TestFrozenVertexOrder:
    """Satellite: the explicit ``_bit_of`` fallback contract."""

    def test_from_graph_freezes_the_order(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        with pytest.raises(MiningError, match="frozen"):
            db._add_position(
                frozenset(["T"]), frozenset(["C"]), "brand-new-vertex"
            )

    def test_known_vertices_still_addressable(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        vertex = next(iter(db.vertex_bit_table()))
        # Adding a position at a known vertex goes through fine (the
        # row bookkeeping is the caller's concern, not the bit table's).
        db._add_position(frozenset(["__new_core__"]), frozenset(["x"]), vertex)
        assert db.row_frequency(frozenset(["__new_core__"]), frozenset(["x"])) == 1

    def test_hand_built_database_keeps_lazy_assignment(self):
        db = InvertedDatabase()
        db._add_position(frozenset(["a"]), frozenset(["b"]), "v0")
        db._add_position(frozenset(["a"]), frozenset(["b"]), "v1")
        assert db.vertex_bit_table() == {"v0": 0, "v1": 1}

    def test_copy_preserves_the_freeze(self, paper_graph):
        clone = InvertedDatabase.from_graph(paper_graph).copy()
        with pytest.raises(MiningError, match="frozen"):
            clone._add_position(frozenset(["T"]), frozenset(["C"]), "nope")


class TestConfigAndFacade:
    """The construction knob across config and pipeline."""

    def test_config_validates_construction(self):
        assert CSPMConfig().construction == "serial"
        for other in ("partitioned", "sharded"):
            with pytest.raises(ConfigError, match="'serial'"):
                CSPMConfig(construction=other)
        with pytest.raises(ConfigError, match="construction_workers"):
            CSPMConfig().replace(construction_workers=2)

    def test_defaults_not_serialised(self):
        # Schema-v1 result documents (and the CLI golden file) must not
        # grow fields for execution-engine defaults.
        document = CSPMConfig().to_dict()
        assert "construction" not in document
        assert CSPMConfig.from_dict(document) == CSPMConfig()
        assert CSPMConfig.from_dict({"construction": "serial"}) == (
            CSPMConfig()
        )

    @pytest.mark.parametrize("command", ["mine", "bench"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--construction", "partitioned"],
            ["--construction-workers", "2"],
            ["--mask-backend", "chunked"],
            ["--worker-timeout", "5"],
            ["--max-task-retries", "1"],
            ["--on-worker-failure", "raise"],
            ["--search", "sharded"],
            ["--search-workers", "2"],
            ["--fault-plan", '{"events": []}'],
        ],
        ids=lambda flags: flags[0],
    )
    def test_cli_rejects_removed_engine_flags(
        self, tmp_path, capsys, command, flags
    ):
        from repro.cli import main

        graph_file = tmp_path / "paper.json"
        save_json(paper_running_example(), graph_file)
        argv = [command, str(graph_file)] if command == "mine" else [command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flags)
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_pipeline_records_construction_seconds(self, paper_graph):
        from repro.pipeline import MiningPipeline

        context = MiningPipeline.default().run_context(paper_graph)
        assert context.extras["construction_seconds"] >= 0.0
