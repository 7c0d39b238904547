"""Equivalence and edge-case suite for the position-mask backends.

The contract (``repro.core.masks``): every backend — ``bigint``,
``chunked`` — is bit-exact interchangeable.  Mining-visible
quantities are exact integers/booleans, so merge sequences, database
snapshots and DL floats must be identical whichever backend the
database was built on.  This file pins that contract three ways:

* backend-op unit tests against the bigint reference, with the chunk
  boundaries exercised explicitly (bit 0, last/first bit of a chunk,
  empty overlaps);
* randomized whole-pipeline equivalence on the existing generators
  (identical merge sequences, snapshots and DL floats across backends,
  for both search variants);
* hypothesis property tests over random bit sets and random graphs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import MASK_BACKENDS, CSPMConfig
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import (
    LAYOUT_SLACK,
    LAYOUTS,
    BigintMaskBackend,
    ChunkedMaskBackend,
    bigint_mask_bytes,
    resolve_backend,
)
from repro.core.mdl import description_length, initial_description_length
from repro.errors import ConfigError
from repro.graphs.generators import PlantedAStar, planted_astar_graph

BACKEND_CLASSES = {"bigint": BigintMaskBackend, "chunked": ChunkedMaskBackend}
BACKEND_NAMES = tuple(BACKEND_CLASSES)

# Small-chunk variants stress the chunk boundaries far harder than the
# production defaults on the same bit ranges; the 1024-bit variant puts
# most of BOUNDARY_BITS inside one chunk and 1024/1025 across its edge,
# the 4096-bit one (the layout dense graphs get) 4096/4097 across its.
ALL_BACKENDS = [
    BigintMaskBackend(),
    ChunkedMaskBackend(),
    ChunkedMaskBackend(chunk_bits=64),
    ChunkedMaskBackend(chunk_bits=1024),
    ChunkedMaskBackend(chunk_bits=4096),
]

# Bits chosen to land on every interesting boundary of 64/256/1024/4096
# -bit chunks: bit 0, last bit of a chunk, first bit of the next.
BOUNDARY_BITS = (
    0, 1, 63, 64, 65, 255, 256, 257, 511, 1023, 1024, 1025, 4095, 4096, 4097,
)

# The layouts the whole-pipeline == suites mine on: both backends at
# their defaults, plus the wide chunks the builder picks on dense rows.
MINING_BACKENDS = {
    "bigint": BigintMaskBackend(),
    "chunked": ChunkedMaskBackend(),
    "chunked/4096": ChunkedMaskBackend(chunk_bits=4096),
}


def row_columns(rows):
    """The builder's flat layout of ``rows``: bits and row starts."""
    bits = np.array([bit for row in rows for bit in row], dtype=np.int64)
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    return bits, starts.astype(np.int64)


def ref_mask(bits):
    out = 0
    for bit in bits:
        out |= 1 << bit
    return out


@pytest.fixture(params=ALL_BACKENDS, ids=lambda b: repr(b))
def backend(request):
    return request.param


class TestBackendOps:
    """Each backend against the plain-int reference semantics."""

    def test_empty_is_empty(self, backend):
        empty = backend.empty()
        assert backend.is_empty(empty)
        assert backend.popcount(empty) == 0
        assert list(backend.iter_bits(empty)) == []
        assert not backend.union_overlaps(empty, empty)

    def test_make_iter_roundtrip_on_boundaries(self, backend):
        mask = backend.make(BOUNDARY_BITS)
        assert list(backend.iter_bits(mask)) == sorted(BOUNDARY_BITS)
        assert backend.popcount(mask) == len(BOUNDARY_BITS)
        for bit in BOUNDARY_BITS:
            assert backend.has_bit(mask, bit)
        for bit in (2, 62, 66, 254, 258, 1022, 1026, 4094, 4098):
            assert not backend.has_bit(mask, bit)

    def test_set_bit_matches_make(self, backend):
        mask = backend.empty()
        for bit in BOUNDARY_BITS:
            mask = backend.set_bit(mask, bit)
            mask = backend.set_bit(mask, bit)  # idempotent
        assert backend.equals(mask, backend.make(BOUNDARY_BITS))

    def test_make_batch_matches_make(self, backend):
        # The columnar builder's bulk materialiser: ascending input,
        # duplicates allowed, one mask per list, boundary bits heavy.
        bit_lists = [
            [],
            [0],
            [5, 5, 70, 300],
            sorted(BOUNDARY_BITS),
            sorted(BOUNDARY_BITS + (1025, 4097)),
            [63, 64],
            [2000],
        ]
        built = backend.make_batch(bit_lists)
        assert len(built) == len(bit_lists)
        for bits, mask in zip(bit_lists, built):
            assert backend.equals(mask, backend.make(bits)), bits
            assert list(backend.iter_bits(mask)) == sorted(set(bits))

    def test_set_bits_bulk_matches_per_bit(self, backend):
        # Bulk accumulation into an existing mask == per-bit set_bit,
        # including cross-chunk runs and bits already present.
        base_bits = (1, 64, 300)
        added = sorted((0, 63, 64, 255, 256, 300, 1024, 1025))
        mask = backend.set_bits_bulk(backend.make(base_bits), added)
        reference = backend.make(base_bits)
        for bit in added:
            reference = backend.set_bit(reference, bit)
        assert backend.equals(mask, reference)
        assert backend.equals(
            backend.set_bits_bulk(backend.empty(), added),
            backend.make(added),
        )
        assert backend.equals(
            backend.set_bits_bulk(backend.make(base_bits), []),
            backend.make(base_bits),
        )

    @given(
        bit_lists=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=1100), max_size=40
            ).map(sorted),
            max_size=6,
        )
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_bulk_ops_match_reference(self, backend, bit_lists):
        built = backend.make_batch(bit_lists)
        for bits, mask in zip(bit_lists, built):
            assert backend.popcount(mask) == len(set(bits))
            assert list(backend.iter_bits(mask)) == sorted(set(bits))
        merged = backend.empty()
        for bits in bit_lists:
            merged = backend.set_bits_bulk(merged, bits)
        union = ref_mask(bit for bits in bit_lists for bit in bits)
        assert list(backend.iter_bits(merged)) == [
            i for i in range(1101) if union >> i & 1
        ]

    @pytest.mark.parametrize(
        "bits_a, bits_b",
        [
            ((0,), (0,)),
            ((0,), (1,)),
            ((63,), (64,)),
            ((255, 256), (256, 257)),
            ((0, 64, 1024), (64,)),
            ((5, 70, 300), (1025,)),
            ((), (0, 63)),
        ],
    )
    def test_binary_ops_match_int_reference(self, backend, bits_a, bits_b):
        a, b = backend.make(bits_a), backend.make(bits_b)
        ra, rb = ref_mask(bits_a), ref_mask(bits_b)
        assert backend.union_overlaps(a, b) == bool(ra & rb)
        assert backend.and_count(a, b) == (ra & rb).bit_count()
        assert list(backend.iter_bits(backend.or_(a, b))) == [
            i for i in range(1100) if (ra | rb) >> i & 1
        ]
        assert list(backend.iter_bits(backend.and_(a, b))) == [
            i for i in range(1100) if (ra & rb) >> i & 1
        ]
        assert list(backend.iter_bits(backend.andnot(a, b))) == [
            i for i in range(1100) if (ra & ~rb) >> i & 1
        ]

    def test_empty_overlap_at_chunk_edges(self, backend):
        # Adjacent bits in different chunks must not report overlap.
        left = backend.make((63, 255, 1023, 4095))
        right = backend.make((64, 256, 1024, 4096))
        assert not backend.union_overlaps(left, right)
        assert backend.and_count(left, right) == 0
        assert backend.is_empty(backend.and_(left, right))

    def test_ops_are_pure(self, backend):
        a = backend.make((1, 64, 300))
        b = backend.make((64, 500))
        before = list(backend.iter_bits(a)), list(backend.iter_bits(b))
        backend.or_(a, b)
        backend.and_(a, b)
        backend.andnot(a, b)
        backend.union_overlaps(a, b)
        backend.and_count(a, b)
        assert (list(backend.iter_bits(a)), list(backend.iter_bits(b))) == before

    def test_bit_span_matches_int_bit_length(self, backend):
        assert backend.bit_span(backend.empty()) == 0
        for bits in ((0,), (63,), (64,), (255, 256), (5, 70, 1025)):
            mask = backend.make(bits)
            assert backend.bit_span(mask) == ref_mask(bits).bit_length()

    def test_mask_bytes_positive_and_monotone_in_chunks(self, backend):
        sparse = backend.make((3,))
        spread = backend.make((3, 1024, 4096))
        assert backend.mask_bytes(backend.empty()) >= 0
        assert backend.mask_bytes(sparse) > 0
        assert backend.mask_bytes(spread) >= backend.mask_bytes(sparse)

    @given(
        rows=st.lists(
            st.sets(st.integers(min_value=0, max_value=20_000), min_size=1,
                    max_size=40).map(sorted),
            min_size=1,
            max_size=6,
        )
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_rows_bytes_is_what_the_masks_hold(self, backend, rows):
        # The builder's pricing is exact: it equals the summed
        # mask_bytes of the masks make_batch then builds.
        bits, starts = row_columns(rows)
        built = backend.make_batch(rows)
        assert backend.rows_bytes(bits, starts) == sum(
            backend.mask_bytes(mask) for mask in built
        )

    @given(
        bits_a=st.sets(st.integers(min_value=0, max_value=1100), max_size=60),
        bits_b=st.sets(st.integers(min_value=0, max_value=1100), max_size=60),
    )
    @settings(
        max_examples=60,
        deadline=None,
        # The backend fixture is a stateless strategy object; reusing
        # it across generated examples is exactly the production usage.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_ops_match_reference(self, backend, bits_a, bits_b):
        a, b = backend.make(bits_a), backend.make(bits_b)
        ra, rb = ref_mask(bits_a), ref_mask(bits_b)
        assert backend.popcount(a) == ra.bit_count()
        assert backend.and_count(a, b) == (ra & rb).bit_count()
        assert backend.union_overlaps(a, b) == bool(ra & rb)
        assert backend.popcount(backend.or_(a, b)) == (ra | rb).bit_count()
        assert backend.popcount(backend.andnot(a, b)) == (ra & ~rb).bit_count()
        assert list(backend.iter_bits(a)) == sorted(bits_a)


class TestRegistry:
    def test_names_round_trip(self):
        for name, backend_class in BACKEND_CLASSES.items():
            assert backend_class().name == name

    def test_unknown_name_rejected(self):
        # No name selects a backend any more: only "auto" is accepted.
        for name in ("roaring", "numpy", "bigint", "chunked"):
            with pytest.raises(ConfigError, match=r"\('auto',\)"):
                CSPMConfig(mask_backend=name)

    def test_layout_names(self):
        assert BigintMaskBackend().layout == "bigint"
        assert BigintMaskBackend().chunk_bits == 0
        assert ChunkedMaskBackend().layout == "chunked/256"
        assert ChunkedMaskBackend(chunk_bits=4096).layout == "chunked/4096"
        assert [layout.layout for layout in LAYOUTS] == [
            "chunked/256", "chunked/1024", "chunked/4096", "bigint",
        ]
        assert LAYOUT_SLACK == 1.25


def layout_rows(offset, num_rows=50, bits_per_row=4, stride=1, gap=5000):
    """``num_rows`` equal rows, the i-th starting at ``offset + i * gap``.

    Every row holds ``bits_per_row`` bits ``stride`` apart, so all rows
    have the same size and density and differ only in where they sit
    in the vertex order.
    """
    return [
        [offset + i * gap + k * stride for k in range(bits_per_row)]
        for i in range(num_rows)
    ]


class TestDensityRule:
    """The builder picks the layout from the rows, not from ``|V|``.

    Every row below is sparse against a 250,000-bit vertex order; what
    changes is how tightly its bits sit and where it starts.
    """

    def pick(self, rows):
        return resolve_backend(*row_columns(rows)).layout

    def test_rows_near_the_start_stay_on_bigint(self):
        # A short bit span is a few machine words whatever the density.
        assert self.pick(layout_rows(0, gap=0)) == "bigint"
        assert self.pick(layout_rows(0, bits_per_row=64, stride=8, gap=0)) == (
            "bigint"
        )

    def test_tight_runs_far_up_the_order_get_narrow_chunks(self):
        # Four adjacent bits at the top of a 4096-bit chunk: one small
        # word at 256 bits, a 4096-bit word at 4096, a huge span as an
        # int.  The community rows of sparse graphs look like this.
        rows = layout_rows(4096 * 10 + 3840, gap=4096 * 5)
        assert self.pick(rows) == "chunked/256"

    def test_spread_rows_far_up_the_order_get_wide_chunks(self):
        # The same far-away rows, each with 512 bits 8 apart: 4096 bits
        # of it touch sixteen 256-bit chunks but one 4096-bit chunk.
        # The neighbourhood rows of dense social graphs look like this.
        rows = layout_rows(4096 * 10, bits_per_row=512, stride=8, gap=4096 * 5)
        assert self.pick(rows) == "chunked/4096"

    def test_widest_layout_within_the_slack_wins(self):
        rows = layout_rows(4096 * 10, bits_per_row=512, stride=8, gap=4096 * 5)
        bits, starts = row_columns(rows)
        prices = {
            layout.layout: layout.rows_bytes(bits, starts) for layout in LAYOUTS
        }
        cheapest = min(prices.values())
        assert prices["chunked/4096"] <= cheapest * LAYOUT_SLACK
        assert prices["bigint"] > cheapest * LAYOUT_SLACK

    @pytest.mark.parametrize(
        "graph, layout",
        [
            ("dense-social", "chunked/4096"),
            ("sparse-communities", "chunked/256"),
            ("batch-small", "bigint"),
        ],
    )
    def test_benchmark_graphs(self, graph, layout):
        # Seed-0 graphs of the end-to-end benchmark.  Of the batch
        # graphs, dblp-trend comes closest to chunks: its 256-bit
        # chunks price 7% under bigint, inside the slack.
        from repro.config import CSPMConfig
        from repro.datasets import load_dataset
        from repro.datasets.synthetic import community_attributed_graph
        from repro.pipeline import EncodeCoresets, PipelineContext

        if graph == "dense-social":
            built = load_dataset("pokec", scale=0.05, seed=0)
        elif graph == "sparse-communities":
            built = community_attributed_graph(
                community_sizes=[25] * 1200,
                community_pools=[
                    [f"c{c}v{v}" for v in range(6)] for c in range(1200)
                ],
                values_per_vertex=(2, 3),
                intra_degree=2.5,
                inter_degree=0.05,
                seed=0,
            )
        else:
            built = load_dataset("dblp-trend", scale=1.0, seed=1)
        context = PipelineContext(graph=built, config=CSPMConfig())
        EncodeCoresets().run(context)
        db = InvertedDatabase.from_graph(built, context.coreset_positions)
        assert db.mask_backend.layout == layout

    def test_chunk_width_validation(self):
        with pytest.raises(ValueError):
            ChunkedMaskBackend(chunk_bits=100)

    def test_bigint_reference_estimate(self):
        # 30 bits per 4-byte digit on top of the 28-byte header.
        assert bigint_mask_bytes(1) == 32
        assert bigint_mask_bytes(30) == 32
        assert bigint_mask_bytes(31) == 36
        assert bigint_mask_bytes(1_600_000) > 200_000


def random_graph(seed, num_vertices=45, num_edges=110):
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


def setup(graph, backend_name):
    backend = MINING_BACKENDS[backend_name]
    return (
        InvertedDatabase.from_graph(graph, mask_backend=backend),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def run_key(db, trace):
    return (
        [t.merged_pair for t in trace.iterations],
        [t.total_dl_bits for t in trace.iterations],
        trace.final_dl_bits,
        trace.initial_candidate_gains,
        trace.total_gain_computations,
        trace.refreshes_skipped,
        trace.dirty_revalidations,
        db.snapshot(),
    )


class TestMiningEquivalence:
    """Identical merge sequences/snapshots/DL floats on every backend."""

    @pytest.mark.parametrize("seed", range(6))
    def test_partial_lazy_bit_exact_across_backends(self, seed):
        graph = random_graph(seed)
        reference = None
        for name in MINING_BACKENDS:
            db, standard, core = setup(graph, name)
            trace = run_partial(db, standard, core)
            db.validate(graph)
            key = run_key(db, trace)
            if reference is None:
                reference = key
            else:
                assert key == reference, f"backend {name} diverged"

    @pytest.mark.parametrize("seed", range(3))
    def test_basic_bit_exact_across_backends(self, seed):
        graph = random_graph(seed)
        reference = None
        for name in MINING_BACKENDS:
            db, standard, core = setup(graph, name)
            trace = run_basic(db, standard, core)
            key = run_key(db, trace)
            if reference is None:
                reference = key
            else:
                assert key == reference, f"backend {name} diverged"

    def test_dense_graph_bit_exact_across_backends(self):
        # A dense social graph whose vertex order spans three 4096-bit
        # chunks, so rows and unions cross the wide layout's edges.
        from repro.datasets import load_dataset

        graph = load_dataset("pokec", scale=0.0052, seed=0)
        assert graph.num_vertices > 2 * 4096
        reference = None
        for name in MINING_BACKENDS:
            db, standard, core = setup(graph, name)
            key = run_key(db, run_partial(db, standard, core))
            if reference is None:
                reference = key
            else:
                assert key == reference, f"backend {name} diverged"

    def test_merge_outcomes_equivalent(self):
        graph = random_graph(11)
        dbs = {name: setup(graph, name)[0] for name in MINING_BACKENDS}
        ref_db = dbs["bigint"]
        for _step in range(5):
            # Re-pick after every merge: earlier merges may have
            # removed a leafset a pre-selected pair relied on.
            ordered = ref_db.interner.order(ref_db.leafsets())
            pair = next(
                (
                    (a, b)
                    for i, a in enumerate(ordered)
                    for b in ordered[i + 1 :]
                    if ref_db.common_coresets(a, b)
                ),
                None,
            )
            if pair is None:
                break
            leaf_x, leaf_y = pair
            outcomes = {
                name: db.merge(leaf_x, leaf_y) for name, db in dbs.items()
            }
            reference = outcomes["bigint"]
            for name, outcome in outcomes.items():
                assert outcome.stats == reference.stats, name
                assert outcome.removed_leafsets == reference.removed_leafsets
                decoded = {
                    leaf: dbs[name]._to_vertices(mask)
                    for leaf, mask in outcome.touched_row_unions.items()
                }
                ref_decoded = {
                    leaf: ref_db._to_vertices(mask)
                    for leaf, mask in reference.touched_row_unions.items()
                }
                assert decoded == ref_decoded, name
        for name, db in dbs.items():
            assert db.snapshot() == ref_db.snapshot(), name


VALUES = ["a", "b", "c", "d", "e"]


@st.composite
def attributed_graphs(draw, max_vertices=10):
    from repro.graphs.attributed_graph import AttributedGraph

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
def test_property_backends_mine_identically(graph):
    reference = None
    for name in MINING_BACKENDS:
        db, standard, core = setup(graph, name)
        trace = run_partial(db, standard, core)
        key = run_key(db, trace)
        if reference is None:
            reference = key
        else:
            assert key == reference, f"backend {name} diverged"


class TestInitialDescriptionLength:
    """Satellite: the DL pass folded into database construction."""

    @pytest.mark.parametrize("name", MINING_BACKENDS)
    def test_matches_full_recompute_exactly(self, name):
        graph = random_graph(2)
        db, standard, core = setup(graph, name)
        folded = initial_description_length(db, standard, core)
        recomputed = description_length(db, standard, core)
        # Byte-identical, not approx: the construction-order record is
        # the same term order as the global sort.
        assert folded == recomputed

    def test_row_order_matches_global_sort(self, paper_graph):
        from repro.core.mdl import _sorted_rows

        db = InvertedDatabase.from_graph(paper_graph)
        order = db.initial_row_order()
        assert order is not None
        assert [(core, leaf) for core, leaf, _f in _sorted_rows(db)] == order

    def test_record_dropped_on_merge(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        standard = StandardCodeTable.from_graph(paper_graph)
        core = CoreCodeTable.singletons_from_graph(paper_graph)
        leafsets = db.interner.order(db.leafsets())
        pair = next(
            (a, b)
            for i, a in enumerate(leafsets)
            for b in leafsets[i + 1 :]
            if db.common_coresets(a, b)
        )
        db.merge(*pair)
        assert db.initial_row_order() is None
        # Fallback path still agrees with the reference recompute.
        assert initial_description_length(db, standard, core) == (
            description_length(db, standard, core)
        )

    def test_copy_preserves_record(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        clone = db.copy()
        assert clone.initial_row_order() == db.initial_row_order()


class TestVertexBitTable:
    """Satellite: one precomputed vertex order shared by all masks."""

    def test_precomputed_and_exposed(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        table = db.vertex_bit_table()
        assert db.num_position_bits == len(table)
        assert sorted(table.values()) == list(range(len(table)))
        # Decoding any row goes through the shared order.
        for core, leaf, positions in db.rows():
            mask = db._rows[(core, leaf)]
            assert {
                bit for bit in db.mask_backend.iter_bits(mask)
            } == {table[v] for v in positions}

    def test_vertices_without_leaves_get_no_bit(self):
        from repro.graphs.attributed_graph import AttributedGraph

        graph = AttributedGraph.from_edges(
            edges=[(0, 1)], attributes={0: {"a"}, 1: {"b"}, 2: {"c"}}
        )
        db = InvertedDatabase.from_graph(graph)
        # Vertex 2 is isolated: no neighbour values, no bit.
        assert 2 not in db.vertex_bit_table()

    def test_num_leafsets_matches_list(self, paper_db):
        assert paper_db.num_leafsets == len(paper_db.leafsets())


class TestMemoryAccounting:
    def test_chunked_beats_bigint_estimate_on_sparse_masks(self):
        # A sparse community-structured database at modest width: the
        # chunked representation must undercut the whole-graph bigint
        # estimate (the pokec-sparse acceptance ratio, in miniature).
        from repro.perf.suite import pokec_sparse_graph

        graph = pokec_sparse_graph(200)  # 5000 vertices
        db = InvertedDatabase.from_graph(
            graph, mask_backend=ChunkedMaskBackend()
        )
        assert db.mask_memory_bytes() * 2 < db.bigint_mask_bytes_estimate()

    def test_memory_estimates_positive(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        assert db.mask_memory_bytes() > 0
        assert db.bigint_mask_bytes_estimate() > 0

    @pytest.mark.parametrize("name", ("chunked",))
    def test_bigint_estimate_is_what_bigint_actually_pays(self, name):
        # The reduction ratio's denominator must be honest: the
        # estimate computed on a chunked database equals the measured
        # mask bytes of the identical database built on bigint masks.
        from repro.perf.suite import pokec_sparse_graph

        graph = pokec_sparse_graph(20)
        sparse = InvertedDatabase.from_graph(
            graph, mask_backend=BACKEND_CLASSES[name]()
        )
        bigint = InvertedDatabase.from_graph(
            graph, mask_backend=BigintMaskBackend()
        )
        assert sparse.bigint_mask_bytes_estimate() == bigint.mask_memory_bytes()
        assert bigint.bigint_mask_bytes_estimate() == bigint.mask_memory_bytes()


class TestConfigIntegration:
    def test_mask_backend_field_validated(self):
        assert CSPMConfig().mask_backend == "auto"
        assert MASK_BACKENDS == ("auto",)
        with pytest.raises(ConfigError, match="mask_backend"):
            CSPMConfig(mask_backend="bigint")

    def test_default_backend_not_serialised(self):
        # Schema-v1 result documents (and the CLI golden file) must not
        # grow a field for an execution-engine default.
        assert "mask_backend" not in CSPMConfig().to_dict()
        assert CSPMConfig.from_dict(CSPMConfig().to_dict()) == CSPMConfig()

    def test_pinned_auto_backend_loads(self):
        # Job documents that pin the only value keep loading; any other
        # value is rejected at the boundary.
        assert CSPMConfig.from_dict({"mask_backend": "auto"}) == CSPMConfig()
        with pytest.raises(ConfigError, match=r"\('auto',\)"):
            CSPMConfig.from_dict({"mask_backend": "chunked"})

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_facade_results_identical(self, name, paper_graph):
        # The facade picks bigint for the paper graph; a database built
        # on either backend object mines the identical model.
        from repro import CSPM

        reference = CSPM().fit(paper_graph)
        assert reference.inverted_db.mask_backend.name == "bigint"
        db, standard, core = setup(paper_graph, name)
        assert db.mask_backend.name == name
        trace = run_partial(db, standard, core)
        assert [t.merged_pair for t in trace.iterations] == [
            t.merged_pair for t in reference.trace.iterations
        ]
        assert trace.final_dl_bits == reference.trace.final_dl_bits
        assert db.snapshot() == reference.inverted_db.snapshot()
        assert math.isclose(
            description_length(db, standard, core).total_bits,
            reference.final_dl.total_bits,
        )

    def test_cli_records_no_backend(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.graphs.builders import paper_running_example
        from repro.graphs.io import save_json

        path = tmp_path / "graph.json"
        save_json(paper_running_example(), str(path))
        assert main(["mine", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "mask_backend" not in document["config"]


class TestAndnotPurity:
    """MSK002 regression: ``andnot`` on the chunked backend must not
    mutate its operands (the fixed in-place ``word &= ~other`` was
    flagged by the invariant linter; the pure spelling is pinned here)."""

    @pytest.mark.parametrize("chunk_bits", [None, 64])
    def test_chunked_andnot_leaves_operands_intact(self, chunk_bits):
        backend = (
            ChunkedMaskBackend()
            if chunk_bits is None
            else ChunkedMaskBackend(chunk_bits=chunk_bits)
        )
        a_bits = [0, 63, 64, 100, 1025]
        b_bits = [63, 100, 2000]
        a = backend.make(a_bits)
        b = backend.make(b_bits)
        a_before = {chunk: word for chunk, word in a.items()}
        b_before = {chunk: word for chunk, word in b.items()}
        result = backend.andnot(a, b)
        assert a == a_before
        assert b == b_before
        assert list(backend.iter_bits(result)) == [0, 64, 1025]

    def test_chunked_andnot_matches_bigint_reference(self):
        backend = ChunkedMaskBackend(chunk_bits=64)
        reference = BigintMaskBackend()
        a_bits = sorted(BOUNDARY_BITS)
        b_bits = [1, 63, 256, 1024, 4096]
        chunked_result = backend.andnot(
            backend.make(a_bits), backend.make(b_bits)
        )
        reference_result = reference.andnot(
            reference.make(a_bits), reference.make(b_bits)
        )
        assert list(backend.iter_bits(chunked_result)) == list(
            reference.iter_bits(reference_result)
        )
