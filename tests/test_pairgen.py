"""Overlap-driven candidate generation: the contract and maintenance.

The headline guarantee: the sparse-aware generator
(:func:`repro.core.pairgen.overlap_pairs`) yields exactly the pairs of
the quadratic full scan (:func:`repro.core.candidates.enumerate_pairs`)
whose union masks overlap, in the scan's order, and every pair it
omits has zero data gain — on fresh databases and after any number of
merges, under both enumeration strategies.  Both searches seed from
it, so that contract is what keeps them equal to Algorithm 2's
enumeration; :class:`TestSearchEquivalence` runs both searches on
both graph families against Algorithm 2 literally.  Alongside: unit tests of the incremental adjacency/id-list
maintenance in :class:`InvertedDatabase.merge` (row-vanishing and
partial-survivor cases).
"""

import pytest

from repro.core.candidates import enumerate_pairs
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.gain import pair_gain
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import description_length
from repro.core.pairgen import overlap_pairs
from repro.datasets.synthetic import community_attributed_graph
from repro.graphs.builders import star_graph
from repro.graphs.generators import PlantedAStar, planted_astar_graph


def fs(*values):
    return frozenset(values)


def setup(graph):
    return (
        InvertedDatabase.from_graph(graph),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def planted_graph(seed, noise_rate=0.2):
    graph, _ = planted_astar_graph(
        40,
        90,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t", "u"), strength=0.8),
        ],
        noise_values=("n1", "n2", "n3"),
        noise_rate=noise_rate,
        seed=seed,
    )
    return graph


def community_graph(seed, communities=6, pool=5):
    pools = [[f"c{c}v{i}" for i in range(pool)] for c in range(communities)]
    return community_attributed_graph(
        [12] * communities,
        pools,
        values_per_vertex=(2, 3),
        intra_degree=2.5,
        inter_degree=0.2,
        seed=seed,
    )


def overlapping_full_scan(db):
    """The oracle: the full scan restricted to overlapping union masks."""
    return [
        pair
        for pair in enumerate_pairs(db.leafsets(), interner=db.interner)
        if db.leaf_union_mask(pair[0]) & db.leaf_union_mask(pair[1])
    ]


def strategy(db):
    """Which enumeration :func:`overlap_pairs` takes on ``db``."""
    n = db.num_leafsets
    sparse_cost = sum(
        len(ids) * (len(ids) - 1) // 2 for ids in db.coreset_leaf_ids().values()
    )
    return "sweep" if sparse_cost >= n * (n - 1) // 2 else "walk"


#: Both enumeration strategies: a community graph starts on the mask
#: sweep and switches to the adjacency walk as merges thin out the
#: coreset lists; a planted graph (small value universe) stays on the
#: sweep throughout.
GRAPH_FAMILIES = [
    pytest.param(community_graph, id="community"),
    pytest.param(planted_graph, id="planted"),
]
STRATEGIES = {community_graph: {"sweep", "walk"}, planted_graph: {"sweep"}}


class TestGeneratorContract:
    def test_sorted_by_interned_ids(self, paper_db):
        interner = paper_db.interner
        pairs = overlap_pairs(paper_db)
        keys = [interner.pair_key(pair) for pair in pairs]
        assert keys == sorted(keys)
        assert all(key[0] < key[1] for key in keys)

    def test_subset_of_full_scan(self):
        db, _, _ = setup(community_graph(0))
        full = set(enumerate_pairs(db.leafsets(), interner=db.interner))
        overlap = set(overlap_pairs(db))
        assert overlap <= full

    @pytest.mark.parametrize("make_graph", GRAPH_FAMILIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_omitted_pairs_have_zero_gain(self, seed, make_graph):
        # Fresh, mid-run and converged databases: the merges come from
        # CSPM-Basic capped at each count (None = run to convergence).
        graph = make_graph(seed)
        fresh, standard, core = setup(graph)
        for merges in (0, 1, 5, 20, None):
            db = fresh.copy()
            run_basic(db, standard, core, max_iterations=merges)
            pairs = overlap_pairs(db)
            assert pairs == overlapping_full_scan(db)
            overlap = set(pairs)
            for pair in enumerate_pairs(db.leafsets(), interner=db.interner):
                if pair not in overlap:
                    gain = pair_gain(db, *pair, standard, core)
                    assert gain.data_leaf_gain == 0.0
                    assert gain.data_core_gain == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_union_mask_brute_force(self, seed):
        # The generator must equal the exact overlap predicate: union
        # masks intersect.  Fresh databases of both families take the
        # mask sweep; test_still_exact_after_merges reaches the walk.
        for graph in (community_graph(seed), planted_graph(seed)):
            db, _, _ = setup(graph)
            assert overlap_pairs(db) == overlapping_full_scan(db)

    @pytest.mark.parametrize("make_graph", GRAPH_FAMILIES)
    def test_still_exact_after_merges(self, make_graph):
        # Greedy merges by the independent pair_gain, to convergence;
        # the generator must stay exact after every one of them.
        db, standard, core = setup(make_graph(1))
        merges = 0
        seen = set()
        while True:
            seen.add(strategy(db))
            pairs = overlap_pairs(db)
            assert pairs == overlapping_full_scan(db)
            best = None
            for pair in pairs:
                gain = pair_gain(db, *pair, standard, core).net(True)
                if gain > 1e-9 and (best is None or gain > best[1]):
                    best = (pair, gain)
            if best is None:
                break
            db.merge(*best[0])
            merges += 1
        assert merges > 5
        assert seen == STRATEGIES[make_graph]
        db.validate()

    def test_sparse_seeding_is_cheaper(self):
        db, standard, core = setup(community_graph(2, communities=10))
        possible = db.num_leafsets * (db.num_leafsets - 1) // 2
        trace = run_partial(db, standard, core)
        # The full scan would seed one gain per possible pair.
        assert trace.initial_candidate_gains < possible / 2

    def test_disjoint_leafsets_yield_nothing(self):
        # {x} lives only at the core vertex, {c} only at the leaves:
        # no shared coreset, disjoint unions, no candidates.
        db, _, _ = setup(star_graph(["c"], [["x"], ["x"]]))
        assert len(db.leafsets()) == 2
        assert overlap_pairs(db) == []


def merge_sequence(trace):
    return [t.merged_pair for t in trace.iterations]


class TestSearchEquivalence:
    """Both searches, seeded by the generator, on both graph families.

    Community graphs move to the adjacency walk mid-run, so these runs
    cover the generator's walk inside the searches, not only its sweep.
    The reference is ``run_basic(rescan="full")``, Algorithm 2 literally:
    every candidate pair is re-evaluated on every iteration.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_basic_same_merges_and_dl(self, seed):
        graph = planted_graph(seed) if seed % 2 else community_graph(seed)
        db_full, standard, core = setup(graph)
        trace_full = run_basic(db_full, standard, core, rescan="full")
        db_restricted, _, _ = setup(graph)
        trace_restricted = run_basic(db_restricted, standard, core)
        assert merge_sequence(trace_restricted) == merge_sequence(trace_full)
        assert trace_restricted.final_dl_bits == trace_full.final_dl_bits
        assert db_restricted.snapshot() == db_full.snapshot()
        assert (
            trace_restricted.total_gain_computations
            <= trace_full.total_gain_computations
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_lazy_same_merges_and_dl(self, seed):
        graph = community_graph(seed) if seed % 2 else planted_graph(seed)
        db_basic, standard, core = setup(graph)
        trace_basic = run_basic(db_basic, standard, core, rescan="full")
        db_lazy, _, _ = setup(graph)
        trace_lazy = run_partial(db_lazy, standard, core, update_scope="lazy")
        assert merge_sequence(trace_lazy) == merge_sequence(trace_basic)
        assert trace_lazy.final_dl_bits == trace_basic.final_dl_bits
        assert db_lazy.snapshot() == db_basic.snapshot()

    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_partial_related_scope_same_first_merge(self, seed):
        # The related heuristic follows its own path after the first
        # merge, but it seeds from the same pairs as Basic, so its first
        # pick is Basic's; its DL accounting must stay exact throughout.
        graph = community_graph(seed)
        db_basic, standard, core = setup(graph)
        trace_basic = run_basic(db_basic, standard, core, max_iterations=1)
        db_related, _, _ = setup(graph)
        trace_related = run_partial(
            db_related, standard, core, update_scope="related"
        )
        assert merge_sequence(trace_related)[:1] == merge_sequence(trace_basic)
        assert (
            trace_related.initial_candidate_gains
            == trace_basic.initial_candidate_gains
        )
        dls = [trace_related.initial_dl_bits] + [
            t.total_dl_bits for t in trace_related.iterations
        ]
        assert all(after < before for before, after in zip(dls, dls[1:]))
        reference = description_length(db_related, standard, core).total_bits
        assert trace_related.final_dl_bits == pytest.approx(reference, abs=1e-6)
        db_related.validate(graph)


class TestIncrementalAdjacency:
    """merge() keeps the coreset id-lists and interner in sync."""

    def test_initial_index_matches_adjacency(self, paper_db):
        paper_db.validate()
        index = paper_db.coreset_leaf_ids()
        adjacency = paper_db.coreset_leafset_index()
        assert set(index) == set(adjacency)
        for core, leaves in adjacency.items():
            assert index[core] == sorted(
                paper_db.interner.intern(leaf) for leaf in leaves
            )

    def test_partial_survivor_keeps_ids(self, paper_db):
        # Fig. 4: merging {b} and {c} leaves survivors under some
        # coresets; the merged leafset id must appear exactly where the
        # new row exists and survivors stay listed where rows remain.
        outcome = paper_db.merge(fs("b"), fs("c"))
        paper_db.validate()
        new_id = paper_db.interner.intern(outcome.new_leafset)
        for core, leaves in paper_db.coreset_leafset_index().items():
            ids = paper_db.coreset_leaf_ids()[core]
            assert (new_id in ids) == (outcome.new_leafset in leaves)

    def test_row_vanishing_removes_ids(self):
        # Total merge: every x-row and y-row disappears, so both ids
        # must vanish from every coreset list.
        graph = star_graph(["c"], [["x", "y"], ["x", "y"]])
        db, _, _ = setup(graph)
        outcome = db.merge(fs("x"), fs("y"))
        assert outcome.removed_leafsets == {fs("x"), fs("y")}
        db.validate()
        id_x = db.interner.intern(fs("x"))
        id_y = db.interner.intern(fs("y"))
        for ids in db.coreset_leaf_ids().values():
            assert id_x not in ids
            assert id_y not in ids
        assert not db.has_leafset(fs("x"))

    def test_coreset_disappears_with_last_row(self):
        # One coreset whose only two rows merge totally: the coreset
        # keeps exactly the merged row's id.
        graph = star_graph(["c"], [["x"], ["y"]])
        db, _, _ = setup(graph)
        # x and y co-occur at the core vertex, so that pair (and only
        # that pair) is generated.
        assert overlap_pairs(db) == [(fs("x"), fs("y"))]
        db.merge(fs("x"), fs("y"))
        db.validate()
        index = db.coreset_leaf_ids()
        assert index[fs("c")] == [db.interner.intern(fs("x", "y"))]
        assert index[fs("x")] == [db.interner.intern(fs("c"))]
        assert fs("x") not in db.leafsets()

    @pytest.mark.parametrize("seed", range(5))
    def test_validate_after_random_merge_storm(self, seed):
        graph = community_graph(seed, communities=4)
        db, standard, core = setup(graph)
        run_partial(db, standard, core)
        db.validate(graph)

    def test_copy_isolates_index_and_interner(self, paper_db):
        clone = paper_db.copy()
        clone.merge(fs("b"), fs("c"))
        clone.validate()
        paper_db.validate()
        assert fs("b", "c") not in paper_db.interner
        assert all(
            fs("b", "c") not in leaves
            for leaves in paper_db.coreset_leafset_index().values()
        )
