"""The perf-benchmark suite behind ``BENCH_cspm.json``.

The suite reproduces the *shape* of the paper's scaling measurements
(Fig. 5: gain computations touched per step; Table III: search
runtime) on deterministic synthetic workloads.  Every series entry
runs CSPM-Partial once, with the library default (lazy) update scope
and the overlap-driven candidate generator (:mod:`repro.core.pairgen`);
the run is keyed ``partial/overlap``.

Workloads
---------
``sparse-scaling``
    A planted-community graph family with *disjoint* per-community
    value pools: the co-occurrence structure is genuinely sparse, like
    the paper's large real graphs where ``|SL|`` is large but only
    neighbourhood-correlated values ever co-occur.  The series scales
    the number of communities, which scales ``|SL|`` (and hence the
    quadratic scan) while per-pair work stays flat.  This is the
    workload the acceptance counters are pinned on.
``pokec-sparse``
    The paper-scale workload (schema v3): the sparse community family
    scaled to hundreds of thousands of vertices — the regime the
    ROADMAP's pokec scale-ceiling item names.  Whole-graph bigint
    masks are *infeasible* here (every row would pay ``O(|V|)`` bytes;
    the recorded ``bigint_mask_bytes_estimate`` shows gigabytes).  Each
    row holds one community's positions, a short run of adjacent bits,
    so the builder's layout pricing (:mod:`repro.core.masks`) puts
    every member (20,000 vertices and up) on 256-bit chunks.
``pokec-dense``
    The dense side of the layout choice: the pokec dataset analogue
    (:func:`repro.datasets.synthetic.pokec_like`), four large
    music-taste communities with heavy cross-community wiring.  Its
    rows are long runs spread over the vertex order, so the builder
    prices 4096-bit chunks cheapest-within-slack; 256-bit chunks would
    hold more bytes than whole-graph bigint masks.  The quick member
    (``scale=0.02``, ~32,700 vertices) gates that choice through the
    build-time mask-memory reduction; the full suite adds the
    benchmark's dense-social size (``scale=0.05``).
``pokec-xl``
    True paper scale (schema v4): the same family at the source
    paper's pokec size — 32 000 communities = 800k vertices, and
    64 000 communities = 1.6M vertices for the top member.  Full
    suite only (the quick/CI flavour skips it); chunked masks, like
    ``pokec-sparse``.  This family exists to pin the construction
    layer: its entries' recorded ``construction_seconds`` are what the
    columnar batch builder is accountable for.

Every run records wall-clock and the trace counters
(``initial_candidate_gains``, ``total_gain_computations``,
``peak_queue_size``, the lazy-refresh counters
``refreshes_skipped``/``dirty_revalidations``, iterations and final DL
bits) plus — schema v3 — the resolved ``mask_backend`` and
``mask_peak_bytes`` (the larger of the mask memory held just after
construction and at convergence; every series entry also carries the
``bigint_mask_bytes_estimate`` reference, so the chunked backends'
memory reduction is a recorded, assertable ratio).  Entries and runs
also record ``mask_chunk_bits`` (0 for bigint), and entries the mask
memory just after construction, ``mask_build_bytes``, which is what
the builder's layout pricing minimises.  The run records
the library default update scope (``lazy``) in its ``update_scope``
field.  Counters are structural — determined by the graph, not the
machine — so CI asserts regressions on them (``--check
benchmarks/perf_bounds.json``) instead of on flaky wall-clock
thresholds; wall-clock is recorded for the human-readable trajectory.
Mask backends are bit-exact interchangeable (the tier-1 equivalence
tests pin it), so the counters do not depend on which layout the
builder picks.

Schema v4 adds the construction layer: every series entry records
``construction_seconds`` (the ``BuildInvertedDB`` wall-clock for that
graph, measured once per size) and — where a pre-columnar reference
exists (:data:`PRE_COLUMNAR_CONSTRUCTION_SECONDS`) —
``construction_baseline_seconds``, so the batch builder's speedup is a
ratio recorded inside the document.  Construction wall-clock is never
asserted: ``max_construction_seconds`` entries in the bounds file are
*report-only* (:func:`construction_time_report`).

Schema v5 adds the search layer: every run records ``search_seconds``
(the measured search-phase wall-clock — construction is timed
separately).

Schema v7 adds observability (:mod:`repro.obs`): the suite-level
``--trace FILE`` records nested spans into one
Chrome trace-event file, ``--progress`` streams throttled heartbeats
to stderr, and ``--metrics FILE`` gives every measured run a *fresh*
metrics registry whose snapshot (counters/gauges/histograms) is folded
into the run entry as ``"metrics"`` and collected into FILE keyed by
``workload/label/case``.  Recording is read-only observation of the
same code path: counters, DL floats and merge sequences are unchanged,
so **all counter bounds apply unchanged with observability on** — the
CI perf-smoke job's traced re-run gates exactly that.

A single workload family can be re-measured without discarding the
rest of an existing document: ``--workload <name>`` (repeatable)
restricts the run, and when the output file already exists its other
workload entries are carried over unchanged (see :func:`merge_into`).
``--list-workloads`` (or ``--list``) prints the registered families
with their quick/full member sizes instead of running anything.

Schema v8 drops four top-level keys: ``mask_backend`` and the three
supervisor-policy keys (the per-task deadline, the retry budget and
the failure mode).  The builder picks each graph's mask layout (still
recorded per series entry and run) and the supervisor runs one fixed
policy.

Schema v9 drops the component-sharded search and with it every key
that described it: the top-level search path, its worker count and
``fault_plan`` (the suite runs no worker pool), each series entry's
component statistics, and each run's search path, worker count,
``retries`` and ``degraded_tasks``.

Schema v10 drops the comparison runs: the ``partial/full``,
``basic/overlap`` and ``basic/full`` runs, the entry's two wall-clock
speedup ratios between them, and the ``dblp``, ``dblp-trend`` and
``usflight`` families, which existed only to time overlap generation
against the full scan.  ``seeding_gain_reduction`` is now
``possible_pairs / initial_candidate_gains`` on every entry; the full
scan seeds exactly one gain per possible pair, so the value is the one
the full run used to measure.

Output document (``BENCH_cspm.json``, schema v10)::

    {
      "schema_version": 10,
      "suite": "cspm-perf",
      "quick": bool,
      "seed": int,
      "metrics": bool,
      "workloads": [
        {
          "workload": "sparse-scaling",
          "kind": "synthetic-community",
          "series": [
            {
              "label": "communities=16",
              "num_vertices": int, "num_leafsets": int,
              "possible_pairs": int,
              "mask_backend": "bigint",          # resolved for this graph
              "mask_chunk_bits": 0,              # chunk width, 0 = bigint
              "bigint_mask_bytes_estimate": int, # whole-graph-int reference
              "mask_build_bytes": int,           # mask bytes after the build
              "construction_seconds": float,     # BuildInvertedDB wall-clock
              "construction_baseline_seconds": float,  # where recorded
              "runs": {
                "partial/overlap": {
                  "wall_seconds": float,
                  "search_seconds": float,       # == wall (search phase only)
                  "initial_candidate_gains": int,
                  "total_gain_computations": int,
                  "peak_queue_size": int,
                  "refreshes_skipped": int,
                  "dirty_revalidations": int,
                  "update_scope": "lazy",
                  "iterations": int,
                  "final_dl_bits": float,
                  "mask_backend": "bigint",
                  "mask_chunk_bits": 0,
                  "mask_peak_bytes": int
                }
              },
              "seeding_gain_reduction": float    # possible_pairs / seed gains
            }, ...
          ]
        }, ...
      ]
    }
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.config import CSPMConfig
from repro.core.cspm_partial import run_partial
from repro.datasets.synthetic import community_attributed_graph, pokec_like
from repro.graphs.attributed_graph import AttributedGraph
from repro.obs import (
    MetricsRegistry,
    Observation,
    activate,
    clock,
    current,
    emit_run_trace,
)
from repro.pipeline import BuildInvertedDB, EncodeCoresets, PipelineContext

SCHEMA_VERSION = 10

WORKLOAD_NAMES = (
    "sparse-scaling",
    "pokec-sparse",
    "pokec-xl",
    "pokec-dense",
)

# The sparse community family: disjoint 6-value pools, 25 vertices per
# community, light cross-community wiring.  Scaling the community count
# scales |SL| linearly and the full pair scan quadratically while the
# overlap neighbourhood per leafset stays constant.
SPARSE_POOL_SIZE = 6
SPARSE_COMMUNITY_SIZE = 25

# Community counts per suite flavour.
SPARSE_SIZES_QUICK = (16, 32, 48)
SPARSE_SIZES_FULL = (16, 32, 48, 64)

# The pokec-sparse paper-scale family: the same disjoint-pool community
# structure at 25 vertices/community.  The quick (CI smoke) size stays
# around 20k vertices; the full series repeats it and crosses the
# 200k-vertex mark, where whole-graph bigint masks would need
# gigabytes (the smoke size is in both flavours so the perf_bounds
# gates apply to either document).
POKEC_SIZES_QUICK = (800,)
POKEC_SIZES_FULL = (800, 2000, 8000)

# The pokec-dense family: ``pokec_like`` scales.  The quick member has
# ~32,700 vertices; 0.05 is the benchmark's dense-social graph.
POKEC_DENSE_SCALES_QUICK = (0.02,)
POKEC_DENSE_SCALES_FULL = (0.02, 0.05)

# The pokec-xl paper-scale family: 32 000 communities = 800k vertices
# and 64 000 = 1.6M — the source paper's pokec size.  Full suite only;
# the quick/CI flavour skips it entirely (an ~hour-class measurement
# has no place in a smoke job).
POKEC_XL_SIZES_QUICK: tuple = ()
POKEC_XL_SIZES_FULL = (32000, 64000)

#: Construction wall-clock of the *pre-columnar* builder (one
#: ``_add_position`` per (coreset, vertex, leaf-value) triple),
#: measured on the reference machine immediately before the columnar
#: refactor (chunked masks, coreset positions precomputed — the same
#: shape ``construction_seconds`` is measured in).  Attached to the
#: matching series entries as ``construction_baseline_seconds`` so the
#: batch builder's speedup is a recorded ratio inside the document,
#: not an out-of-band claim.
PRE_COLUMNAR_CONSTRUCTION_SECONDS: Dict[tuple, float] = {
    ("pokec-sparse", "communities=800"): 0.760,
    ("pokec-sparse", "communities=2000"): 2.191,
    ("pokec-sparse", "communities=8000"): 12.423,
}


def sparse_scaling_graph(num_communities: int, seed: int = 0) -> AttributedGraph:
    """The ``sparse-scaling`` family member with ``num_communities``."""
    pools = [
        [f"c{community}v{value}" for value in range(SPARSE_POOL_SIZE)]
        for community in range(num_communities)
    ]
    return community_attributed_graph(
        community_sizes=[SPARSE_COMMUNITY_SIZE] * num_communities,
        community_pools=pools,
        values_per_vertex=(2, 3),
        intra_degree=2.5,
        inter_degree=0.1,
        seed=seed,
    )


def pokec_sparse_graph(num_communities: int, seed: int = 0) -> AttributedGraph:
    """A ``pokec-sparse`` family member (same structure, paper scale).

    Cross-community wiring is kept lighter than ``sparse-scaling``'s so
    the workload stays dominated by within-community co-occurrence, the
    regime where sparse chunked masks pay off most clearly.
    """
    pools = [
        [f"c{community}v{value}" for value in range(SPARSE_POOL_SIZE)]
        for community in range(num_communities)
    ]
    return community_attributed_graph(
        community_sizes=[SPARSE_COMMUNITY_SIZE] * num_communities,
        community_pools=pools,
        values_per_vertex=(2, 3),
        intra_degree=2.5,
        inter_degree=0.05,
        seed=seed,
    )


def _prepare(graph: AttributedGraph):
    """Encode coresets + build the inverted DB once per workload size.

    Returns the database, the code tables, the initial DL bits and the
    construction wall-clock (the ``BuildInvertedDB`` stage records it
    in ``context.extras`` — schema v4's ``construction_seconds``).
    """
    context = PipelineContext(graph=graph, config=CSPMConfig())
    EncodeCoresets().run(context)
    BuildInvertedDB().run(context)
    return (
        context.inverted_db,
        context.standard_table,
        context.core_table,
        context.initial_dl.total_bits,
        context.extras["construction_seconds"],
    )


def _run_case(
    db0,
    standard,
    core,
    initial_bits: float,
    initial_mask_bytes: int,
    metrics: bool = False,
) -> Dict[str, Any]:
    """One measured CSPM-Partial run on a fresh copy of the database.

    ``metrics`` (schema v7) gives this run a fresh
    :class:`~repro.obs.MetricsRegistry` — composed with whatever suite-
    level tracer/progress session is active — and folds its snapshot
    into the entry as ``"metrics"``, so per-run perf accounting never
    bleeds across cases.
    """
    db = db0.copy()
    parent = current()
    registry = MetricsRegistry() if metrics else None
    obs = (
        Observation(parent.tracer, registry, parent.progress)
        if registry is not None
        else parent
    )
    with activate(obs), obs.span("bench.run"):
        start = clock.perf_counter()
        trace = run_partial(db, standard, core, initial_dl_bits=initial_bits)
        wall = clock.perf_counter() - start
        emit_run_trace(obs.metrics, trace)
        if obs.metrics.enabled:
            obs.metrics.histogram("search.seconds").observe(wall)
    entry = {
        "wall_seconds": round(wall, 6),
        "search_seconds": round(wall, 6),
        "initial_candidate_gains": trace.initial_candidate_gains,
        "total_gain_computations": trace.total_gain_computations,
        "peak_queue_size": trace.peak_queue_size,
        "refreshes_skipped": trace.refreshes_skipped,
        "dirty_revalidations": trace.dirty_revalidations,
        "iterations": trace.num_iterations,
        "final_dl_bits": trace.final_dl_bits,
        "mask_backend": db.mask_backend.name,
        "mask_chunk_bits": db.mask_backend.chunk_bits,
        # A two-point sample: the larger of mask memory just after
        # construction and at convergence.  Positions are conserved
        # but a merge can transiently split a touched row into up to
        # three, so interior maxima may slightly exceed both samples —
        # this is an approximation kept deliberately cheap (no
        # per-merge walks); the CI reduction floor carries an order of
        # magnitude of margin over it.
        "mask_peak_bytes": max(initial_mask_bytes, db.mask_memory_bytes()),
        # run_partial's default scope — the algorithm string is
        # "cspm-partial/<scope>".
        "update_scope": trace.algorithm.rsplit("/", 1)[-1],
    }
    if registry is not None:
        entry["metrics"] = registry.snapshot()
    return entry


def _measure_size(
    graph: AttributedGraph,
    label: str,
    workload: Optional[str] = None,
    metrics: bool = False,
) -> Dict[str, Any]:
    """The measured run and its series entry for one workload size."""
    db0, standard, core, initial_bits, construction_seconds = _prepare(graph)
    num_leafsets = db0.num_leafsets
    possible_pairs = num_leafsets * (num_leafsets - 1) // 2
    build_mask_bytes = db0.mask_memory_bytes()
    run = _run_case(
        db0,
        standard,
        core,
        initial_bits,
        build_mask_bytes,
        metrics=metrics,
    )
    entry: Dict[str, Any] = {
        "label": label,
        "num_vertices": graph.num_vertices,
        "num_leafsets": num_leafsets,
        "possible_pairs": possible_pairs,
        "mask_backend": db0.mask_backend.name,
        "mask_chunk_bits": db0.mask_backend.chunk_bits,
        "bigint_mask_bytes_estimate": db0.bigint_mask_bytes_estimate(),
        "mask_build_bytes": build_mask_bytes,
        "construction_seconds": round(construction_seconds, 6),
        "runs": {"partial/overlap": run},
        # The full scan seeds exactly one gain per possible pair.
        "seeding_gain_reduction": round(
            possible_pairs / max(1, run["initial_candidate_gains"]), 3
        ),
    }
    baseline = PRE_COLUMNAR_CONSTRUCTION_SECONDS.get((workload, label))
    if baseline is not None:
        entry["construction_baseline_seconds"] = baseline
    return entry


def workload_catalog() -> List[Dict[str, Any]]:
    """The registered families with their quick/full member labels.

    The data behind ``--list-workloads``: each record names the
    family, its kind, the series labels of the quick (CI smoke) and
    full flavours, and what runs in it — so ``--workload`` values are
    discoverable without reading this module.
    """

    def communities(sizes: Sequence[int]) -> List[str]:
        return [
            f"communities={n} (~{n * SPARSE_COMMUNITY_SIZE} vertices)"
            for n in sizes
        ]

    return [
        {
            "workload": "sparse-scaling",
            "kind": "synthetic-community",
            "quick": communities(SPARSE_SIZES_QUICK),
            "full": communities(SPARSE_SIZES_FULL),
            "runs": "partial/overlap",
        },
        {
            "workload": "pokec-sparse",
            "kind": "synthetic-community",
            "quick": communities(POKEC_SIZES_QUICK),
            "full": communities(POKEC_SIZES_FULL),
            "runs": "partial/overlap, chunked masks",
        },
        {
            "workload": "pokec-xl",
            "kind": "synthetic-community",
            "quick": [],
            "full": communities(POKEC_XL_SIZES_FULL),
            "runs": "partial/overlap, chunked masks (full suite only)",
        },
        {
            "workload": "pokec-dense",
            "kind": "dataset-analogue",
            "quick": [f"scale={s}" for s in POKEC_DENSE_SCALES_QUICK],
            "full": [f"scale={s}" for s in POKEC_DENSE_SCALES_FULL],
            "runs": "partial/overlap, masks priced by the builder",
        },
    ]


def format_workload_catalog() -> str:
    """``--list-workloads`` text: one block per registered family."""
    lines = []
    for record in workload_catalog():
        lines.append(f"{record['workload']}  [{record['kind']}]")
        lines.append(f"  runs:  {record['runs']}")
        quick = ", ".join(record["quick"]) or "(skipped under --quick)"
        lines.append(f"  quick: {quick}")
        lines.append(f"  full:  {', '.join(record['full'])}")
    return "\n".join(lines)


def run_suite(
    quick: bool = False,
    seed: int = 0,
    log=None,
    only: Optional[Sequence[str]] = None,
    metrics: bool = False,
) -> Dict[str, Any]:
    """Run the workloads and return the ``BENCH_cspm.json`` document.

    ``metrics`` (schema v7) gives every measured run a fresh metrics
    registry and records its snapshot in the run entry; span tracing
    and progress heartbeats are *session-scoped* instead — activate an
    :class:`repro.obs.Observation` around this call (as
    :func:`execute` does for ``--trace``/``--progress``) and every
    stage records into it.

    ``only`` restricts the run to the named workload families (see
    ``WORKLOAD_NAMES``); unknown names raise ``ValueError`` so CLI
    typos fail loudly instead of silently measuring nothing.
    """
    if only:
        unknown = sorted(set(only) - set(WORKLOAD_NAMES))
        if unknown:
            raise ValueError(
                f"unknown workload(s) {unknown}; available: {list(WORKLOAD_NAMES)}"
            )

    def wanted(name: str) -> bool:
        return not only or name in only

    def say(message: str) -> None:
        if log is not None:
            log(message)

    def measure(graph, label, workload):
        return _measure_size(graph, label, workload=workload, metrics=metrics)

    workloads: List[Dict[str, Any]] = []

    if wanted("sparse-scaling"):
        sizes = SPARSE_SIZES_QUICK if quick else SPARSE_SIZES_FULL
        series = []
        for num_communities in sizes:
            say(f"sparse-scaling: communities={num_communities} ...")
            graph = sparse_scaling_graph(num_communities, seed=seed)
            series.append(
                measure(graph, f"communities={num_communities}", "sparse-scaling")
            )
        workloads.append(
            {
                "workload": "sparse-scaling",
                "kind": "synthetic-community",
                "pool_size": SPARSE_POOL_SIZE,
                "community_size": SPARSE_COMMUNITY_SIZE,
                "series": series,
            }
        )

    for family, quick_sizes, full_sizes in (
        ("pokec-sparse", POKEC_SIZES_QUICK, POKEC_SIZES_FULL),
        ("pokec-xl", POKEC_XL_SIZES_QUICK, POKEC_XL_SIZES_FULL),
    ):
        if not wanted(family):
            continue
        sizes = quick_sizes if quick else full_sizes
        if not sizes:
            say(f"{family}: full-suite only, skipped under --quick")
            continue
        series = []
        for num_communities in sizes:
            say(
                f"{family}: communities={num_communities} "
                f"(~{num_communities * SPARSE_COMMUNITY_SIZE} vertices) ..."
            )
            graph = pokec_sparse_graph(num_communities, seed=seed)
            series.append(
                measure(graph, f"communities={num_communities}", family)
            )
        workloads.append(
            {
                "workload": family,
                "kind": "synthetic-community",
                "pool_size": SPARSE_POOL_SIZE,
                "community_size": SPARSE_COMMUNITY_SIZE,
                "series": series,
            }
        )

    if wanted("pokec-dense"):
        scales = POKEC_DENSE_SCALES_QUICK if quick else POKEC_DENSE_SCALES_FULL
        series = []
        for scale in scales:
            say(f"pokec-dense: scale={scale} ...")
            graph = pokec_like(scale=scale, seed=seed)
            series.append(measure(graph, f"scale={scale}", "pokec-dense"))
        workloads.append(
            {
                "workload": "pokec-dense",
                "kind": "dataset-analogue",
                "dataset": "pokec",
                "series": series,
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "cspm-perf",
        "quick": quick,
        "seed": seed,
        "metrics": metrics,
        "workloads": workloads,
    }


def merge_into(
    existing: Dict[str, Any], fresh: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge a (possibly filtered) fresh run into an existing document.

    Workload entries present in ``fresh`` replace the same-named entries
    of ``existing`` in place; entries only in ``existing`` are kept (in
    their original order) so re-measuring one family does not discard
    the rest of ``BENCH_cspm.json``.  Top-level metadata comes from the
    fresh run.
    """
    fresh_by_name = {w["workload"]: w for w in fresh["workloads"]}
    merged: List[Dict[str, Any]] = []
    for workload in existing.get("workloads", []):
        merged.append(fresh_by_name.pop(workload["workload"], workload))
    merged.extend(fresh_by_name.values())
    document = dict(fresh)
    document["workloads"] = merged
    return document


def summarize(document: Dict[str, Any]) -> str:
    """A human-readable table of the measured trajectory."""

    def _ratio(value) -> float:
        return value if value is not None else float("nan")

    lines = [
        f"{'workload':<16}{'size':<16}{'|SL|':>7}{'pairs':>11}"
        f"{'seed red.':>10}"
        f"{'partial s':>10}{'build s':>9}{'peak Q':>8}{'skipped':>9}{'dirty':>7}"
        f"{'mask':>9}{'mask MB':>9}{'vs bigint':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for workload in document["workloads"]:
        for entry in workload["series"]:
            partial = entry["runs"]["partial/overlap"]
            peak_bytes = partial.get("mask_peak_bytes")
            estimate = entry.get("bigint_mask_bytes_estimate")
            reduction = (
                estimate / peak_bytes
                if peak_bytes and estimate
                else float("nan")
            )
            lines.append(
                f"{workload['workload']:<16}{entry['label']:<16}"
                f"{entry['num_leafsets']:>7}{entry['possible_pairs']:>11}"
                f"{_ratio(entry.get('seeding_gain_reduction')):>10.2f}"
                f"{partial['wall_seconds']:>10.3f}"
                f"{_ratio(entry.get('construction_seconds')):>9.3f}"
                f"{partial['peak_queue_size']:>8}"
                f"{partial.get('refreshes_skipped', 0):>9}"
                f"{partial.get('dirty_revalidations', 0):>7}"
                f"{partial.get('mask_backend', '?'):>9}"
                f"{(peak_bytes or 0) / 1e6:>9.2f}"
                f"{reduction:>9.1f}x"
            )
    return "\n".join(lines)


#: Bounds-file keys that never produce failures; ``check_bounds``
#: skips constraint sets made only of these (see
#: :func:`construction_time_report`, which consumes them).
REPORT_ONLY_BOUNDS = frozenset({"max_construction_seconds"})


def check_bounds(
    document: Dict[str, Any], bounds: Dict[str, Any]
) -> List[str]:
    """Counter-based regression check; returns failure messages.

    ``bounds`` maps workload name -> series label -> constraints:

    ``max_initial_candidate_gains``
        Upper bound on the overlap run's seeding gain evaluations
        (structural: grows only if candidate generation regresses).
    ``min_seeding_gain_reduction``
        Lower bound on ``possible_pairs`` over the overlap run's seeding
        gain evaluations (the full scan seeds one gain per pair).
    ``max_total_gain_computations``
        Upper bound on the overlap run's total gain evaluations.
    ``min_refreshes_skipped``
        Lower bound on the lazy scope's skipped refreshes (structural:
        drops to zero if the bound-driven refresh stops deferring).
    ``max_dirty_revalidations``
        Upper bound on the lazy scope's queue-head revalidations.
    ``min_mask_memory_reduction``
        Lower bound on ``bigint_mask_bytes_estimate / mask_peak_bytes``
        of the overlap run — the chunked backends' raison d'être.  The
        estimates are analytic (machine-independent), so the ratio is
        as deterministic as the counters.
    ``min_build_mask_memory_reduction``
        Lower bound on ``bigint_mask_bytes_estimate / mask_build_bytes``:
        the same ratio taken just after construction, the rows the
        builder's layout pricing sees.  On a dense graph the end-of-run
        masks dominate the peak, so this is the ratio that gates the
        layout choice.
    ``require_mask_backend``
        Exact expected resolved backend name for the overlap run
        (guards the pokec family against silently falling back to
        bigint masks).
    ``max_construction_seconds``
        *Report-only*: construction wall-clock is machine-dependent, so
        this key never produces a failure here — it is read by
        :func:`construction_time_report`, which prints within/over lines
        alongside the recorded pre-columnar baseline ratio.
    """
    failures: List[str] = []
    by_name = {w["workload"]: w for w in document["workloads"]}
    for workload_name, per_label in bounds.items():
        if workload_name.startswith("__"):  # comment keys
            continue
        enforceable = any(
            any(key not in REPORT_ONLY_BOUNDS for key in constraints)
            for constraints in per_label.values()
        )
        workload = by_name.get(workload_name)
        if workload is None:
            if enforceable:
                failures.append(
                    f"workload {workload_name!r} missing from document"
                )
            # A section made only of report-only keys (e.g. pokec-xl
            # construction references) may legitimately be absent from
            # the quick flavour.
            continue
        by_label = {entry["label"]: entry for entry in workload["series"]}
        for label, constraints in per_label.items():
            if all(key in REPORT_ONLY_BOUNDS for key in constraints):
                # Nothing enforceable here (e.g. a full-suite-only
                # label carrying just a construction reference): the
                # quick flavour legitimately lacks the series.
                continue
            entry = by_label.get(label)
            if entry is None:
                failures.append(
                    f"{workload_name}: series {label!r} missing from document"
                )
                continue
            overlap = entry["runs"]["partial/overlap"]
            limit = constraints.get("max_initial_candidate_gains")
            if limit is not None and overlap["initial_candidate_gains"] > limit:
                failures.append(
                    f"{workload_name}/{label}: initial_candidate_gains "
                    f"{overlap['initial_candidate_gains']} > bound {limit}"
                )
            floor = constraints.get("min_seeding_gain_reduction")
            if floor is not None:
                reduction = entry["seeding_gain_reduction"]
                if reduction < floor:
                    failures.append(
                        f"{workload_name}/{label}: seeding_gain_reduction "
                        f"{reduction} < bound {floor}"
                    )
            limit = constraints.get("max_total_gain_computations")
            if limit is not None and overlap["total_gain_computations"] > limit:
                failures.append(
                    f"{workload_name}/{label}: total_gain_computations "
                    f"{overlap['total_gain_computations']} > bound {limit}"
                )
            floor = constraints.get("min_refreshes_skipped")
            if floor is not None and overlap.get("refreshes_skipped", 0) < floor:
                failures.append(
                    f"{workload_name}/{label}: refreshes_skipped "
                    f"{overlap.get('refreshes_skipped', 0)} < bound {floor}"
                )
            limit = constraints.get("max_dirty_revalidations")
            if limit is not None and overlap.get("dirty_revalidations", 0) > limit:
                failures.append(
                    f"{workload_name}/{label}: dirty_revalidations "
                    f"{overlap.get('dirty_revalidations', 0)} > bound {limit}"
                )
            floor = constraints.get("min_mask_memory_reduction")
            if floor is not None:
                estimate = entry.get("bigint_mask_bytes_estimate", 0)
                peak = overlap.get("mask_peak_bytes", 0)
                reduction = estimate / peak if peak else 0.0
                if reduction < floor:
                    failures.append(
                        f"{workload_name}/{label}: mask memory reduction "
                        f"{reduction:.2f}x (bigint estimate {estimate} / "
                        f"peak {peak}) < bound {floor}"
                    )
            floor = constraints.get("min_build_mask_memory_reduction")
            if floor is not None:
                estimate = entry.get("bigint_mask_bytes_estimate", 0)
                built = entry.get("mask_build_bytes", 0)
                reduction = estimate / built if built else 0.0
                if reduction < floor:
                    failures.append(
                        f"{workload_name}/{label}: build mask memory "
                        f"reduction {reduction:.2f}x (bigint estimate "
                        f"{estimate} / built {built}) < bound {floor}"
                    )
            expected = constraints.get("require_mask_backend")
            if expected is not None and overlap.get("mask_backend") != expected:
                failures.append(
                    f"{workload_name}/{label}: mask_backend "
                    f"{overlap.get('mask_backend')!r} != required {expected!r}"
                )
    return failures


def construction_time_report(
    document: Dict[str, Any], bounds: Dict[str, Any]
) -> List[str]:
    """Report-only construction wall-clock lines (never failures).

    For every ``max_construction_seconds`` entry in ``bounds`` whose
    workload/label exists in ``document``, emits one line comparing the
    measured ``construction_seconds`` against the reference value and —
    where the entry carries a recorded ``construction_baseline_seconds``
    — the speedup over the pre-columnar builder.  Wall-clock is never
    asserted (machines differ); regressions stay visible in the job
    log without flaking CI.
    """
    lines: List[str] = []
    by_name = {w["workload"]: w for w in document["workloads"]}
    for workload_name, per_label in bounds.items():
        if workload_name.startswith("__"):
            continue
        workload = by_name.get(workload_name)
        if workload is None:
            continue
        by_label = {entry["label"]: entry for entry in workload["series"]}
        for label, constraints in per_label.items():
            reference = constraints.get("max_construction_seconds")
            entry = by_label.get(label)
            if reference is None or entry is None:
                continue
            seconds = entry.get("construction_seconds")
            if seconds is None:
                continue
            status = (
                "within" if seconds <= reference else "OVER (report-only)"
            )
            line = (
                f"{workload_name}/{label}: construction {seconds:.3f}s "
                f"{status} reference {reference}s"
            )
            baseline = entry.get("construction_baseline_seconds")
            if baseline:
                line += (
                    f"; pre-columnar baseline {baseline}s "
                    f"({baseline / seconds:.2f}x)"
                )
            lines.append(line)
    return lines


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """The benchmark flags, shared by ``repro bench`` and the script."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes/scales (the CI perf-smoke configuration)",
    )
    parser.add_argument(
        "--out",
        "--output",
        dest="out",
        default="BENCH_cspm.json",
        help="output path (default: BENCH_cspm.json in the cwd)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        default=None,
        metavar="NAME",
        choices=WORKLOAD_NAMES,
        help="measure only this workload family (repeatable); existing "
        "entries of the output file for other families are kept",
    )
    parser.add_argument(
        "--trace",
        dest="trace",
        default=None,
        metavar="FILE",
        help="record observability spans for every measured run — "
        "pipeline stages and search runs (repro.obs) — into one "
        "Chrome trace-event file (NDJSON when "
        "FILE ends with '.ndjson'); recording never changes counters",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics",
        default=None,
        metavar="FILE",
        help="give every measured run a fresh metrics registry (schema "
        "v7: snapshots folded into the run entries) and collect them "
        "into FILE keyed by workload/label/case",
    )
    parser.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        help="stream throttled progress heartbeats for long phases to "
        "stderr",
    )
    parser.add_argument(
        "--list-workloads",
        "--list",
        dest="list_workloads",
        action="store_true",
        help="print the registered workload families with their "
        "quick/full member sizes and exit",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BOUNDS_JSON",
        help="assert counter bounds from this file; exit 1 on regression "
        "(max_construction_seconds entries are report-only)",
    )


def collect_metrics(document: Dict[str, Any]) -> Dict[str, Any]:
    """Per-run metric snapshots keyed ``workload/label/case``.

    The ``--metrics FILE`` document: a flat view over the snapshots
    already embedded in the run entries, so the file and the BENCH
    document can never disagree.
    """
    collected: Dict[str, Any] = {}
    for workload in document.get("workloads", []):
        for entry in workload["series"]:
            for case, run in entry["runs"].items():
                snapshot = run.get("metrics")
                if snapshot is not None:
                    key = f"{workload['workload']}/{entry['label']}/{case}"
                    collected[key] = snapshot
    return collected


def execute(args) -> int:
    """Run the suite per parsed ``args`` (see :func:`add_bench_arguments`)."""
    if getattr(args, "list_workloads", False):
        print(format_workload_catalog())
        return 0
    # The suite-level observation session: one tracer/progress stream
    # shared by every measured run; per-run metric registries are
    # created inside _run_case so snapshots stay per-case.
    obs = Observation.create(
        trace=getattr(args, "trace", None) is not None,
        progress=bool(getattr(args, "progress", False)),
    )
    with activate(obs):
        fresh = run_suite(
            quick=args.quick,
            seed=args.seed,
            log=print,
            only=args.workloads,
            metrics=getattr(args, "metrics", None) is not None,
        )
    if getattr(args, "trace", None):
        obs.tracer.write(args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", None):
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(collect_metrics(fresh), handle, indent=2)
            handle.write("\n")
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    document = fresh
    if args.workloads:
        try:
            with open(args.out) as handle:
                document = merge_into(json.load(handle), fresh)
        except (FileNotFoundError, json.JSONDecodeError):
            pass
    # Write-then-rename so an interrupted run never truncates an
    # existing document (the .tmp suffix is gitignored).  On any
    # failure mid-write the orphaned .tmp is removed, leaving both the
    # target document and the working tree untouched.
    temporary = f"{args.out}.tmp"
    try:
        with open(temporary, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        os.replace(temporary, args.out)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
    print(f"\nwrote {args.out}")
    print(summarize(document))

    if args.check:
        with open(args.check) as handle:
            bounds = json.load(handle)
        if args.workloads:
            # Only gate what this invocation actually measured:
            # carried-over entries may predate the current schema (or
            # the current code), and failing on them would blame a
            # family that was never re-run.
            bounds = {
                name: constraints
                for name, constraints in bounds.items()
                if name.startswith("__") or name in args.workloads
            }
        reports = construction_time_report(fresh, bounds)
        if reports:
            print("\nconstruction wall-clock (report-only):")
            for line in reports:
                print(f"  {line}")
        failures = check_bounds(fresh, bounds)
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\ncounter bounds OK ({args.check})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_suite",
        description="CSPM perf suite: emit the BENCH_cspm.json trajectory",
    )
    add_bench_arguments(parser)
    return execute(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
