"""Tests for the perf-benchmark subsystem (``repro.perf.suite``).

The full suite is exercised by CI's perf-smoke job; here we cover the
building blocks on tiny inputs: measurement of one workload size, the
document shape, the counter-bound checker, and workload determinism.
"""

import json

import pytest

import repro.core.masks as masks
from repro.perf.suite import (
    SCHEMA_VERSION,
    _measure_size,
    check_bounds,
    construction_time_report,
    merge_into,
    pokec_sparse_graph,
    run_suite,
    sparse_scaling_graph,
    summarize,
)


@pytest.fixture(scope="module")
def tiny_entry():
    graph = sparse_scaling_graph(3)
    return _measure_size(graph, "communities=3")


class TestMeasureSize:
    def test_runs_only_partial_overlap(self, tiny_entry):
        # Schema v10: one run per entry, under the key old documents
        # and check_bounds read.
        assert set(tiny_entry["runs"]) == {"partial/overlap"}
        assert not {"partial_wall_speedup", "basic_wall_speedup"} & set(
            tiny_entry
        )

    def test_counters_present_and_consistent(self, tiny_entry):
        for run in tiny_entry["runs"].values():
            assert run["wall_seconds"] >= 0.0
            assert run["initial_candidate_gains"] >= 0
            assert run["total_gain_computations"] >= run["initial_candidate_gains"]
            assert run["refreshes_skipped"] >= 0
            assert run["dirty_revalidations"] >= 0
        assert tiny_entry["runs"]["partial/overlap"]["peak_queue_size"] >= 1

    def test_schema_version_and_lazy_counters(self, tiny_entry):
        assert SCHEMA_VERSION == 10
        partial = tiny_entry["runs"]["partial/overlap"]
        # The run uses (and records) the library default scope, and
        # the bound-driven refresh skips at least something on any
        # non-trivial workload.
        assert partial["update_scope"] == "lazy"
        assert partial["refreshes_skipped"] > 0

    def test_schema_v3_mask_fields(self, tiny_entry):
        # The tiny graph resolves "auto" to bigint masks; every run
        # records the backend it executed on and its peak mask bytes,
        # and the entry carries the whole-graph bigint reference.
        assert tiny_entry["mask_backend"] == "bigint"
        assert tiny_entry["bigint_mask_bytes_estimate"] > 0
        for run in tiny_entry["runs"].values():
            assert run["mask_backend"] == "bigint"
            assert run["mask_peak_bytes"] > 0

    def test_schema_v4_construction_seconds(self, tiny_entry):
        # Every series entry records the BuildInvertedDB wall-clock;
        # the tiny label has no recorded pre-columnar baseline.
        assert tiny_entry["construction_seconds"] >= 0.0
        assert "construction_baseline_seconds" not in tiny_entry

    def test_schema_v5_search_fields(self, tiny_entry):
        # Every run records its search wall-clock.  Schema v9 dropped
        # the sharded search's component statistics from the entry and
        # its mode, worker and supervisor keys from every run.
        assert not {"num_components", "largest_component_frac"} & set(
            tiny_entry
        )
        dropped = {"search", "search_workers", "retries", "degraded_tasks"}
        for run in tiny_entry["runs"].values():
            assert run["search_seconds"] >= 0.0
            assert not dropped & set(run)

    def test_recorded_baselines_attach_to_pokec_labels(self):
        from repro.perf.suite import PRE_COLUMNAR_CONSTRUCTION_SECONDS

        graph = pokec_sparse_graph(4)
        entry = _measure_size(
            graph,
            "communities=800",  # label with a recorded baseline
            workload="pokec-sparse",
        )
        assert entry["construction_baseline_seconds"] == (
            PRE_COLUMNAR_CONSTRUCTION_SECONDS[
                ("pokec-sparse", "communities=800")
            ]
        )

    def test_counters_identical_across_mask_backends(self, monkeypatch):
        # The size rule picks the backend; lowering its threshold puts
        # the same tiny graph on chunked masks.
        graph = sparse_scaling_graph(3)
        structural = (
            "initial_candidate_gains",
            "total_gain_computations",
            "peak_queue_size",
            "refreshes_skipped",
            "dirty_revalidations",
            "iterations",
            "final_dl_bits",
        )
        entries = {"bigint": _measure_size(graph, "communities=3")}
        monkeypatch.setattr(masks, "AUTO_CHUNKED_MIN_BITS", 1)
        entries["chunked"] = _measure_size(graph, "communities=3")
        reference = entries["bigint"]["runs"]["partial/overlap"]
        for backend, entry in entries.items():
            assert entry["mask_backend"] == backend
            run = entry["runs"]["partial/overlap"]
            for field in structural:
                assert run[field] == reference[field], (backend, field)

    def test_overlap_seeding_never_costlier(self, tiny_entry):
        # The full scan would seed one gain per possible pair.
        seeded = tiny_entry["runs"]["partial/overlap"]["initial_candidate_gains"]
        assert seeded <= tiny_entry["possible_pairs"]
        assert tiny_entry["seeding_gain_reduction"] == round(
            tiny_entry["possible_pairs"] / seeded, 3
        )
        assert tiny_entry["seeding_gain_reduction"] >= 1.0

    def test_entry_is_json_serialisable(self, tiny_entry):
        restored = json.loads(json.dumps(tiny_entry))
        assert restored["label"] == "communities=3"

    def test_summary_renders(self, tiny_entry):
        document = {
            "workloads": [
                {"workload": "sparse-scaling", "series": [tiny_entry]}
            ]
        }
        text = summarize(document)
        assert "sparse-scaling" in text and "communities=3" in text


class TestAcceptance:
    def test_sparse_seeding_gains_cut_at_least_5x(self):
        # The headline counter criterion on the sparse Fig. 5 style
        # workload: overlap-driven generation evaluates >=5x fewer
        # gains at seeding than the full scan, which seeds one gain per
        # possible pair.
        from repro.core.cspm_partial import run_partial
        from repro.perf.suite import _prepare

        db0, standard, core, bits, _build_seconds = _prepare(
            sparse_scaling_graph(24)
        )
        possible = db0.num_leafsets * (db0.num_leafsets - 1) // 2
        trace = run_partial(db0, standard, core, initial_dl_bits=bits)
        assert trace.initial_candidate_gains * 5 <= possible


class TestWorkloadFilter:
    def test_only_restricts_the_run(self):
        document = run_suite(quick=True, only=["sparse-scaling"])
        assert [w["workload"] for w in document["workloads"]] == [
            "sparse-scaling"
        ]
        assert document["schema_version"] == SCHEMA_VERSION
        # Schema v10: every entry runs partial/overlap only and carries
        # its seeding reduction.
        for entry in document["workloads"][0]["series"]:
            assert set(entry["runs"]) == {"partial/overlap"}
            seeded = entry["runs"]["partial/overlap"]["initial_candidate_gains"]
            assert entry["seeding_gain_reduction"] == round(
                entry["possible_pairs"] / seeded, 3
            )
        # Schema v8 dropped the suite-level engine and policy keys,
        # schema v9 the search path, its worker count and fault plan.
        dropped = {
            "mask_backend",
            "worker_timeout",
            "max_task_retries",
            "on_worker_failure",
            "search",
            "search_workers",
            "fault_plan",
        }
        assert not dropped & set(document)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_suite(quick=True, only=["nope"])

    def test_merge_into_preserves_other_workloads(self):
        existing = {
            "schema_version": 1,
            "workloads": [
                {"workload": "sparse-scaling", "series": ["old-sparse"]},
                {"workload": "pokec-sparse", "series": ["old-pokec"]},
            ],
        }
        fresh = {
            "schema_version": SCHEMA_VERSION,
            "quick": True,
            "workloads": [{"workload": "pokec-sparse", "series": ["new-pokec"]}],
        }
        merged = merge_into(existing, fresh)
        assert merged["schema_version"] == SCHEMA_VERSION
        assert [w["workload"] for w in merged["workloads"]] == [
            "sparse-scaling",
            "pokec-sparse",
        ]
        assert merged["workloads"][0]["series"] == ["old-sparse"]
        assert merged["workloads"][1]["series"] == ["new-pokec"]

    def test_merge_into_appends_new_workloads(self):
        existing = {"workloads": [{"workload": "pokec-sparse", "series": []}]}
        fresh = {
            "schema_version": SCHEMA_VERSION,
            "workloads": [
                {"workload": "pokec-sparse", "series": ["new"]},
                {"workload": "pokec-xl", "series": ["added"]},
            ],
        }
        merged = merge_into(existing, fresh)
        assert [w["workload"] for w in merged["workloads"]] == [
            "pokec-sparse",
            "pokec-xl",
        ]


class TestBenchCli:
    def test_workload_filter_merges_into_existing_output(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        kept = {"workload": "pokec-sparse", "series": [], "note": "kept"}
        out.write_text(json.dumps({"schema_version": 9, "workloads": [kept]}))
        # Re-measuring one family keeps the other family's entry.
        assert main(["bench", "--quick", "--output", str(out),
                     "--workload", "sparse-scaling"]) == 0
        document = json.loads(out.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert [w["workload"] for w in document["workloads"]] == [
            "pokec-sparse",
            "sparse-scaling",
        ]
        assert document["workloads"][0] == kept
        capsys.readouterr()


class TestPokecSparse:
    """The paper-scale family (measured tiny here; CI runs the smoke)."""

    @pytest.fixture(scope="class")
    def pokec_entry(self):
        # Real members have 20,000+ vertices and resolve to chunked
        # masks; the size rule's threshold is lowered to match here.
        graph = pokec_sparse_graph(4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(masks, "AUTO_CHUNKED_MIN_BITS", 1)
            return _measure_size(graph, "communities=4")

    def test_overlap_only_runs(self, pokec_entry):
        assert set(pokec_entry["runs"]) == {"partial/overlap"}
        assert pokec_entry["seeding_gain_reduction"] >= 1.0

    def test_chunked_masks_recorded(self, pokec_entry):
        run = pokec_entry["runs"]["partial/overlap"]
        assert pokec_entry["mask_backend"] == "chunked"
        assert run["mask_backend"] == "chunked"
        assert run["mask_peak_bytes"] > 0
        assert pokec_entry["bigint_mask_bytes_estimate"] > 0

    def test_summary_handles_null_ratios(self, pokec_entry):
        # A carried-over schema-v9 entry has no seeding reduction.
        old = dict(pokec_entry, seeding_gain_reduction=None)
        text = summarize(
            {"workloads": [{"workload": "pokec-sparse", "series": [old]}]}
        )
        assert "pokec-sparse" in text and "chunked" in text

    def test_deterministic(self):
        first = pokec_sparse_graph(3)
        second = pokec_sparse_graph(3)
        assert first.num_vertices == second.num_vertices
        assert sorted(first.edges()) == sorted(second.edges())


class TestSparseScalingGraph:
    def test_deterministic(self):
        first = sparse_scaling_graph(3)
        second = sparse_scaling_graph(3)
        assert first.num_vertices == second.num_vertices
        assert sorted(first.edges()) == sorted(second.edges())

    def test_scales_value_universe(self):
        small = sparse_scaling_graph(2)
        large = sparse_scaling_graph(4)
        assert len(large.attribute_values()) > len(small.attribute_values())


class TestCheckBounds:
    def document(
        self, seed_gains=100, reduction=8.0, total=500, skipped=900, dirty=40
    ):
        return {
            "workloads": [
                {
                    "workload": "sparse-scaling",
                    "series": [
                        {
                            "label": "communities=48",
                            "seeding_gain_reduction": reduction,
                            "bigint_mask_bytes_estimate": 1000,
                            "runs": {
                                "partial/overlap": {
                                    "initial_candidate_gains": seed_gains,
                                    "total_gain_computations": total,
                                    "refreshes_skipped": skipped,
                                    "dirty_revalidations": dirty,
                                    "mask_backend": "chunked",
                                    "mask_peak_bytes": 100,
                                }
                            },
                        }
                    ],
                }
            ]
        }

    def test_passes_within_bounds(self):
        bounds = {
            "__comment": "ignored",
            "sparse-scaling": {
                "communities=48": {
                    "max_initial_candidate_gains": 150,
                    "min_seeding_gain_reduction": 5.0,
                    "max_total_gain_computations": 600,
                }
            },
        }
        assert check_bounds(self.document(), bounds) == []

    def test_flags_each_regression(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {
                    "max_initial_candidate_gains": 50,
                    "min_seeding_gain_reduction": 10.0,
                    "max_total_gain_computations": 400,
                }
            }
        }
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 3
        assert any("initial_candidate_gains" in f for f in failures)

    def test_lazy_counter_bounds_flagged(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {
                    "min_refreshes_skipped": 1000,
                    "max_dirty_revalidations": 30,
                }
            }
        }
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 2
        assert any("refreshes_skipped" in f for f in failures)
        assert any("dirty_revalidations" in f for f in failures)

    def test_lazy_counter_bounds_pass(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {
                    "min_refreshes_skipped": 500,
                    "max_dirty_revalidations": 50,
                }
            }
        }
        assert check_bounds(self.document(), bounds) == []

    def test_mask_memory_reduction_bound(self):
        # The fixture document holds a 10x reduction (1000 / 100).
        bounds = {
            "sparse-scaling": {
                "communities=48": {"min_mask_memory_reduction": 5.0}
            }
        }
        assert check_bounds(self.document(), bounds) == []
        bounds["sparse-scaling"]["communities=48"][
            "min_mask_memory_reduction"
        ] = 20.0
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 1 and "mask memory reduction" in failures[0]

    def test_required_mask_backend(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {"require_mask_backend": "chunked"}
            }
        }
        assert check_bounds(self.document(), bounds) == []
        bounds["sparse-scaling"]["communities=48"][
            "require_mask_backend"
        ] = "bigint"
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 1 and "mask_backend" in failures[0]

    def test_missing_workload_or_series_reported(self):
        bounds = {
            "nope": {"x": {"max_initial_candidate_gains": 1}},
            "sparse-scaling": {
                "communities=99": {"max_total_gain_computations": 1}
            },
        }
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 2

    def test_report_only_series_may_be_absent(self):
        # A full-suite-only label carrying just a construction
        # reference must not fail the quick flavour's check.
        bounds = {
            "sparse-scaling": {
                "communities=99": {"max_construction_seconds": 1.0}
            }
        }
        assert check_bounds(self.document(), bounds) == []

    def test_report_only_workload_may_be_absent(self):
        # Same at the workload level: pokec-xl is skipped entirely
        # under --quick, so a bounds section holding only construction
        # references must not fail the quick check — but a section
        # with any enforceable key still must.
        report_only = {
            "pokec-xl": {
                "communities=32000": {"max_construction_seconds": 30.0}
            }
        }
        assert check_bounds(self.document(), report_only) == []
        enforceable = {
            "pokec-xl": {
                "communities=32000": {"max_total_gain_computations": 1}
            }
        }
        assert len(check_bounds(self.document(), enforceable)) == 1

    def test_repo_bounds_file_is_wellformed(self):
        from pathlib import Path

        path = Path(__file__).parents[1] / "benchmarks" / "perf_bounds.json"
        bounds = json.loads(path.read_text())
        constrained = [k for k in bounds if not k.startswith("__")]
        assert constrained == ["sparse-scaling", "pokec-sparse", "pokec-xl"]
        # pokec-xl never runs under --quick, so its section must stay
        # purely report-only (check_bounds would otherwise fail CI).
        for constraints in bounds["pokec-xl"].values():
            assert set(constraints) <= {"max_construction_seconds"}
        pokec = bounds["pokec-sparse"]["communities=800"]
        # The acceptance-criterion floor: chunked masks must stay at
        # least 5x below the whole-graph bigint estimate.
        assert pokec["min_mask_memory_reduction"] >= 5.0
        assert pokec["require_mask_backend"] == "chunked"


class TestWorkloadCatalog:
    """Satellite: --list-workloads / --list discoverability."""

    def test_catalog_covers_every_registered_family(self):
        from repro.perf.suite import WORKLOAD_NAMES, workload_catalog

        names = [record["workload"] for record in workload_catalog()]
        assert names == list(WORKLOAD_NAMES)

    def test_catalog_lists_quick_and_full_sizes(self):
        from repro.perf.suite import workload_catalog

        by_name = {r["workload"]: r for r in workload_catalog()}
        sparse = by_name["sparse-scaling"]
        assert any("communities=16" in label for label in sparse["quick"])
        assert any("communities=64" in label for label in sparse["full"])
        xl = by_name["pokec-xl"]
        assert xl["quick"] == []  # full suite only
        assert any("communities=32000" in label for label in xl["full"])
        assert any("1600000 vertices" in label for label in xl["full"])

    def test_format_renders_every_family(self):
        from repro.perf.suite import WORKLOAD_NAMES, format_workload_catalog

        text = format_workload_catalog()
        for name in WORKLOAD_NAMES:
            assert name in text
        assert "skipped under --quick" in text

    def test_bench_cli_list_workloads(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "pokec-xl" in out and "sparse-scaling" in out

    def test_perf_suite_script_list_alias(self, capsys):
        from repro.perf.suite import main as suite_main

        assert suite_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "pokec-xl" in out

    def test_pokec_xl_skipped_under_quick(self):
        document = run_suite(quick=True, only=["pokec-xl"])
        assert document["workloads"] == []


class TestConstructionReporting:
    """Satellite: report-only max_construction_seconds handling."""

    def entry(self, seconds, baseline=None):
        entry = {"label": "communities=800", "construction_seconds": seconds}
        if baseline is not None:
            entry["construction_baseline_seconds"] = baseline
        return {
            "workloads": [
                {"workload": "pokec-sparse", "series": [entry]}
            ]
        }

    BOUNDS = {
        "__comment": "x",
        "pokec-sparse": {
            "communities=800": {"max_construction_seconds": 1.0}
        },
    }

    def test_within_reference_reports_and_never_fails(self):
        document = self.entry(0.5, baseline=1.5)
        lines = construction_time_report(document, self.BOUNDS)
        assert len(lines) == 1
        assert "within" in lines[0]
        assert "3.00x" in lines[0]  # baseline ratio 1.5 / 0.5
        assert check_bounds(document, self.BOUNDS) == []

    def test_over_reference_is_report_only(self):
        document = self.entry(2.0)
        lines = construction_time_report(document, self.BOUNDS)
        assert len(lines) == 1
        assert "OVER (report-only)" in lines[0]
        # The counter checker never fails on wall-clock.
        assert check_bounds(document, self.BOUNDS) == []

    def test_missing_entries_are_silently_skipped(self):
        assert construction_time_report({"workloads": []}, self.BOUNDS) == []


class TestAtomicWrite:
    """A failed output write must leave no orphaned ``.tmp`` file and
    must not touch an existing output document."""

    def test_failed_write_cleans_tmp_and_preserves_output(
        self, tmp_path, monkeypatch, capsys
    ):
        import argparse

        import repro.perf.suite as suite_module

        out = tmp_path / "bench.json"
        out.write_text('{"previous": true}')
        monkeypatch.setattr(
            suite_module,
            "run_suite",
            lambda **kwargs: {"schema_version": SCHEMA_VERSION, "workloads": []},
        )

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(suite_module.json, "dump", explode)
        args = argparse.Namespace(
            quick=True,
            seed=0,
            workloads=None,
            out=str(out),
            check=None,
            list_workloads=False,
        )
        with pytest.raises(OSError, match="disk full"):
            suite_module.execute(args)
        assert not (tmp_path / "bench.json.tmp").exists()
        assert json.loads(out.read_text()) == {"previous": True}
        capsys.readouterr()
