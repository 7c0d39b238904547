"""The supervised runtime's resilience guarantee, exercised end to end.

The one multiprocess path in this repo, ``fit_many``'s process pool,
is pinned bit-exact to its serial twin, so the strongest possible claim is testable and tested here:
whatever a worker does — crash (``os._exit``), hang past the timeout,
fail the result pickle, or return a corrupt payload — the supervised
run still produces the serial-identical result, via retry on a fresh
pool or in-process degradation.  Faults come from deterministic
:class:`~repro.runtime.faults.FaultPlan` schedules, so every chaos
scenario here reproduces exactly.

Covered at the batch site: retry-then-succeed and degrade-to-serial
past the retry budget.
"""

import pytest

from repro.config import CSPMConfig
from repro.errors import ConfigError
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph
from repro.runtime import (
    DEFAULT_WORKER_TIMEOUT,
    ENV_VAR,
    CorruptResult,
    FaultEvent,
    FaultPlan,
    RuntimePolicy,
    SiteReport,
    backoff_seconds,
    environment_plan,
    resolve_plan,
    run_supervised,
)

#: A hang long enough to trip the short test timeouts below, short
#: enough that a worker the supervisor somehow failed to terminate
#: exits the test run on its own.
HANG = 15.0

#: Timeout used by the hang tests: generous against slow CI workers,
#: small against HANG.
SHORT_TIMEOUT = 2.0


def _no_sleep(_seconds: float) -> None:
    """Injected clock for tests: skip real backoff delays."""


def quiet_policy(**kwargs) -> RuntimePolicy:
    kwargs.setdefault("sleep", _no_sleep)
    return RuntimePolicy(**kwargs)


def _double(job):
    """Module-level worker for the supervisor unit tests (FRK001)."""
    return job * 2


def crash_plan(site, index=0, times=1, kind="crash"):
    return FaultPlan(
        events=(
            FaultEvent(
                site=site, index=index, kind=kind, times=times,
                hang_seconds=HANG,
            ),
        )
    )


# ----------------------------------------------------------------------
# FaultPlan / FaultEvent semantics
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ConfigError, match="site"):
            FaultEvent(site="disk", index=0, kind="crash")
        with pytest.raises(ConfigError, match="kind"):
            FaultEvent(site="batch", index=0, kind="gamma-ray")
        with pytest.raises(ConfigError, match="index"):
            FaultEvent(site="batch", index=-1, kind="crash")
        with pytest.raises(ConfigError, match="times"):
            FaultEvent(site="batch", index=0, kind="crash", times=0)
        with pytest.raises(ConfigError, match="hang_seconds"):
            FaultEvent(site="batch", index=0, kind="hang", hang_seconds=0)

    @pytest.mark.parametrize("site", ["search", "construction"])
    def test_removed_sites_rejected(self, site):
        with pytest.raises(ConfigError) as excinfo:
            FaultEvent(site=site, index=0, kind="crash")
        assert str(excinfo.value) == (
            f"fault event site must be one of ('batch',), got {site!r}"
        )

    def test_times_budget_gates_attempts(self):
        plan = crash_plan("batch", index=2, times=2)
        assert plan.fault_for("batch", 2, 0) is not None
        assert plan.fault_for("batch", 2, 1) is not None
        assert plan.fault_for("batch", 2, 2) is None  # budget spent
        assert plan.fault_for("batch", 1, 0) is None  # other index

    def test_first_matching_event_wins(self):
        plan = FaultPlan(
            events=(
                FaultEvent(site="batch", index=0, kind="crash"),
                FaultEvent(site="batch", index=0, kind="hang"),
            )
        )
        assert plan.fault_for("batch", 0, 0).kind == "crash"

    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(3) == FaultPlan.seeded(3)
        assert FaultPlan.seeded(3) != FaultPlan.seeded(4)
        assert not FaultPlan.seeded(3, rate=0.0)
        full = FaultPlan.seeded(3, rate=1.0, max_index=4)
        assert len(full.events) == 4  # every (site, index) pair

    def test_seeded_plans_target_only_the_batch_site(self):
        plan = FaultPlan.seeded(5, rate=1.0, max_index=6)
        assert {event.site for event in plan.events} == {"batch"}
        assert [event.index for event in plan.events] == list(range(6))

    def test_round_trip_and_unknown_fields(self):
        plan = crash_plan("batch", times=3)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        with pytest.raises(ConfigError, match="unknown fault plan"):
            FaultPlan.from_dict({"events": [], "surprise": 1})
        with pytest.raises(ConfigError, match="unknown fault event"):
            FaultPlan.from_dict(
                {"events": [{"site": "batch", "index": 0, "kind": "crash",
                             "extra": True}]}
            )

    def test_coerce_spellings(self, tmp_path):
        plan = crash_plan("batch")
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.coerce(str(path)) == plan
        with pytest.raises(ConfigError, match="cannot read fault plan"):
            FaultPlan.coerce(str(tmp_path / "missing.json"))
        with pytest.raises(ConfigError):
            FaultPlan.coerce(42)

    def test_environment_activation_and_precedence(self):
        plan = crash_plan("batch", index=1)
        assert environment_plan({}) is None
        assert environment_plan({ENV_VAR: plan.to_json()}) == plan
        config_plan = crash_plan("batch")
        assert resolve_plan(config_plan, {ENV_VAR: plan.to_json()}) == config_plan
        assert resolve_plan(None, {ENV_VAR: plan.to_json()}) == plan

    def test_config_coerces_and_env_reaches_policy(self, monkeypatch):
        plan = crash_plan("batch", index=1)
        config = CSPMConfig(fault_plan=plan.to_dict())
        assert config.fault_plan == plan
        monkeypatch.setenv(ENV_VAR, crash_plan("batch").to_json())
        assert RuntimePolicy.from_config(CSPMConfig()).fault_plan == crash_plan(
            "batch"
        )
        # The config's plan wins over the environment's.
        assert RuntimePolicy.from_config(config).fault_plan == plan

    def test_config_supplies_only_the_plan(self):
        # The deadline and the retry budget are fixed, not config knobs.
        policy = RuntimePolicy.from_config(CSPMConfig())
        assert policy.worker_timeout == DEFAULT_WORKER_TIMEOUT == 300.0
        assert policy.max_task_retries == 2
        assert policy == RuntimePolicy(fault_plan=resolve_plan(None))


# ----------------------------------------------------------------------
# Supervisor unit behaviour (tiny jobs, real pools)
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_no_faults_preserves_order(self):
        results, report = run_supervised(
            "batch", [1, 2, 3], _double, quiet_policy(), max_workers=2
        )
        assert results == [2, 4, 6]
        assert isinstance(report, SiteReport)
        assert (report.tasks, report.rounds) == (3, 1)
        assert report.retries == 0 and report.degraded_tasks == []

    @pytest.mark.parametrize("kind", ["crash", "pickle", "corrupt"])
    def test_retry_then_succeed(self, kind):
        policy = quiet_policy(fault_plan=crash_plan("batch", times=1, kind=kind))
        results, report = run_supervised(
            "batch", [7], _double, policy, max_workers=1, expect_type=int
        )
        assert results == [14]
        assert report.retries == 1
        assert report.degraded_tasks == []
        assert any("injected " + kind in line for line in report.failures)

    def test_hang_times_out_then_succeeds(self):
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=1, kind="hang"),
            worker_timeout=SHORT_TIMEOUT,
        )
        results, report = run_supervised(
            "batch", [7], _double, policy, max_workers=1
        )
        assert results == [14]
        assert report.retries == 1
        assert any("timed out" in line for line in report.failures)

    def test_exhausted_task_degrades_in_process(self):
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=10), max_task_retries=1
        )
        results, report = run_supervised(
            "batch", [7], _double, policy, max_workers=1
        )
        assert results == [14]
        assert report.degraded_tasks == [0]
        assert report.retries == 1  # one re-submission, then exhausted

    def test_crash_only_disturbs_its_round(self):
        # Index 1 crashes twice then succeeds; every result is exact
        # and in order regardless of which other tasks shared the
        # broken pools.
        policy = quiet_policy(fault_plan=crash_plan("batch", index=1, times=2))
        results, report = run_supervised(
            "batch", [1, 2, 3, 4], _double, policy, max_workers=2
        )
        assert results == [2, 4, 6, 8]
        assert report.retries >= 2
        assert report.rounds >= 3

    def test_backoff_is_deterministic_and_bounded(self):
        values = [
            backoff_seconds("batch", index, attempt)
            for index in range(4)
            for attempt in range(6)
        ]
        assert values == [
            backoff_seconds("batch", index, attempt)
            for index in range(4)
            for attempt in range(6)
        ]
        assert all(0.0 < value <= 2.0 for value in values)

    def test_sleep_clock_is_injected(self):
        delays = []
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=1), sleep=delays.append
        )
        run_supervised("batch", [7], _double, policy, max_workers=1)
        assert delays == [backoff_seconds("batch", 0, 1)]


# ----------------------------------------------------------------------
# Batch site: runs killed, per-run results identical
# ----------------------------------------------------------------------


def batch_graphs():
    graphs = [paper_running_example()]
    for seed in (1, 2):
        graph, _ = planted_astar_graph(
            40,
            90,
            [PlantedAStar("core", ("l1", "l2"), strength=0.9)],
            noise_values=("n1", "n2"),
            noise_rate=0.2,
            seed=seed,
        )
        graphs.append(graph)
    return graphs


def assert_batch_bit_exact(fault_config):
    from repro import fit_many

    graphs = batch_graphs()
    serial = fit_many(graphs, CSPMConfig(top_k=15))
    supervised = fit_many(
        graphs, fault_config, n_jobs=2, executor="process"
    )
    for left, right in zip(serial, supervised):
        assert left.result.astars == right.result.astars
        assert left.result.trace.to_dict() == right.result.trace.to_dict()
        assert (
            left.result.final_dl.total_bits == right.result.final_dl.total_bits
        )
    return supervised.report


class TestBatchSite:
    def test_killed_run_retries_bit_exact(self):
        report = assert_batch_bit_exact(
            CSPMConfig(top_k=15, fault_plan=crash_plan("batch", times=1))
        )
        assert report is not None and report.retries >= 1

    def test_exhausted_run_degrades_bit_exact(self):
        # The fixed policy's 2 retries are spent, then run 0 degrades.
        report = assert_batch_bit_exact(
            CSPMConfig(top_k=15, fault_plan=crash_plan("batch", times=10))
        )
        assert 0 in report.degraded_tasks

    def test_environment_plan_reaches_the_pool(self, monkeypatch):
        # REPRO_FAULT_PLAN is the flag-less activation for fit_many,
        # the one consumer of fault plans.
        monkeypatch.setenv(ENV_VAR, crash_plan("batch", times=1).to_json())
        report = assert_batch_bit_exact(CSPMConfig(top_k=15))
        assert report is not None and report.retries >= 1

    def test_mining_exception_is_isolated_not_retried(self):
        """A deterministic per-run exception becomes an error record in
        place — it must not burn pool retries or kill the batch."""
        from repro import fit_many

        graphs = batch_graphs()
        graphs[1] = AttributedGraph()  # empty graph: the pipeline raises
        batch = fit_many(graphs, CSPMConfig(), n_jobs=2, executor="process")
        assert len(batch) == len(graphs)
        assert batch[0].ok and batch[2].ok
        failed = batch[1]
        assert not failed.ok and failed.result is None
        assert failed.error and failed.traceback
        assert batch.errors == [failed]
        assert "FAILED" in batch.summary()
        # The supervisor saw clean pool executions: no retries burned.
        assert batch.report is not None and batch.report.retries == 0
        document = failed.to_dict()
        assert document["error"] == failed.error
