"""End-to-end benchmark of the user's ``mine`` path, with per-layer timers.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-communities --seed 0 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload in ``workloads.json`` in turn.
The benchmark generates the workload's graphs from ``--seed``, writes
them as graph JSON with ``repro.graphs.io.save_json`` and then starts
one fresh interpreter (``child.py``) per sample, one at a time:

* mining samples, until ``--seconds`` have passed: set-up (import
  ``repro`` and ``load_json``) followed by the timed path from the graphs
  in memory to ``CSPMResult.to_json``;
* with ``--trace 0``, set-up-only samples until there are
  ``MIN_SETUP_SAMPLES`` set-up readings, so ``setup_s`` is a median of
  several;
* with ``--trace 1``, instead, one more mining sample with each layer's entry
  point wrapped in a timer, which also runs the from-scratch checks
  (recomputed description length, ``InvertedDatabase.validate``).

Every mining sample's model digest (merge sequence plus final DL float)
must agree with every other sample's and, for seeds recorded in
``reference_digests.json``, with the recorded digest.  A sample that
raises, times out or fails a check counts as failed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything
above it is the human-readable report, every metric with its unit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Set-up samples per run (mining samples count towards it).
MIN_SETUP_SAMPLES = 5
#: No sample may outlive this, so a run ends within its time limit.
RUN_DEADLINE_S = 170.0
#: Slack kept before the deadline for checks and clean-up.
DEADLINE_MARGIN_S = 10.0

class SampleFailed(Exception):
    """A child process raised, timed out or printed no report."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_spec():
    return json.loads((HERE / "workloads.json").read_text())


def metric_units(section):
    """Metric names and units of ``section``, as ``BENCHMARK.json`` has them."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in document[section]}


def reference_digest(workload, seed):
    path = HERE / "reference_digests.json"
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def generate(generator, seed):
    """The workload's graphs for ``seed``, as ``generator`` describes them.

    The parameters live in ``workloads.json`` rather than being taken
    from ``repro.perf.suite``'s families, so a change there cannot
    silently change a workload.
    """
    from repro.datasets import load_dataset
    from repro.datasets.synthetic import community_attributed_graph

    kind = generator["kind"]
    if kind == "communities":
        count = generator["communities"]
        return [
            community_attributed_graph(
                community_sizes=[generator["community_size"]] * count,
                community_pools=[
                    [f"c{c}v{v}" for v in range(generator["pool_size"])]
                    for c in range(count)
                ],
                values_per_vertex=tuple(generator["values_per_vertex"]),
                intra_degree=generator["intra_degree"],
                inter_degree=generator["inter_degree"],
                seed=seed,
            )
        ]
    if kind == "dataset":
        return [
            load_dataset(generator["name"], scale=generator["scale"], seed=seed)
        ]
    if kind == "batch":
        names = generator["names"]
        return [
            load_dataset(
                names[index % len(names)],
                scale=generator["scale"],
                seed=seed * generator["seed_stride"] + index,
            )
            for index in range(generator["graphs"])
        ]
    raise ValueError(f"unknown generator kind {kind!r}")


def write_inputs(graphs, directory):
    """Save ``graphs`` as graph JSON; returns the paths and input shape."""
    from repro.graphs.io import save_json

    directory.mkdir(parents=True)
    paths = []
    for index, graph in enumerate(graphs):
        path = directory / f"graph{index}.json"
        save_json(graph, path)
        paths.append(str(path))
    shape = {
        "graphs": len(graphs),
        "vertices": sum(graph.num_vertices for graph in graphs),
        "edges": sum(graph.num_edges for graph in graphs),
        "input_mb": sum(os.path.getsize(path) for path in paths) / 1e6,
    }
    return paths, shape


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    # The workload pins its whole config; no fault plan from outside.
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def sample(mode, workload, paths, deadline):
    """Run one child process to completion and return its report."""
    spec = {
        "mode": mode,
        "config": load_spec()["pinned_config"],
        "graphs": paths,
        "fit_many": workload.get("fit_many"),
    }
    timeout = max(1.0, deadline - _monotonic())
    spec["spawn"] = _monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The session holds the child and any pool workers it started.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SampleFailed(f"{mode} sample timed out after {timeout:.0f} s")
    if process.returncode != 0 or not stdout.strip():
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise SampleFailed(
            f"{mode} sample exited {process.returncode}: {tail[0]}"
        )
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except json.JSONDecodeError as exc:
        raise SampleFailed(f"{mode} sample printed no report: {exc}") from exc


class Run:
    """The samples of one workload run and the findings about them."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.mines = []
        self.setups = []
        self.traced = None
        self.shape = {}
        self.digest = None
        self.reference = False

    def take(self, mode, workload, paths, deadline):
        self.attempted += 1
        try:
            report = sample(mode, workload, paths, deadline)
        except SampleFailed as exc:
            self.failed += 1
            self.failures.append(str(exc))
            return None
        self.setups.append(report["setup_s"])
        return report

    def check(self):
        """Fail every sample whose model or from-scratch checks disagree."""
        reports = self.mines + ([self.traced] if self.traced else [])
        expected = reference_digest(self.name, self.seed)
        self.reference = expected is not None
        if expected is None and reports:
            expected = reports[0]["digest"]
        self.digest = expected
        for report in reports:
            problems = list(report.get("problems", ()))
            if report["digest"] != expected:
                problems.append(
                    f"model digest {report['digest'][:16]} != {expected[:16]}"
                )
            serial = report.get("serial_digest")
            if serial is not None and serial != report["digest"]:
                problems.append("serial and process batches mined different models")
            if problems:
                self.failed += 1
                self.failures.extend(problems)

    def end_to_end(self):
        mines = self.mines
        return {
            "mine_s": statistics.median(r["mine_s"] for r in mines),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in mines),
            "compression_ratio": statistics.median(
                r["final_dl_bits"] / r["initial_dl_bits"] for r in mines
            ),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self):
        layers = dict(self.traced["layers"])
        untraced = statistics.median(r["mine_s"] for r in self.mines)
        layers["trace.overhead_frac"] = self.traced["mine_s"] / untraced - 1.0
        layers["io.load_s"] = self.traced["load_s"]
        layers["io.input_mb"] = self.shape["input_mb"]
        return layers


def run_workload(name, workload, seed, seconds, traced):
    run = Run(name, seed)
    directory = WORK / f"{name}-{seed}-{os.getpid()}"
    start = _monotonic()
    deadline = start + RUN_DEADLINE_S
    try:
        graphs = generate(workload["generator"], seed)
        paths, run.shape = write_inputs(graphs, directory)
        del graphs
        measure_start = _monotonic()
        while True:
            sample_start = _monotonic()
            report = run.take("mine", workload, paths, deadline)
            if report is not None:
                run.mines.append(report)
            now = _monotonic()
            # Leave room for one more sample of the same length (the
            # traced one) before the deadline, on a slow machine too.
            reserve = 2 * (now - sample_start) + DEADLINE_MARGIN_S
            if now - measure_start >= seconds or now + reserve > deadline:
                break
        if not traced:
            while len(run.setups) < MIN_SETUP_SAMPLES:
                if _monotonic() >= deadline:
                    break
                run.take("setup", workload, paths, deadline)
        else:
            run.traced = run.take("traced", workload, paths, deadline)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    run.check()
    return run


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def _format(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_run(run, units):
    shape = run.shape
    print(f"workload {run.name}  seed {run.seed}")
    if shape:
        backends = sorted({b for r in run.mines for b in r["backends"]})
        print(
            f"  input: graphs={shape['graphs']} vertices={shape['vertices']} "
            f"edges={shape['edges']} input_mb={shape['input_mb']:.3f} "
            f"mask_backend={','.join(backends) or '?'}"
        )
    print(
        f"  samples: {len(run.mines)} mining, {len(run.setups)} set-up, "
        f"{0 if run.traced is None else 1} traced; "
        f"{run.failed} of {run.attempted} failed"
    )
    if run.mines and run.setups:
        counts = {
            "mine_s": len(run.mines),
            "setup_s": len(run.setups),
            "peak_rss_mb": len(run.mines),
            "compression_ratio": len(run.mines),
        }
        print("  end-to-end (medians, tracing off):")
        values = run.end_to_end()
        for metric, unit in units["end_to_end"].items():
            note = f"  (n={counts[metric]})" if metric in counts else ""
            print(f"    {metric:<26} {_format(values[metric]):>14} {unit}{note}")
    if run.traced is not None and run.mines:
        layers = run.per_layer()
        print("  per-layer (one traced sample):")
        for metric, unit in units["per_layer"].items():
            print(f"    {metric:<26} {_format(layers[metric]):>14} {unit}")
    verdict = "PASS" if not run.failures else "FAIL"
    where = "recorded reference" if run.reference else "no reference for seed"
    print(f"  correctness: {verdict}; digest {run.digest}; {where}")
    for failure in run.failures:
        print(f"    - {failure}")


def result_line(runs, traced, units):
    """The machine-readable last line; one workload's names are bare."""
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.name}/"
        if not run.mines or (traced and run.traced is None):
            continue
        values = run.per_layer() if traced else run.end_to_end()
        section = "per_layer" if traced else "end_to_end"
        for metric, unit in units[section].items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    return {
        "correct": all(not run.failures for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = load_spec()["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads]
    if unknown:
        print(
            f"error: unknown workload {unknown[0]!r}; have {list(workloads)}",
            file=sys.stderr,
        )
        return 2

    units = {
        section: metric_units(section) for section in ("end_to_end", "per_layer")
    }
    runs = []
    for name in names:
        run = run_workload(
            name, workloads[name], args.seed, args.seconds, args.trace == 1
        )
        print_run(run, units)
        runs.append(run)
    if not all(run.mines for run in runs):
        print("error: a workload produced no mining sample", file=sys.stderr)
        return 1
    print(json.dumps(result_line(runs, args.trace == 1, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
