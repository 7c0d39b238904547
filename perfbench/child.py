"""One measured process of the end-to-end benchmark.

``run.py`` starts a fresh interpreter per sample, so set-up time and
peak memory are those of one user run::

    python3 perfbench/child.py '<spec JSON>'

The spec names the ``mode``, the parent's CLOCK_MONOTONIC reading just
before the spawn (``spawn``), the pinned ``config``, the graph files and,
for a batch workload, the ``fit_many`` arguments.  Modes:

``setup``
    Import ``repro`` and parse the graph files with ``load_json``; this
    is what ``repro mine`` pays before mining.
``mine``
    Set up, then the user's path, timed: ``MiningPipeline.default``
    (or ``fit_many``) on the in-memory graphs through ``to_json``.
``traced``
    The ``mine`` path with each layer's entry point wrapped in a timer.
    For a batch it then mines the same graphs again with the serial
    executor, so the per-graph layers run in this process and their
    timers see them.  The from-scratch checks follow, untimed.

The child prints one JSON object on stdout.
"""

import hashlib
import json
import resource
import sys
import time
from collections import defaultdict

#: Batch-layer metrics; a single-graph workload never enters the layer,
#: so it reports them as zero.
BATCH_METRICS = (
    "batch.s",
    "batch.run_s_sum",
    "batch.busy_frac",
    "batch.max_run_s",
    "batch.retries",
    "batch.degraded",
)


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
    # taken before the spawn is comparable with this process's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class LayerTimers:
    """Call counts and busy time per layer, from wrapped entry points."""

    def __init__(self) -> None:
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.build = defaultdict(float)

    def reset(self) -> None:
        self.__init__()

    def wrap(self, owner, attribute, layer, after=None):
        original = getattr(owner, attribute)
        timers = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            timers.seconds[layer] += time.perf_counter() - start
            timers.calls[layer] += 1
            if after is not None:
                after(*args)
            return result

        setattr(owner, attribute, timed)

    def record_build(self, stage, context) -> None:
        db = context.inverted_db
        self.build["rows"] += db.num_rows
        self.build["leafsets"] += db.num_leafsets
        self.build["mask_bytes"] += db.mask_memory_bytes()

    def install(self) -> None:
        from repro.core.gain import GainEngine
        from repro.core.inverted_db import InvertedDatabase
        from repro.pipeline import (
            BuildInvertedDB,
            EncodeCoresets,
            RankAndFilter,
            Search,
        )

        self.wrap(EncodeCoresets, "run", "encode")
        self.wrap(BuildInvertedDB, "run", "build", after=self.record_build)
        self.wrap(Search, "run", "search")
        self.wrap(RankAndFilter, "run", "rank")
        self.wrap(GainEngine, "gain", "gain")
        self.wrap(InvertedDatabase, "merge", "merge")


def _results(batch):
    """The per-graph results of a batch; a failed run fails the sample."""
    failed = [run for run in batch if not run.ok]
    if failed:
        raise RuntimeError(f"fit_many run {failed[0].index}: {failed[0].error}")
    return [run.result for run in batch]


def _mine(graphs, config, fit_many_args):
    """The timed user path.

    Returns the results, their serialised documents, the batch (or
    ``None``), the wall from graphs in memory to documents, and the
    serialising part of that wall.
    """
    from repro.batch import fit_many
    from repro.pipeline import MiningPipeline

    start = time.perf_counter()
    batch = None
    if fit_many_args is None:
        results = [MiningPipeline.default(config).run(graphs[0])]
    else:
        batch = fit_many(graphs, config, **fit_many_args)
        results = _results(batch)
    mined = time.perf_counter()
    documents = [result.to_json() for result in results]
    end = time.perf_counter()
    return results, documents, batch, end - start, end - mined


def model_summary(documents):
    """Digest, and summed initial and final DL bits, of serialised results.

    The digest is a sha256 over every result's merge sequence and final
    DL float, so any change to the mined model changes it.
    """
    models = []
    initial = final = 0.0
    for text in documents:
        trace = json.loads(text)["trace"]
        merges = [entry["merged_pair"] for entry in trace["iterations"]]
        models.append([merges, repr(trace["final_dl_bits"])])
        initial += trace["initial_dl_bits"]
        final += trace["final_dl_bits"]
    digest = hashlib.sha256(json.dumps(models).encode()).hexdigest()
    return digest, initial, final


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the batch
    # pool's workers, which the pool has joined by now.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _check_from_scratch(results, graphs):
    """Recomputed DL within 1e-9 relative, and a lossless database."""
    from repro.core.mdl import description_length
    from repro.errors import MiningError

    problems = []
    for index, (result, graph) in enumerate(zip(results, graphs)):
        db = result.inverted_db
        recomputed = description_length(
            db, result.standard_table, result.core_table
        ).total_bits
        reported = result.final_dl_bits
        if abs(recomputed - reported) > 1e-9 * abs(recomputed):
            problems.append(
                f"graph {index}: recomputed DL {recomputed!r} != "
                f"reported {reported!r}"
            )
        try:
            db.validate(graph)
        except MiningError as exc:
            problems.append(f"graph {index}: validate failed: {exc}")
    return problems


def _trace(timers, graphs, config, fit_many_args, mined):
    """Per-layer metrics and the from-scratch findings.

    ``mined`` is what :func:`_mine` returned for the traced run.  The
    layer pass is that run itself or, for a batch, a serial
    ``fit_many`` over the same graphs; time in the pass outside every
    layer is ``trace.unattributed_s``.
    """
    from repro.batch import fit_many

    results, documents, batch, pass_s, serialise_s = mined
    out = {}
    metrics = dict.fromkeys(BATCH_METRICS, 0)
    if batch is not None:
        batch_s = pass_s - serialise_s
        run_seconds = [run.seconds for run in batch]
        report = batch.report
        metrics.update({
            "batch.s": batch_s,
            "batch.run_s_sum": sum(run_seconds),
            "batch.busy_frac": sum(run_seconds)
            / (fit_many_args["n_jobs"] * batch_s),
            "batch.max_run_s": max(run_seconds),
            "batch.retries": report.retries if report else 0,
            "batch.degraded": len(report.degraded_tasks) if report else 0,
        })
        timers.reset()
        start = time.perf_counter()
        results = _results(fit_many(graphs, config, executor="serial"))
        serialise_start = time.perf_counter()
        documents = [result.to_json() for result in results]
        end = time.perf_counter()
        serialise_s = end - serialise_start
        pass_s = end - start
        out["serial_digest"] = model_summary(documents)[0]

    seconds, calls = timers.seconds, timers.calls
    traces = [result.trace for result in results]
    gain_calls = calls["gain"]
    merges = calls["merge"]
    skipped = sum(trace.refreshes_skipped for trace in traces)
    layer_sum = (
        seconds["encode"] + seconds["build"] + seconds["search"]
        + seconds["rank"] + serialise_s
    )
    metrics.update({
        "encode.s": seconds["encode"],
        "build.s": seconds["build"],
        "build.rows": int(timers.build["rows"]),
        "build.leafsets": int(timers.build["leafsets"]),
        "build.mask_mb": timers.build["mask_bytes"] / 1e6,
        "search.s": seconds["search"],
        "search.other_s": seconds["search"] - seconds["gain"] - seconds["merge"],
        "search.seed_gains": sum(t.initial_candidate_gains for t in traces),
        "queue.peak": max(trace.peak_queue_size for trace in traces),
        "lazy.refreshes_skipped": skipped,
        "lazy.dirty_revalidations": sum(t.dirty_revalidations for t in traces),
        "lazy.skip_frac": skipped / max(1, skipped + gain_calls),
        "search.useful_frac": merges / max(1, gain_calls),
        "gain.calls": gain_calls,
        "gain.s": seconds["gain"],
        "gain.us_per_call": 1e6 * seconds["gain"] / max(1, gain_calls),
        "merge.calls": merges,
        "merge.s": seconds["merge"],
        "rank.s": seconds["rank"],
        "rank.astars": sum(len(result.astars) for result in results),
        "serialise.s": serialise_s,
        "serialise.mb": sum(len(text) for text in documents) / 1e6,
        "trace.unattributed_s": pass_s - layer_sum,
    })
    out["layers"] = metrics
    out["problems"] = _check_from_scratch(results, graphs)
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    import repro
    from repro.graphs.io import load_json

    load_start = _monotonic()
    graphs = [load_json(path) for path in spec["graphs"]]
    setup_end = _monotonic()
    report = {
        "setup_s": setup_end - spec["spawn"],
        "load_s": setup_end - load_start,
    }
    if spec["mode"] == "setup":
        print(json.dumps(report))
        return 0

    config = repro.CSPMConfig(**spec["config"])
    fit_many_args = spec.get("fit_many")
    timers = None
    if spec["mode"] == "traced":
        timers = LayerTimers()
        timers.install()
    mined = _mine(graphs, config, fit_many_args)
    results, documents, _, mine_s, _ = mined
    report["mine_s"] = mine_s
    report["peak_rss_mb"] = _peak_rss_mb()
    # Everything below is outside the timed region.
    digest, initial, final = model_summary(documents)
    report.update(digest=digest, initial_dl_bits=initial, final_dl_bits=final)
    report["backends"] = sorted({
        result.inverted_db.mask_backend.name
        for result in results
        if result.inverted_db is not None
    })
    if timers is not None:
        report.update(_trace(timers, graphs, config, fit_many_args, mined))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
