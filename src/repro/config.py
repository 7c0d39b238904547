"""Typed run configuration: the single source of truth for CSPM knobs.

Every consumer of the miner — the :class:`repro.CSPM` facade, the
composable :class:`repro.pipeline.MiningPipeline`, the batch runner
:func:`repro.batch.fit_many`, the CLI, the benchmarks — is driven by a
:class:`CSPMConfig`.  The config is

* **frozen**: a run's parameters cannot drift mid-pipeline;
* **validated at construction**: an invalid knob fails immediately with
  :class:`~repro.errors.ConfigError` (a :class:`~repro.errors.MiningError`),
  not deep inside the search;
* **round-trippable**: ``CSPMConfig.from_dict(cfg.to_dict()) == cfg``,
  so configs can travel through JSON job descriptions unchanged.

CSPM remains parameter-free in the paper's sense: the knobs select
*variants* (search strategy, coreset encoder, ablations) and output
post-filters, not data-dependent thresholds.  How a run executes is
not a knob either: the database builder picks the mask representation
from the rows it builds (:mod:`repro.core.masks`) and every worker pool runs the supervisor's
one fixed policy (:mod:`repro.runtime.supervisor`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.runtime.faults import FaultPlan

METHODS: Tuple[str, ...] = ("partial", "basic")
ENCODERS: Tuple[str, ...] = ("singleton", "slim", "krimp")
UPDATE_SCOPES: Tuple[str, ...] = ("lazy", "related")
MASK_BACKENDS: Tuple[str, ...] = ("auto",)
CONSTRUCTIONS: Tuple[str, ...] = ("serial",)
SEARCHES: Tuple[str, ...] = ("serial",)


@dataclass(frozen=True)
class CSPMConfig:
    """The full parameterisation of one CSPM run.

    Attributes
    ----------
    method:
        ``"partial"`` (default, Algorithm 3-4) or ``"basic"``
        (Algorithm 1-2).
    coreset_encoder:
        ``"singleton"`` (default — CTc equals the standard code table,
        Section IV-C), ``"slim"`` or ``"krimp"`` for multi-value
        coresets mined on the vertex-attribute transactions
        (Section IV-F, step 1).
    include_model_cost:
        Whether candidate gains subtract the code-table cost of the new
        leafset (Section IV-E).  ``True`` by default; ablated in the
        benchmarks.
    max_iterations:
        Optional safety cap on the number of merges (``None`` = run to
        convergence, as the paper does).
    partial_update_scope:
        For ``method="partial"``: ``"lazy"`` (default; same merges as
        CSPM-Basic, with stored gains kept as sound upper bounds and
        revalidated only when a dirty pair reaches the queue head) or
        ``"related"`` (the paper's Algorithm 4 rdict heuristic,
        cheapest but may miss late candidates).
    top_k:
        Post-filter: keep only the ``top_k`` best-ranked a-stars in the
        result (``None`` = keep all).  Applied by the RankAndFilter
        pipeline stage after the search terminates — it never changes
        which merges happen.
    min_leafset:
        Post-filter: drop a-stars whose leafset is smaller than this
        (default 1 = keep all).  Applied with ``top_k``.
    mask_backend:
        ``"auto"`` is the only value: the database builder picks the
        position-mask layout from its rows (:mod:`repro.core.masks`).  The
        field stays so that job documents naming it keep loading, and
        it is never serialised.
    construction:
        How the inverted database is built.  ``"serial"`` — the
        in-process columnar batch builder — is the only value; the
        field stays so that job documents naming it keep loading, and
        it is never serialised.
    search:
        How the greedy search runs.  ``"serial"`` — the single-process
        queue loop — is the only value; the field stays so that job
        documents naming it keep loading, and it is never serialised.
    fault_plan:
        Deterministic fault-injection schedule for tests and chaos
        runs of :func:`repro.batch.fit_many`'s process pool
        (:class:`repro.runtime.faults.FaultPlan`; also accepts its
        mapping/JSON/path spellings, and the ``REPRO_FAULT_PLAN``
        environment variable supplies one when this is ``None``).
        Injected failures only ever occur inside worker processes, so
        the mined output is still bit-exact.  Serialised only when
        set.
    trace:
        Record nestable spans for every pipeline stage, construction
        phase, worker task and supervisor event (:mod:`repro.obs`),
        mergeable into one Chrome-trace timeline (``mine --trace``).
        Recording never perturbs the mined output — merge sequences
        and DL floats are ``==`` an untraced run.  Serialised only
        when enabled.
    metrics:
        Record named counters/gauges/histograms (the ``RunTrace``
        perf counters, mask memory, supervisor retry/degrade/timeout
        telemetry, per-run batch durations) into a
        :class:`repro.obs.MetricsRegistry` (``mine --metrics``).
        Serialised only when enabled.
    progress:
        Emit throttled heartbeat lines for long phases on stderr
        (``mine --progress``).  Serialised only when enabled.
    """

    method: str = "partial"
    coreset_encoder: str = "singleton"
    include_model_cost: bool = True
    max_iterations: Optional[int] = None
    partial_update_scope: str = "lazy"
    top_k: Optional[int] = None
    min_leafset: int = 1
    mask_backend: str = "auto"
    construction: str = "serial"
    search: str = "serial"
    fault_plan: Optional[FaultPlan] = None
    trace: bool = False
    metrics: bool = False
    progress: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.coreset_encoder not in ENCODERS:
            raise ConfigError(
                f"coreset_encoder must be one of {ENCODERS}, "
                f"got {self.coreset_encoder!r}"
            )
        if self.partial_update_scope not in UPDATE_SCOPES:
            raise ConfigError(
                f"partial_update_scope must be one of {UPDATE_SCOPES}, "
                f"got {self.partial_update_scope!r}"
            )
        if not isinstance(self.include_model_cost, bool):
            raise ConfigError(
                f"include_model_cost must be a bool, "
                f"got {self.include_model_cost!r}"
            )
        if self.max_iterations is not None and not (
            isinstance(self.max_iterations, int)
            and not isinstance(self.max_iterations, bool)
            and self.max_iterations >= 0
        ):
            raise ConfigError(
                f"max_iterations must be None or a non-negative int, "
                f"got {self.max_iterations!r}"
            )
        if self.top_k is not None and not (
            isinstance(self.top_k, int)
            and not isinstance(self.top_k, bool)
            and self.top_k >= 1
        ):
            raise ConfigError(
                f"top_k must be None or a positive int, got {self.top_k!r}"
            )
        if not (
            isinstance(self.min_leafset, int)
            and not isinstance(self.min_leafset, bool)
            and self.min_leafset >= 1
        ):
            raise ConfigError(
                f"min_leafset must be a positive int, got {self.min_leafset!r}"
            )
        if self.mask_backend not in MASK_BACKENDS:
            raise ConfigError(
                f"mask_backend must be one of {MASK_BACKENDS}, "
                f"got {self.mask_backend!r}"
            )
        if self.construction not in CONSTRUCTIONS:
            raise ConfigError(
                f"construction must be one of {CONSTRUCTIONS}, "
                f"got {self.construction!r}"
            )
        if self.search not in SEARCHES:
            raise ConfigError(
                f"search must be one of {SEARCHES}, got {self.search!r}"
            )
        if not isinstance(self.trace, bool):
            raise ConfigError(f"trace must be a bool, got {self.trace!r}")
        if not isinstance(self.metrics, bool):
            raise ConfigError(f"metrics must be a bool, got {self.metrics!r}")
        if not isinstance(self.progress, bool):
            raise ConfigError(
                f"progress must be a bool, got {self.progress!r}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            # Accept the mapping/JSON/path spellings at construction
            # so configs rebuilt from job documents stay one-step.
            object.__setattr__(
                self, "fault_plan", FaultPlan.coerce(self.fault_plan)
            )

    # ------------------------------------------------------------------
    # Derivation and serialisation
    # ------------------------------------------------------------------

    @classmethod
    def _reject_unknown(cls, names: Iterable[str]) -> None:
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")

    def replace(self, **changes: Any) -> "CSPMConfig":
        """A new config with ``changes`` applied (re-validated)."""
        self._reject_unknown(changes)
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping of the config.

        The execution-engine knobs (``mask_backend``, ``construction``,
        ``search``, ``fault_plan``, and the
        observability knobs ``trace``/``metrics``/``progress``) are
        included only when non-default: they never change the mined
        output, and omitting the defaults keeps existing schema-v1
        result documents (including the CLI golden file)
        byte-identical.  :meth:`from_dict` round-trips either
        way (a serialised ``fault_plan`` comes back as its mapping and
        is re-coerced to a :class:`FaultPlan` at construction).
        """
        document = dataclasses.asdict(self)
        if document["mask_backend"] == "auto":
            del document["mask_backend"]
        if document["construction"] == "serial":
            del document["construction"]
        if document["search"] == "serial":
            del document["search"]
        if document["trace"] is False:
            del document["trace"]
        if document["metrics"] is False:
            del document["metrics"]
        if document["progress"] is False:
            del document["progress"]
        if document["fault_plan"] is None:
            del document["fault_plan"]
        else:
            # asdict recursed into the plan dataclass; replace with the
            # canonical FaultPlan.to_dict shape (provenance seed omitted
            # when unset) so every serialised plan spells the same way.
            document["fault_plan"] = self.fault_plan.to_dict()
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CSPMConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected so that typos in job descriptions
        fail loudly instead of silently running with defaults.
        """
        cls._reject_unknown(document)
        return cls(**dict(document))

    def describe(self) -> str:
        """The non-default fields as ``key=value`` text (or ``defaults``)."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value!r}")
        return ", ".join(parts) if parts else "defaults"
