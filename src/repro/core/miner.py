"""The CSPM facade: a parameter-free miner of attribute-stars.

``CSPM().fit(graph)`` runs the default
:class:`~repro.pipeline.MiningPipeline` of Algorithm 1/3:

1. encode coresets (singleton values by default; optionally multi-value
   coresets discovered by SLIM or Krimp on the vertex-attribute
   transactions — Section IV-F, step 1);
2. build the inverted database (step 2);
3. greedily merge leafsets by MDL gain (steps 3-4), with either the
   basic or the partial-update search — the latter defaulting to the
   lazy bound-driven refresh scope (``update_scope="lazy"``), which
   mines the exact same model as CSPM-Basic while revalidating stored
   gains only when a dirty candidate reaches the queue head;
4. return the surviving a-stars ranked by ascending code length.

The facade is configuration-driven: ``CSPM(config=CSPMConfig(...))``
is the canonical spelling, while the keyword form
``CSPM(method="basic", coreset_encoder="slim")`` forwards its keywords
to :class:`~repro.config.CSPMConfig` for you.  Both run the exact same
pipeline; callers that need custom stages use
:class:`~repro.pipeline.MiningPipeline` directly, and callers with many
graphs use :func:`repro.batch.fit_many`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import CSPMConfig
from repro.core.result import CSPMResult
from repro.errors import ConfigError
from repro.graphs.attributed_graph import AttributedGraph

__all__ = ["CSPM", "CSPMResult"]

_UNSET: Any = object()


class CSPM:
    """Compressing Star Pattern Miner (paper, Algorithm 1 / 3).

    Parameters
    ----------
    method:
        Positional shorthand for the ``method`` field.
    config:
        A :class:`~repro.config.CSPMConfig`.  When omitted, one is
        built from the keyword overrides (all of which default to the
        paper's settings).
    **overrides:
        :class:`~repro.config.CSPMConfig` fields; alongside ``config``
        they replace the corresponding fields.  An unknown name raises
        :class:`~repro.errors.ConfigError`.

    Every config field is also readable as an attribute of the miner
    (``CSPM(method="basic").method``); the config itself is frozen.
    """

    def __init__(
        self,
        method: str = _UNSET,
        config: Optional[CSPMConfig] = None,
        **overrides: Any,
    ) -> None:
        if method is not _UNSET:
            overrides["method"] = method
        if config is None:
            config = CSPMConfig()
        elif not isinstance(config, CSPMConfig):
            raise ConfigError(
                f"config must be a CSPMConfig, got {type(config).__name__}"
            )
        if overrides:
            config = config.replace(**overrides)
        self.config = config

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not found normally: read through to
        # the config's fields.  ``config`` itself is excluded so a
        # half-built instance cannot recurse.
        if name != "config" and name in CSPMConfig.__dataclass_fields__:
            return getattr(self.config, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __repr__(self) -> str:
        return f"CSPM({self.config.describe()})"

    # ------------------------------------------------------------------

    def fit(self, graph: AttributedGraph) -> CSPMResult:
        """Mine a-stars from ``graph`` and return the ranked result."""
        from repro.pipeline import MiningPipeline

        return MiningPipeline.default(self.config).run(graph)
