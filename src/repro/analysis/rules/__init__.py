"""The shipped rule families.

Importing this package registers every rule with
:data:`repro.analysis.core.RULE_REGISTRY`:

========  ===========================================================
family    rules
========  ===========================================================
DET       determinism: DET001 unsorted accumulation/serialisation,
          DET002 hash()/id() ordering, DET003 unseeded entropy in core/
MSK       mask backends: MSK001 protocol surface/arity, MSK002 pure-op
          mutation
FRK       fork/pickle safety: FRK001 pool callables
CFG       config drift: CFG001 field/flag wiring, CFG002 to_dict
          omission defaults
RES       resilience: RES001 pool harvests without a timeout, RES002
          bare/BaseException handlers outside the supervisor
OBS       observability: OBS001 non-literal span/metric names, OBS002
          import time outside the repro.obs clock seam
========  ===========================================================

The contracts behind the families are written up in
``docs/INVARIANTS.md``; each rule's docstring is the per-rule detail.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    config_drift,
    determinism,
    fork_safety,
    mask_purity,
    observability,
    resilience,
)
