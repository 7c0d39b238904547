"""Pluggable position-mask backends for the inverted database.

See :mod:`repro.core.masks.base` for the backend protocol and the
bit-exactness contract.  Two backends ship:

========  ==========================================  =================
name      representation                              best for
========  ==========================================  =================
bigint    one whole-graph Python int per mask         small graphs
chunked   dict of non-empty fixed-width int chunks    large graphs
========  ==========================================  =================

The layout is picked from the rows the database is about to hold, with
no configuration: the columnar builder prices every candidate in
:data:`LAYOUTS` on its first block of rows and :func:`resolve_backend`
keeps the widest one whose bytes stay within :data:`LAYOUT_SLACK` of
the cheapest.  On the benchmark graphs that is bigint for the small
batch graphs, 256-bit chunks on sparse communities and 4096-bit chunks
on the dense social graph (MB of the first block's rows):

============================  =====  =====  =====  ======  ======
graph                         256    1024   4096   bigint  picked
============================  =====  =====  =====  ======  ======
dense-social (81,640 v.)      2.40   1.38   1.26   2.43    4096
sparse-communities (30,000)   9.34   12.63  25.86  136.50  256
dblp-trend batch graph        0.84   0.98   1.25   0.90    bigint
============================  =====  =====  =====  ======  ======

Library callers that want a particular representation pass a backend
object straight to
:meth:`repro.core.inverted_db.InvertedDatabase.from_graph`.
"""

from __future__ import annotations

import numpy as np

from repro.core.masks.base import MaskBackend, bigint_mask_bytes
from repro.core.masks.bigint import BigintMaskBackend
from repro.core.masks.chunked import ChunkedMaskBackend

#: The layouts the builder prices, from the narrowest chunks to the
#: widest; bigint, one chunk spanning the whole vertex order, is the
#: widest of all.
LAYOUTS = (
    ChunkedMaskBackend(256),
    ChunkedMaskBackend(1024),
    ChunkedMaskBackend(4096),
    BigintMaskBackend(),
)

#: How many times the cheapest layout's bytes a wider layout may cost
#: and still be picked.  A wider chunk means fewer dict probes per AND,
#: so it buys speed with memory: on the dense social graph 4096-bit
#: chunks mined 35% faster than 256-bit ones, and on sparse communities
#: 1024-bit chunks (1.35x the bytes of 256) bought nothing.
LAYOUT_SLACK = 1.25


def resolve_backend(bits: np.ndarray, starts: np.ndarray) -> MaskBackend:
    """The widest layout of :data:`LAYOUTS` priced within the slack.

    ``bits`` and ``starts`` are rows as
    :meth:`~repro.core.masks.base.MaskBackend.rows_bytes` takes them.
    """
    prices = [layout.rows_bytes(bits, starts) for layout in LAYOUTS]
    limit = min(prices) * LAYOUT_SLACK
    return next(
        layout
        for layout, price in zip(reversed(LAYOUTS), reversed(prices))
        if price <= limit
    )


__all__ = [
    "LAYOUTS",
    "LAYOUT_SLACK",
    "MaskBackend",
    "BigintMaskBackend",
    "ChunkedMaskBackend",
    "bigint_mask_bytes",
    "resolve_backend",
]
