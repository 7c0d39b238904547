"""Pluggable position-mask backends for the inverted database.

See :mod:`repro.core.masks.base` for the backend protocol and the
bit-exactness contract.  Two backends ship:

========  ==========================================  =================
name      representation                              best for
========  ==========================================  =================
bigint    one whole-graph Python int per mask         small graphs
chunked   dict of non-empty fixed-width int chunks    paper-scale sparse
========  ==========================================  =================

The backend is picked from the graph's size alone, with no
configuration: :func:`resolve_backend` returns ``bigint`` below
:data:`AUTO_CHUNKED_MIN_BITS` vertices and ``chunked`` at or above it.
Library callers that want a particular representation pass a backend
object straight to :meth:`repro.core.inverted_db.InvertedDatabase.from_graph`.
"""

from __future__ import annotations

from repro.core.masks.base import MaskBackend, bigint_mask_bytes
from repro.core.masks.bigint import BigintMaskBackend
from repro.core.masks.chunked import ChunkedMaskBackend

#: The vertex count from which masks are chunked.  Below it a
#: whole-graph int is a few machine words and bigint wins: the batch
#: graphs (280-2,723 vertices) mined faster on bigint.  At 30,000
#: vertices chunked masks used about a third less peak memory at no
#: cost in time, so the switch sits between the two.
AUTO_CHUNKED_MIN_BITS = 16384


def resolve_backend(num_bits: int) -> MaskBackend:
    """The mask backend for a graph of ``num_bits`` vertices."""
    if num_bits >= AUTO_CHUNKED_MIN_BITS:
        return ChunkedMaskBackend()
    return BigintMaskBackend()


__all__ = [
    "AUTO_CHUNKED_MIN_BITS",
    "MaskBackend",
    "BigintMaskBackend",
    "ChunkedMaskBackend",
    "bigint_mask_bytes",
    "resolve_backend",
]
