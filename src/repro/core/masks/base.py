"""The position-mask backend protocol.

The inverted database (paper, Section IV-B) stores every row's position
set as a bitmask over a fixed vertex order, and all of Section V's
machinery — gain terms (``xye`` co-occurrence counts), overlap-driven
candidate generation, the lazy refresh's touched-row tests — reduces to
AND/OR/popcount on those masks.  The *representation* of a mask is a
backend choice:

``bigint``
    One Python integer spanning the whole vertex order (the seed's
    representation).  Simplest and fastest on small graphs, but every
    row pays ``O(|V|)`` memory and AND cost regardless of how few
    positions it holds — the scale ceiling named on the ROADMAP.
``chunked``
    The vertex order is sharded into fixed-width blocks; a mask stores
    only its non-empty chunks in a dict.  Sparse rows touch only their
    chunks, so memory and AND cost follow ``O(set bits)`` instead of
    ``O(|V|)``.

A backend is a *stateless* strategy object: masks are plain values
(``int`` / ``dict``) interpreted through the backend that made them,
and two databases built with the same backend class can share one
instance.  Mutation discipline: :meth:`MaskBackend.set_bit` (the
construction-time bit setter) may mutate its argument in place and must
be called only on masks the caller exclusively owns; every other
operation is pure, which is what lets ``InvertedDatabase.copy`` share
mask values between copies.

All backends are **bit-exact** interchangeable: every mining-visible
quantity (popcounts, intersection counts, overlap booleans, decoded bit
sets) is an exact integer/boolean, so merge sequences, snapshots and DL
floats are identical across backends — the equivalence suite in
``tests/test_mask_backends.py`` asserts it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence

import numpy as np

Mask = Any

# CPython's int layout: ~28-byte header plus one 4-byte digit per 30
# bits of payload.  This is the per-mask cost a whole-graph bigint
# bitmap pays *regardless of sparsity* — the reference the perf suite's
# mask-memory reduction ratios are measured against.
_INT_HEADER_BYTES = 28
_BITS_PER_DIGIT = 30
_DIGIT_BYTES = 4


def bigint_mask_bytes(num_bits: int) -> int:
    """Estimated bytes of a whole-graph bigint mask over ``num_bits``."""
    digits = max(1, -(-num_bits // _BITS_PER_DIGIT))
    return _INT_HEADER_BYTES + digits * _DIGIT_BYTES


def int_value_bytes(value: int) -> int:
    """Estimated bytes of a Python int holding ``value`` (>= 0)."""
    return bigint_mask_bytes(max(1, value.bit_length())) if value else _INT_HEADER_BYTES


def int_array_bytes(bit_lengths: np.ndarray) -> int:
    """Summed :func:`int_value_bytes` of non-zero ints of these bit lengths."""
    digits = (bit_lengths + (_BITS_PER_DIGIT - 1)) // _BITS_PER_DIGIT
    return int(len(bit_lengths) * _INT_HEADER_BYTES + _DIGIT_BYTES * digits.sum())


def run_ends(starts: np.ndarray, count: int) -> np.ndarray:
    """Index of the last element of each run that begins at ``starts``."""
    return np.append(starts[1:], count) - 1


class MaskBackend:
    """Abstract strategy for one position-mask representation.

    Subclasses define the mask value type and implement every
    operation; the database and the search layers only ever talk to
    masks through these methods (plus truth-valued results), never
    through the raw representation.
    """

    #: Registry name (``"bigint"`` / ``"chunked"``).
    name: str = "abstract"

    #: Bits per chunk; 0 for a layout without chunks (one whole-graph
    #: int per mask).
    chunk_bits: int = 0

    @property
    def layout(self) -> str:
        """The name plus the chunk width, e.g. ``"chunked/4096"``."""
        return f"{self.name}/{self.chunk_bits}" if self.chunk_bits else self.name

    # -- construction --------------------------------------------------

    def empty(self) -> Mask:
        """A mask with no bits set."""
        raise NotImplementedError

    def make(self, bits: Iterable[int]) -> Mask:
        """A fresh mask with exactly ``bits`` set."""
        raise NotImplementedError

    def set_bit(self, mask: Mask, bit: int) -> Mask:
        """``mask`` with ``bit`` set — MAY mutate ``mask`` in place.

        Construction-time only: call it solely on masks the caller
        exclusively owns (the database's build loop does), and always
        use the returned value.
        """
        raise NotImplementedError

    def make_batch(self, bit_lists: Sequence[Sequence[int]]) -> List[Mask]:
        """One fresh mask per bit list, materialised in one bulk call.

        Every list must be sorted ascending; duplicates are allowed
        (setting a bit twice is idempotent).  This is the columnar
        builder's phase-2 primitive: the database collects each row's
        full bit list first and materialises all of a coreset's rows
        here, so backends can amortise per-mask setup — the bigint
        backend packs bytes and shifts once, the chunked backend
        groups consecutive bits by chunk index instead of re-hashing
        the chunk key per bit.  The default implementation falls back
        to :meth:`make` per list.
        """
        return [self.make(bits) for bits in bit_lists]

    def set_bits_bulk(self, mask: Mask, bits: Sequence[int]) -> Mask:
        """``mask`` with every bit of sorted ``bits`` set — MAY mutate.

        The bulk counterpart of :meth:`set_bit`, under the same
        construction-time ownership discipline: ``bits`` must be
        ascending (duplicates allowed), and callers must use the
        returned value.  The in-place complement of
        :meth:`make_batch` for builders that accumulate into an
        existing mask (custom pipeline stages, external index
        construction); the database's own builder materialises fresh
        masks through ``make_batch`` only.
        """
        for bit in bits:
            mask = self.set_bit(mask, bit)
        return mask

    # -- predicates ----------------------------------------------------

    def has_bit(self, mask: Mask, bit: int) -> bool:
        raise NotImplementedError

    def is_empty(self, mask: Mask) -> bool:
        raise NotImplementedError

    def union_overlaps(self, a: Mask, b: Mask) -> bool:
        """Whether the two masks share at least one set bit.

        The single-AND test behind the Section V observation: overlap
        generation, the gain prefilter and the lazy refresh's
        touched-row skips all reduce to this.
        """
        raise NotImplementedError

    def equals(self, a: Mask, b: Mask) -> bool:
        """Exact equality of the two masks' bit sets."""
        raise NotImplementedError

    def overlaps_many(self, mask: Mask, others: Sequence[Mask]) -> List[bool]:
        """``[union_overlaps(mask, other) for other in others]`` in bulk.

        The lazy refresh's batched skip test: one probe mask (a leaf
        union or a touched-row union) is tested against every candidate
        partner's union in a single call, so backends can amortise the
        per-AND dispatch.
        A pure read: neither ``mask`` nor any member of ``others`` may
        be mutated.  The default implementation is the scalar loop, so
        results are bit-exact across backends by construction.
        """
        overlaps = self.union_overlaps
        return [overlaps(mask, other) for other in others]

    # -- combination ---------------------------------------------------

    def or_(self, a: Mask, b: Mask) -> Mask:
        """``a | b`` as a value (never mutates either argument)."""
        raise NotImplementedError

    def and_(self, a: Mask, b: Mask) -> Mask:
        """``a & b`` as a value."""
        raise NotImplementedError

    def andnot(self, a: Mask, b: Mask) -> Mask:
        """``a & ~b`` as a value."""
        raise NotImplementedError

    # -- counting / decoding -------------------------------------------

    def popcount(self, mask: Mask) -> int:
        raise NotImplementedError

    def and_count(self, a: Mask, b: Mask) -> int:
        """``popcount(a & b)`` — the hot ``xye`` co-occurrence count."""
        raise NotImplementedError

    def iter_bits(self, mask: Mask) -> Iterator[int]:
        """Set bit indices in ascending order."""
        raise NotImplementedError

    def bit_span(self, mask: Mask) -> int:
        """Index of the highest set bit plus one (0 when empty).

        The width a whole-graph big-int holding this mask would
        actually occupy — what makes the bigint memory reference
        honest instead of an O(|V|)-per-mask overstatement.
        """
        raise NotImplementedError

    # -- accounting ----------------------------------------------------

    def mask_bytes(self, mask: Mask) -> int:
        """Estimated resident bytes of ``mask`` (payload + overhead).

        An analytic estimate (not ``sys.getsizeof`` walks) so the perf
        suite's recorded numbers are machine-independent.
        """
        raise NotImplementedError

    def rows_bytes(self, bits: np.ndarray, starts: np.ndarray) -> int:
        """Summed :meth:`mask_bytes` of the masks these rows would make.

        ``bits`` holds every row's ascending, duplicate-free bit list
        back to back and ``starts`` each row's first index in it (the
        columnar builder's sorted block).  Priced in numpy, before any
        mask exists, so the builder can compare layouts and
        materialise only the one it picks.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def iter_int_bits(value: int, offset: int = 0) -> Iterator[int]:
    """Ascending set-bit indices of a non-negative int, plus ``offset``."""
    while value:
        low = value & -value
        yield offset + low.bit_length() - 1
        value ^= low
