"""Multi-index bookkeeping for the exterior algebra over R^8.

Basis k-forms and k-multivectors are keyed by strictly increasing tuples
drawn from {0, ..., 7}.  Each tuple is also an 8-bit mask (bit ``i`` set
when ``i`` is in the tuple); :data:`MASK` and :data:`INDEX` map between the
two.  Every permutation sign of the package is one lookup in the 64 KB
table :data:`PARITY`::

    PARITY[a << 8 | b] = #{(i in a, j in b): j < i} mod 2

which is the parity of moving the entries of ``b`` past those of ``a``:

* wedge of disjoint ``a``, ``b``: ``PARITY[a << 8 | b]`` (``merge_sign``);
* contraction of ``q`` into ``f`` (``q`` a subset): ``PARITY[q << 8 | f ^ q]``
  (``contraction``);
* Hodge star: ``PARITY[m << 8 | 255 ^ m]`` (``star_sign``);
* sorting a sequence (``canonicalize``): index ``i`` after the indices of
  the mask ``seen`` adds ``PARITY[seen << 8 | 1 << i]``.

``merge_sign`` and ``contraction`` have no caller in this package (the
kernels read the table); ``bench/spans.py`` counts calls through them until
its counters move to the tensor operations (ROADMAP item 1).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

DIM = 8

MultiIndex = tuple[int, ...]

FULL: MultiIndex = tuple(range(DIM))


def _indices() -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = [()]
    for m in range(1, 1 << DIM):
        top = m.bit_length() - 1
        out.append(out[m ^ 1 << top] + (top,))
    return tuple(out)


#: ``INDEX[m]``: the sorted tuple of the bits set in the mask ``m``.
INDEX: tuple[MultiIndex, ...] = _indices()

#: ``MASK[idx]``: the mask of a sorted tuple, the inverse of :data:`INDEX`.
MASK: dict[MultiIndex, int] = {idx: m for m, idx in enumerate(INDEX)}


def _parity_table() -> bytes:
    """``PARITY`` as 256 rows of 256 bytes, row ``a`` holding ``b = 0..255``.

    A row is built as one big int, byte ``b`` most significant first.
    Adding the element ``t`` to ``a`` flips the parity for every ``b`` with
    an odd number of entries below ``t``, so ``row[a]`` is the row of ``a``
    without its top bit ``t``, XOR the row ``low[t]`` of those flips; that
    row repeats with period ``2**t`` in ``b``.
    """
    size = 1 << DIM
    low = [
        int.from_bytes(bytes(b.bit_count() & 1 for b in range(1 << t)) * (size >> t), "big")
        for t in range(DIM)
    ]
    rows = [0]
    for a in range(1, size):
        top = a.bit_length() - 1
        rows.append(rows[a ^ (1 << top)] ^ low[top])
    return b"".join(row.to_bytes(size, "big") for row in rows)


#: ``PARITY[a << 8 | b]``: the parity of #{(i in a, j in b): j < i}, 0 or 1.
PARITY: bytes = _parity_table()


def canonicalize(indices: Iterable[int]) -> tuple[MultiIndex, int]:
    """Sort an index sequence into a strictly increasing tuple.

    Returns ``(sorted_tuple, sign)`` where ``sign`` is the parity of the
    sorting permutation, or ``0`` when an index repeats (the alternating
    tensor with a repeated index vanishes).  One walk: index ``i`` passes
    the earlier entries above it, ``PARITY[seen << 8 | 1 << i]`` of them mod 2.
    """
    idx = tuple(indices)
    seen = parity = repeated = 0
    for i in idx:
        if type(i) is not int or not 0 <= i < DIM:
            raise ValueError(f"index {i!r} outside 0..{DIM - 1}")
        bit = 1 << i
        repeated |= seen & bit
        parity ^= PARITY[seen << 8 | bit]
        seen |= bit
    if repeated:
        return tuple(sorted(idx)), 0
    return INDEX[seen], 1 - 2 * parity


def merge_sign(a: MultiIndex, b: MultiIndex) -> tuple[MultiIndex, int]:
    """Merge two sorted disjoint multi-indices.

    Returns the sorted union and the parity of reordering the concatenation
    ``a + b`` into it; sign 0 when the indices overlap.
    """
    ma, mb = MASK[a], MASK[b]
    if ma & mb:
        return tuple(sorted(a + b)), 0
    return INDEX[ma | mb], 1 - 2 * PARITY[ma << 8 | mb]


def complement(idx: MultiIndex) -> MultiIndex:
    return INDEX[255 ^ MASK[idx]]


def star_sign(idx: MultiIndex) -> int:
    """Parity of the permutation (idx, complement(idx)) of (0, ..., 7)."""
    m = MASK[idx]
    return 1 - 2 * PARITY[m << 8 | 255 ^ m]


def contraction(key_mv: MultiIndex, key_form: MultiIndex) -> tuple[MultiIndex, int] | None:
    """Contract the basis multivector ``key_mv`` into the basis form ``key_form``.

    Returns ``(remaining_index, sign)`` or ``None`` when ``key_mv`` is not a
    subset of ``key_form``.  The sign matches iterated single-vector
    contraction applied smallest factor first (see ``tensor.contract``):
    removing ``j`` passes the entries of the remainder below ``j``.
    """
    mq, mf = MASK[key_mv], MASK[key_form]
    if mq & mf != mq:
        return None
    rest = mf ^ mq
    return INDEX[rest], 1 - 2 * PARITY[mq << 8 | rest]


_BASES: tuple[tuple[MultiIndex, ...], ...] = tuple(tuple(combinations(range(DIM), k)) for k in range(DIM + 1))

_POSITIONS: tuple[dict[MultiIndex, int], ...] = tuple({idx: n for n, idx in enumerate(b)} for b in _BASES)


def basis(k: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing k-tuples in lexicographic order; none outside 0..8."""
    if type(k) is not int:  # True would read as degree 1
        raise ValueError(f"a basis degree must be an int, not {k!r}")
    return _BASES[k] if 0 <= k <= DIM else ()


def basis_position(idx: MultiIndex) -> int:
    """Position of a sorted multi-index within ``basis(len(idx))``."""
    return _POSITIONS[len(idx)][idx]
