"""Reference permutation signs for the differential tests of ``cayley8.multiindex``.

These are the index loops that computed every sign before the 64 KB
``PARITY`` table replaced them: ``merge_sign`` merges two sorted tuples and
counts the entries of ``a`` that each entry of ``b`` jumps over,
``contraction`` removes the entries of the multivector index from the form
index one at a time, smallest first, counting each one's slot, and
``canonicalize`` insertion-sorts an arbitrary sequence, flipping the sign
at every swap.
"""

from __future__ import annotations

from cayley8.multiindex import DIM, MultiIndex


def canonicalize(indices) -> tuple[MultiIndex, int]:
    idx = list(indices)
    for i in idx:
        if not isinstance(i, int) or not 0 <= i < DIM:
            raise ValueError(f"index {i!r} outside 0..{DIM - 1}")
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j] < idx[j - 1]:
            idx[j], idx[j - 1] = idx[j - 1], idx[j]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def merge_sign(a: MultiIndex, b: MultiIndex) -> tuple[MultiIndex, int]:
    out: list[int] = []
    inv = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return tuple(sorted(a + b)), 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the len(a) - i remaining entries of a
            inv += len(a) - i
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1) ** (inv % 2)


def complement(idx: MultiIndex) -> MultiIndex:
    present = set(idx)
    return tuple(i for i in range(DIM) if i not in present)


def star_sign(idx: MultiIndex) -> int:
    _, sign = merge_sign(idx, complement(idx))
    return sign


def contraction(key_mv: MultiIndex, key_form: MultiIndex) -> tuple[MultiIndex, int] | None:
    remaining = list(key_form)
    exponent = 0
    for removed, j in enumerate(key_mv):
        try:
            pos = key_form.index(j)
        except ValueError:
            return None
        # earlier removals all sit left of j, shifting its slot down
        exponent += pos - removed
        remaining.remove(j)
    return tuple(remaining), (-1) ** (exponent % 2)
