"""Reference kernels for the differential tests of ``cayley8.linalg``.

Dense fraction-by-fraction product and Gauss-Jordan elimination on lists of
rows, as ``ExactMatrix`` computed them before it learned to skip zero
entries.  ``nullspace`` and ``inverse`` follow the same steps as the
methods of ``ExactMatrix`` but sit on this ``rref``.  ``gauss_jordan`` is
the integer elimination ``ExactMatrix.rref`` ran before it was split into a
forward pass and a back-substitution: one loop that clears above and below
every pivot.  ``forward_pass`` is the forward pass ``ExactMatrix._forward``
ran before rows waited in buckets by leading column: every column scans
every remaining row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from cayley8.linalg import ExactMatrix, IntRow, SingularMatrixError, _cleared, _reduced


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [v / pivot for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    reduced, pivots = rref(rows)
    ncols = len(rows[0])
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


def inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise SingularMatrixError("only square matrices invert")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def gauss_jordan(matrix: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """``ExactMatrix.rref`` as one fraction-free Gauss-Jordan loop, as it ran before.

    It took the first row with an entry in each column as the pivot and
    cleared above and below it in one pass; the forward pass and
    back-substitution of ``ExactMatrix`` must give the same integer fields.
    """
    m = [dict(row) for row in matrix._nums]
    nrows = matrix.nrows
    pivots: list[int] = []
    r = 0
    for c in range(matrix.ncols):
        pivot_row = next((i for i in range(r, nrows) if c in m[i]), None)
        if pivot_row is None:
            continue
        pivot = m[pivot_row]
        a = pivot[c]
        if a < 0:  # pivots are positive, so a pivot of 1 never scales a target row
            a = -a
            pivot = {j: -v for j, v in pivot.items()}
        m[pivot_row] = m[r]
        m[r] = pivot
        for i in range(nrows):
            target = m[i]
            b = target.get(c)
            if b is None or i == r:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            row = {j: ag * v for j, v in target.items()} if ag != 1 else target
            for j, v in pivot.items():
                w = row.get(j, 0) - bg * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            content = gcd(*row.values())
            m[i] = {j: v // content for j, v in row.items()} if content > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # echelon row k is over its pivot; the rows past the rank are empty
    den = lcm(*(m[k][c] for k, c in enumerate(pivots)))
    for k, c in enumerate(pivots):
        scale = den // m[k][c]
        if scale != 1:
            m[k] = {j: v * scale for j, v in m[k].items()}
    return _reduced(m, den, matrix.ncols), pivots


def forward_pass(matrix: ExactMatrix) -> tuple[list[IntRow], list[int]]:
    """``ExactMatrix._forward`` as it ran before, one scan of the remaining rows per column.

    Column by column, the sparsest row not yet a pivot that has an entry
    there (the first of them on a tie) becomes the pivot row, made
    positive, and every other such row is cleared (and dropped if that
    leaves it zero); a pivot row is never touched again.
    """
    rest = [row for row in matrix._nums if row]
    echelon: list[IntRow] = []
    pivots: list[int] = []
    for c in range(matrix.ncols):
        chosen = min((row for row in rest if c in row), key=len, default=None)
        if chosen is None:
            continue
        pivot, a = chosen, chosen[c]
        if a < 0:  # pivots are positive, so a pivot of 1 never scales a target row
            pivot, a = {j: -v for j, v in chosen.items()}, -a
        kept = []
        for row in rest:
            b = row.get(c)
            if b is None:
                kept.append(row)
            elif row is not chosen:
                row = _cleared(row, b, pivot, a)
                if row:
                    kept.append(row)
        rest = kept
        echelon.append(pivot)
        pivots.append(c)
        if not rest:
            break
    return echelon, pivots
