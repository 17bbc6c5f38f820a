"""Reference kernels for the differential tests of ``cayley8.linalg``.

Dense fraction-by-fraction product and Gauss-Jordan elimination on lists of
rows, as ``ExactMatrix`` computed them before it learned to skip zero
entries.  ``nullspace`` and ``inverse`` follow the same steps as the
methods of ``ExactMatrix`` but sit on this ``rref``.
"""

from __future__ import annotations

from fractions import Fraction

from cayley8.linalg import SingularMatrixError


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
