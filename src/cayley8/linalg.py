"""Exact rational matrices with rank, kernel, and inverse queries.

A matrix is stored as integer numerators over one shared positive
denominator, the layout ``Polynomial`` uses: each row is a dict from column
to a nonzero numerator, and the form is canonical (the gcd of every
numerator and the denominator is 1, and a zero matrix has denominator 1), so
equal matrices have equal fields.  The matrices built here are mostly zeros
(the 56x56 three-form operator has 392 nonzero entries of 3,136) and top out
around 70x70.

``+``, ``-``, scalar ``*``, ``@`` (each nonzero of a left row walks one right
row), ``transpose`` and the sum of ``trace`` run on Python ints.  The
columns of a matrix are the rows of its transpose, built on first use and
cached both ways, so ``m.transpose().transpose() is m``: column ``j`` reads
as ``m.transpose().rows[j]``, and the matrix with given columns is
``ExactMatrix(zip(*columns, strict=True))``.  The Gram matrix ``gram()``,
``transpose() @ self``, is built on first use and cached on the instance
like the transpose, so ``m.gram() is m.gram()``, and a matrix built anew
(a perturbed copy, say) builds its own.

Elimination is fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) and runs in
two stages, each cached per matrix.  The forward pass goes through the
columns left to right, and every row not yet a pivot waits in a bucket keyed
by its leading (smallest) column, so column ``c`` looks at its own bucket
and no other row.  There the sparsest row (the lowest original row position
on a tie) becomes the pivot row, its sign flipped to make the pivot
positive, and every other row of the bucket, with ``b`` in that column,
becomes ``(a/g) row - (b/g) pivot_row`` with ``g = gcd(a, b)``, divided by
its content, and waits at its new leading column.  Rows that are already
pivots are never touched, so the pass yields an echelon form and the pivot
columns, and a block-diagonal matrix (such as S - lambda I on three-forms,
8 blocks of 7) costs what its blocks cost.  ``rref`` adds the
back-substitution: from the last pivot upward, each pivot row clears its
column from the pivot rows above it, so an echelon row is a numerator over
its pivot, and scaling each row to the lcm of the pivots puts
the reduced form over one denominator.  The reduced form is unique and stored
canonically, so the pivot order does not show in it.  ``rank`` and
``nullity`` (and so ``column_span_equals`` and
``spin7.eigenspace_dimension``) read the forward pass alone; ``nullspace``
and ``inverse`` read ``rref``.  ``shifted(v)`` is ``self - v I`` built by
copying the rows once and moving the diagonal, and ``shifted(0)`` is the
matrix itself, so ``eigenspace_dimension(m, 0)`` reads the forward pass
that ``m.rank()`` caches.  A matrix never eliminates twice: ``rref``
starts from a cached forward pass, and ``rank`` reads that pass's pivots.
Entries and scalars are read through ``polynomial._quotient``.

Every query answers with an ``ExactMatrix`` or an int: ``rref()[0]`` is a
matrix, and ``nullspace()`` is the matrix whose columns are the kernel
basis.  Only ``rows`` (the one dense view, built on each call and read by
no library code), ``trace()`` and ``abs_entry_sum()`` give
``fractions.Fraction`` values.  Instances are treated as immutable once
built.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .polynomial import Rational, _checked, _quotient

IntRow = dict[int, int]

_ZERO = Fraction(0)


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix without full rank."""


class ExactMatrix:
    """Matrix over the rationals: sparse integer rows over one denominator."""

    __slots__ = ("_nums", "_den", "nrows", "ncols", "_echelon", "_rref", "_transpose", "_gram")

    def __init__(self, rows: Iterable[Sequence[Rational]]):
        data = [list(row) for row in rows]
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        entries = [(i, j) + _quotient(v) for i, row in enumerate(data) for j, v in enumerate(row)]
        made = ExactMatrix.from_quotients((len(data), width), entries)
        _fill(self, made._nums, made._den, width)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_quotients(
        cls, shape: tuple[int, int], quotients: Iterable[tuple[int, int, int, int]]
    ) -> "ExactMatrix":
        """Zero matrix of ``shape`` plus ``num/den`` at ``(i, j)`` per ``(i, j, num, den)``, all ints, ``den`` nonzero."""
        nrows, ncols = shape
        if type(nrows) is not int or type(ncols) is not int or nrows < 1 or ncols < 0:
            raise ValueError(f"matrix needs at least one row and integer sizes, got {shape!r}")
        quotients = list(quotients)
        den = 1
        for i, j, n, d in quotients:
            if type(i) is not int or type(j) is not int or not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i!r}, {j!r}) outside a {nrows}x{ncols} matrix")
            _checked(n, d)
            if den % d:
                den = lcm(den, d)
        rows: list[IntRow] = [{} for _ in range(nrows)]
        for i, j, n, d in quotients:
            row = rows[i]
            row[j] = row.get(j, 0) + n * (den // d)  # a negative d flips the sign
        return _reduced([{j: v for j, v in row.items() if v} for row in rows], den, ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        if type(n) is not int or n < 1:
            raise ValueError(f"an identity matrix needs a positive integer size, not {n!r}")
        return _reduced([{i: 1} for i in range(n)], 1, n)

    # -- views -------------------------------------------------------------

    @property
    def rows(self) -> list[list[Fraction]]:
        """Dense ``Fraction`` rows, built on each call.

        Column ``j`` is ``transpose().rows[j]`` (the transpose is cached),
        and ``ExactMatrix(zip(*columns, strict=True))`` builds a matrix from
        columns (no columns, or columns of unequal length, are a ``ValueError``).
        """
        den = self._den
        rows = []
        for row in self._nums:
            dense = [_ZERO] * self.ncols
            for j, v in row.items():
                dense[j] = Fraction(v, den)
            rows.append(dense)
        return rows

    def abs_entry_sum(self) -> Fraction:
        """L1 mass of the entries; zero iff the matrix is zero."""
        return Fraction(sum(abs(v) for row in self._nums for v in row.values()), self._den)

    # -- basic algebra ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ncols, self._den, self._nums) == (other.ncols, other._den, other._nums)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """``self + sign * other`` over the lcm of the two denominators; a non-matrix is left to Python."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        out = []
        for ra, rb in zip(self._nums, other._nums):
            row = {j: sa * v for j, v in ra.items()}
            for j, v in rb.items():
                w = row.get(j, 0) + sb * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            out.append(row)
        return _reduced(out, den, self.ncols)

    def __mul__(self, scalar: Rational) -> "ExactMatrix":
        num, den = _quotient(scalar)
        rows = [{j: num * v for j, v in row.items()} if num else {} for row in self._nums]
        return _reduced(rows, den * self._den, self.ncols)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        right = other._nums
        out = []
        for row in self._nums:
            acc: IntRow = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return _reduced(out, self._den * other._den, other.ncols)

    def transpose(self) -> "ExactMatrix":
        """The transpose (cached); its rows are the columns of this matrix."""
        if self._transpose is None:
            out: list[IntRow] = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self._nums):
                for j, v in row.items():
                    out[j][i] = v
            self._transpose = _reduced(out, self._den, self.nrows)
            self._transpose._transpose = self
        return self._transpose

    def gram(self) -> "ExactMatrix":
        """The Gram matrix ``transpose() @ self`` (cached): entry ``(j, k)`` is column j dotted with column k."""
        if self._gram is None:
            self._gram = self.transpose() @ self
        return self._gram

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(row.get(i, 0) for i, row in enumerate(self._nums)), self._den)

    def shifted(self, value: Rational) -> "ExactMatrix":
        """``self - value I`` for a square matrix: one copy of the rows with the diagonal moved.

        ``shifted(0)`` is ``self``, cached eliminations and all.
        """
        if self.nrows != self.ncols:
            raise ValueError(f"shift of a non-square {self.nrows}x{self.ncols} matrix")
        num, den = _quotient(value)
        if not num:
            return self
        common = lcm(self._den, den)
        scale, shift = common // self._den, num * (common // den)
        if scale == 1:
            rows = [dict(row) for row in self._nums]
        else:
            rows = [{j: scale * v for j, v in row.items()} for row in self._nums]
        for i, row in enumerate(rows):
            w = row.get(i, 0) - shift
            if w:
                row[i] = w
            else:
                del row[i]
        return _reduced(rows, common, self.ncols)

    # -- elimination -------------------------------------------------------

    def _forward(self) -> tuple[list[IntRow], list[int]]:
        """Echelon rows and pivot columns of the forward pass (cached).

        Each nonzero row waits in the bucket of its leading column, tagged
        with its row position.  At column ``c`` only that bucket has an
        entry there: its sparsest row (the lowest position on a tie) becomes
        the pivot row, made positive, and every other row of the bucket is
        cleared and waits at its new leading column (or is dropped if zero);
        a pivot row is never touched again.
        """
        if self._echelon is None:
            waiting: dict[int, list[tuple[int, int, IntRow]]] = {}
            for position, row in enumerate(self._nums):
                if row:
                    waiting.setdefault(min(row), []).append((len(row), position, row))
            echelon: list[IntRow] = []
            pivots: list[int] = []
            for c in range(self.ncols):
                bucket = waiting.pop(c, None)
                if bucket is None:
                    continue
                _, chosen, pivot = min(bucket)  # positions differ, so rows are never compared
                a = pivot[c]
                if a < 0:  # pivots are positive, so a pivot of 1 never scales a target row
                    pivot, a = {j: -v for j, v in pivot.items()}, -a
                for _, position, row in bucket:
                    if position != chosen:
                        row = _cleared(row, row[c], pivot, a)
                        if row:
                            waiting.setdefault(min(row), []).append((len(row), position, row))
                echelon.append(pivot)
                pivots.append(c)
                if not waiting:
                    break
            self._echelon = (echelon, pivots)
        return self._echelon

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Reduced row echelon form and pivot column list (cached)."""
        if self._rref is None:
            echelon, pivots = self._forward()
            m = list(echelon)
            for k in range(len(pivots) - 1, 0, -1):  # back-substitution, from the last pivot up
                c, pivot = pivots[k], m[k]
                a = pivot[c]
                for i in range(k):
                    b = m[i].get(c)
                    if b is not None:
                        m[i] = _cleared(m[i], b, pivot, a)
            # echelon row k is over its pivot; scaling puts every row over the lcm of the pivots
            den = lcm(*(row[c] for row, c in zip(m, pivots)))
            m = [{j: v * (den // row[c]) for j, v in row.items()} for row, c in zip(m, pivots)]
            m += [{} for _ in range(self.nrows - len(pivots))]
            self._rref = (_reduced(m, den, self.ncols), pivots)
        return self._rref

    def rank(self) -> int:
        return len(self._forward()[1])

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def nullspace(self) -> "ExactMatrix":
        """Kernel basis as the columns of an ``ncols x nullity`` matrix, one per free column."""
        reduced, pivots = self.rref()
        free = sorted(set(range(self.ncols)) - set(pivots))
        out: list[IntRow] = [{} for _ in range(self.ncols)]
        for k, f in enumerate(free):
            out[f][k] = reduced._den
            for row, c in zip(reduced._nums, pivots):
                if f in row:
                    out[c][k] = -row[f]
        return _reduced(out, reduced._den, len(free))

    def inverse(self) -> "ExactMatrix":
        """``N/den`` inverts to ``den`` times the right half of the echelon form of ``[N | I]``."""
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square matrices invert")
        n = self.nrows
        aug = _reduced([{**row, n + i: 1} for i, row in enumerate(self._nums)], 1, 2 * n)
        reduced, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        out = [{j - n: v * self._den for j, v in row.items() if j >= n} for row in reduced._nums]
        return _reduced(out, reduced._den, n)

    def column_span_equals(self, other: "ExactMatrix") -> bool:
        """Whether two matrices with equal row counts span the same column space."""
        _expect_matrix(other, "column_span_equals")
        if self.nrows != other.nrows:
            raise ValueError("column spaces live in different ambient dimensions")
        width = self.ncols
        joined = _reduced(
            [{**ra, **{width + j: v for j, v in rb.items()}} for ra, rb in zip(self._nums, other._nums)],
            1,
            width + other.ncols,
        )
        r = self.rank()
        return r == other.rank() == joined.rank()


def _expect_matrix(value: ExactMatrix, caller: str) -> None:
    """Refuse ``value`` with a ``TypeError`` naming ``caller`` unless it is an :class:`ExactMatrix`."""
    if not isinstance(value, ExactMatrix):
        raise TypeError(f"{caller} needs an ExactMatrix, got {type(value).__name__}")


def _fill(matrix: ExactMatrix, nums: list[IntRow], den: int, ncols: int) -> None:
    matrix._nums = nums
    matrix._den = den
    matrix.nrows = len(nums)
    matrix.ncols = ncols
    matrix._echelon = None
    matrix._rref = None
    matrix._transpose = None
    matrix._gram = None


def _cleared(target: IntRow, b: int, pivot: IntRow, a: int) -> IntRow:
    """``(a/g) target - (b/g) pivot`` over its content, ``g = gcd(a, b)``: a new row without the pivot's column.

    ``a > 0`` is the entry of ``pivot`` in its pivot column, ``b`` that of ``target``.
    """
    g = gcd(a, b)
    ag, bg = a // g, b // g
    row = {j: ag * v for j, v in target.items()} if ag != 1 else dict(target)
    for j, v in pivot.items():
        w = row.get(j, 0) - bg * v
        if w:
            row[j] = w
        else:
            del row[j]
    content = gcd(*row.values())
    return {j: v // content for j, v in row.items()} if content > 1 else row


def _reduced(rows: list[IntRow], den: int, ncols: int) -> ExactMatrix:
    """A matrix from nonzero numerators over a positive denominator, made canonical."""
    if not any(rows):
        den = 1
    elif den != 1:
        g = gcd(den, *(v for row in rows for v in row.values()))
        if g != 1:
            den //= g
            rows = [{j: v // g for j, v in row.items()} for row in rows]
    out = ExactMatrix.__new__(ExactMatrix)
    _fill(out, rows, den, ncols)
    return out
