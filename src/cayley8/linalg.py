"""Exact rational matrices with rank, kernel, and inverse queries.

Plain fraction-by-fraction Gaussian elimination; matrices here top out
around 70x70, where exact elimination is instantaneous.  Results of the
expensive queries are cached on the instance, and instances are treated as
immutable once built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .polynomial import Rational, as_fraction


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix without full rank."""


class ExactMatrix:
    """Dense matrix over the rationals."""

    __slots__ = ("rows", "nrows", "ncols", "_rref", "_pivots", "_inverse")

    def __init__(self, rows: Iterable[Sequence[Rational]]):
        data = [[as_fraction(v) for v in row] for row in rows]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = width
        self._rref: list[list[Fraction]] | None = None
        self._pivots: list[int] | None = None
        self._inverse: "ExactMatrix | None" = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Rational]]) -> "ExactMatrix":
        ncols = len(columns)
        nrows = len(columns[0])
        return cls([[columns[j][i] for j in range(ncols)] for i in range(nrows)])

    # -- basic algebra ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __mul__(self, scalar: Rational) -> "ExactMatrix":
        c = as_fraction(scalar)
        return ExactMatrix([[c * v for v in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in self.rows]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([list(col) for col in zip(*self.rows)])

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.rows]

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and pivot column list (cached)."""
        if self._rref is None:
            m = [row[:] for row in self.rows]
            pivots: list[int] = []
            r = 0
            for c in range(self.ncols):
                pivot_row = next((i for i in range(r, self.nrows) if m[i][c]), None)
                if pivot_row is None:
                    continue
                m[r], m[pivot_row] = m[pivot_row], m[r]
                pivot = m[r][c]
                m[r] = [v / pivot for v in m[r]]
                for i in range(self.nrows):
                    if i != r and m[i][c]:
                        factor = m[i][c]
                        m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
                pivots.append(c)
                r += 1
                if r == self.nrows:
                    break
            self._rref = m
            self._pivots = pivots
        return self._rref, self._pivots  # type: ignore[return-value]

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the kernel, one vector per free column."""
        rref, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for r, c in enumerate(pivots):
                vec[c] = -rref[r][f]
            basis.append(vec)
        return basis

    def inverse(self) -> "ExactMatrix":
        if self._inverse is None:
            if self.nrows != self.ncols:
                raise SingularMatrixError("only square matrices invert")
            n = self.nrows
            identity = ExactMatrix.identity(n).rows
            aug = ExactMatrix([row + unit for row, unit in zip(self.rows, identity)])
            rref, pivots = aug.rref()
            if pivots[:n] != list(range(n)):
                raise SingularMatrixError("matrix is singular")
            self._inverse = ExactMatrix([row[n:] for row in rref])
        return self._inverse

    def column_span_equals(self, other: "ExactMatrix") -> bool:
        """Whether two matrices with equal row counts span the same column space."""
        if self.nrows != other.nrows:
            raise ValueError("column spaces live in different ambient dimensions")
        joined = ExactMatrix([ra + rb for ra, rb in zip(self.rows, other.rows)])
        r = self.rank()
        return r == other.rank() == joined.rank()
