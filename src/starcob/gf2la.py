"""Sparse GF(2) linear algebra on bit-packed integer rows.

A matrix stores each row as a Python int bitmask (bit c set means entry 1 in
column c).  Elimination gives the reduced row echelon form, which is unique,
so ranks, kernels, and solutions depend only on the matrix.

F2Sum is the sum type of both GF(2) complexes, the cobar complex of dual
strings (barcobar.CobElem) and the twisted small model (hochschild.TwistedElem).
"""
from __future__ import annotations

from typing import Iterable, List, Optional

from .staralg import ALGEBRAS


class SparseMatF2:
    """A matrix over GF(2) with bit-packed rows.

    >>> SparseMatF2([0b11, 0b10], 2).kernel_basis()
    []
    >>> SparseMatF2([0b11, 0b11], 2).kernel_basis()
    [3]
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[int], ncols: int):
        self.rows: List[int] = list(rows)
        self.ncols = ncols
        mask = (1 << ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits beyond ncols")

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: Iterable[tuple[int, int]]) -> "SparseMatF2":
        """Build from (row, col) positions of the 1-entries."""
        rows = [0] * nrows
        for r, c in entries:
            rows[r] ^= 1 << c
        return cls(rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "SparseMatF2":
        out = [0] * self.ncols
        for i, row in enumerate(self.rows):
            r = row
            while r:
                low = r & -r
                c = low.bit_length() - 1
                out[c] |= 1 << i
                r ^= low
        return SparseMatF2(out, len(self.rows))

    def _rref(self) -> tuple[List[int], List[int]]:
        """Reduced row echelon form; returns (rows, pivot columns).

        Each row is reduced against the rows kept so far, keyed by their
        lowest set bit, and kept under its own lowest bit if anything is
        left.  Back-reduction in descending pivot order then clears every
        pivot column outside its own row.  The rows come out sorted by
        pivot, followed by one zero row per dependent input row.
        """
        by_low: dict[int, int] = {}
        for row in self.rows:
            while row:
                low = row & -row
                kept = by_low.get(low)
                if kept is None:
                    by_low[low] = row
                    break
                row ^= kept
        lows = sorted(by_low)
        done = 0
        for low in reversed(lows):
            row = by_low[low]
            hits = row & done
            while hits:
                bit = hits & -hits
                row ^= by_low[bit]
                hits ^= bit
            by_low[low] = row
            done |= low
        rows = [by_low[low] for low in lows]
        pivots = [low.bit_length() - 1 for low in lows]
        return rows + [0] * (len(self.rows) - len(rows)), pivots

    def kernel_basis(self) -> List[int]:
        """Basis vectors (column bitmasks) of {v : M v = 0}, one per free column."""
        rows, pivots = self._rref()
        pivot_set = set(pivots)
        basis: List[int] = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = 1 << free
            for r, pc in enumerate(pivots):
                if (rows[r] >> free) & 1:
                    vec |= 1 << pc
            basis.append(vec)
        return basis

    def solve(self, b: int) -> Optional[int]:
        """One solution v of M v = b (free variables 0), or None if inconsistent:
        if b, as column ncols of [M | b], becomes a pivot."""
        nc = self.ncols
        aug = SparseMatF2([row | (b >> i & 1) << nc for i, row in enumerate(self.rows)], nc + 1)
        rows, pivots = aug._rref()
        if pivots and pivots[-1] == nc:
            return None
        v = 0
        for r, pc in enumerate(pivots):
            if rows[r] >> nc & 1:
                v |= 1 << pc
        return v


def reduce_against(vec: int, basis_rows: List[int]) -> int:
    """Reduce vec modulo the row space spanned by basis_rows (assumed RREF-like).

    Rows are processed in order; each row clears its lowest set bit from vec.
    """
    for row in basis_rows:
        if row == 0:
            continue
        lead = (row & -row).bit_length() - 1
        if (vec >> lead) & 1:
            vec ^= row
    return vec


def row_space_basis(rows: List[int]) -> List[int]:
    """Independent RREF rows spanning the same space, lowest-lead-bit first."""
    ncols = max((row.bit_length() for row in rows), default=0)
    work, pivots = SparseMatF2(rows, ncols)._rref()
    return work[: len(pivots)]


class F2Sum:
    """A GF(2) combination of basis terms: a frozenset of hashable terms, all
    over one algebra ("A" or "B") and one N.

    A term carries `algebra`, `n` and `render()`.  Sums add by symmetric
    difference; a subclass sets `sort_key`, the canonical order in which
    `sorted_terms` and `render` list its terms.
    """

    __slots__ = ("algebra", "n", "terms")
    sort_key = None

    def __init__(self, algebra: str, n: int, terms: Iterable = ()):
        if algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra {algebra!r}")
        self.algebra = algebra
        self.n = n
        self.terms: frozenset = frozenset(terms)
        for term in self.terms:
            if term.algebra != algebra or term.n != n:
                raise ValueError(f"term {term.render()} does not belong to this {type(self).__name__}")

    @classmethod
    def zero(cls, algebra: str, n: int) -> "F2Sum":
        return cls(algebra, n)

    @classmethod
    def of(cls, term) -> "F2Sum":
        """The sum with the single term `term`."""
        return cls(term.algebra, term.n, (term,))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.algebra, self.n, self.terms) == (other.algebra, other.n, other.terms)

    def __hash__(self) -> int:
        return hash((self.algebra, self.n, self.terms))

    def __add__(self, other: "F2Sum") -> "F2Sum":
        if type(other) is not type(self) or (self.algebra, self.n) != (other.algebra, other.n):
            raise ValueError("cannot add sums of different kinds, algebras or N")
        return type(self)(self.algebra, self.n, self.terms ^ other.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms, key=self.sort_key)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(term.render() for term in self.sorted_terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.algebra!r}, {self.n}, {self.render()!r})"


def terms_of(x) -> Iterable:
    """The terms of a sum, or the single term x itself."""
    return x.terms if isinstance(x, F2Sum) else (x,)


__all__ = ["SparseMatF2", "reduce_against", "row_space_basis", "F2Sum", "terms_of"]
