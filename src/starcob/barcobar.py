"""Dual tensor strings, their bar/cobar differentials, and the homotopy data.

A tensor string over one algebra is a chained tuple of duals of non-idempotent
basis words.  The cobar differential splits one factor into a product of two;
the bar differential merges two adjacent factors; cobar_mul concatenates
strings when the chaining invariant holds across the seam.  A sum of strings
is a CobElem, a gf2la.F2Sum of TString terms, and each of these maps takes a
single string or a sum.

The letterwise dictionary (loop letters to loop letters, edge letters to edge
letters) induces a map phi from strings over one algebra to the other algebra
by multiplying the images of the factors in reverse order, and a reverse map
psi sending a basis word to the string of duals of its letters.  phi kills any
string with a factor of length > 1, phi composed with psi is the identity, and
homotopy_h certifies that psi composed with phi is homotopic to the identity:
delta H + H delta = id + psi phi on every chained string.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .gf2la import F2Sum, terms_of
from .ring import POLY_ONE
from .staralg import (
    AlgElem,
    AWord,
    BWord,
    Word,
    WordIndex,
    chain_ok,
    dual_algebra,
    grading,
    letter,
    mul_word,
    word_letters,
    word_sort_key,
    word_splits,
)


@functools.cache
def dict_image(w: Word) -> Word:
    """The letterwise dictionary on single-letter words (loops to loops,
    edges to edges, same node), valued in the other algebra."""
    if w.ell != 1:
        raise ValueError("the dictionary acts on single letters")
    if isinstance(w, AWord):
        return letter("B", "r" if w.kind == "u" else "s", w.start, w.n)
    return letter("A", "u" if w.first == "r" else "s", w.start, w.n)


def _dual_factor_str(w: Word) -> str:
    if w.ell == 1:
        if isinstance(w, AWord):
            return ("U" if w.kind == "u" else "s") + f"{w.start}*"
        return f"{w.first}{w.start}*"
    if isinstance(w, AWord):
        if w.kind == "u":
            return f"(U{w.start}^{w.length})*"
        body = "".join(f"s{l.start}" for l in word_letters(w))
    else:
        body = "".join(f"{t}{i}" for t, i in w.letters())
    return f"({body})*"


@dataclass(frozen=True, slots=True)
class TString:
    """A chained tensor string of duals of non-idempotent basis words.

    >>> n = 3
    >>> TString((AWord("u", 1, 1, n), AWord("s", 1, 2, n))).render()
    'U1*.(s1s2)*'
    """

    factors: tuple

    def __post_init__(self) -> None:
        # One pass: same algebra and N, no idempotent, and each factor chained
        # to the previous one (staralg.chain_ok, inlined: this runs per string).
        if not self.factors:
            raise ValueError("tensor strings have at least one factor")
        head = self.factors[0]
        cls, n = type(head), head.n
        prev = None
        for w in self.factors:
            if type(w) is not cls or w.n != n:
                raise ValueError("mixed factors in a tensor string")
            if w.kind == "i":
                raise ValueError("idempotent factors are excluded")
            if prev is not None and prev.exit != w.entry:
                raise ValueError(f"factors {prev.render()} and {w.render()} are not chained")
            prev = w

    @property
    def algebra(self) -> str:
        return self.factors[0].algebra

    @property
    def n(self) -> int:
        return self.factors[0].n

    @property
    def total_ell(self) -> int:
        return sum(w.ell for w in self.factors)

    @property
    def m_degree(self) -> int:
        """Maslov degree of the string: each dual factor contributes -m-1."""
        return sum(-grading(w).m - 1 for w in self.factors)

    def render(self) -> str:
        return ".".join(_dual_factor_str(w) for w in self.factors)

    def render_with_block(self) -> str:
        """Render with the leading block separated by '|'."""
        n_block = _block_length(self)
        parts = [_dual_factor_str(w) for w in self.factors]
        return ".".join(parts[:n_block]) + "|" + ".".join(parts[n_block:])


def tstring_sort_key(ts: TString) -> tuple:
    return (ts.total_ell, len(ts.factors), tuple(word_sort_key(w) for w in ts.factors))


class CobElem(F2Sum):
    """A GF(2) combination of tensor strings over one algebra."""

    __slots__ = ()
    sort_key = staticmethod(tstring_sort_key)


def cobar_diff(x: Union[CobElem, TString]) -> CobElem:
    """Split one factor into a product of two non-idempotent duals.

    >>> n = 3
    >>> cobar_diff(TString((AWord("s", 1, 2, n),))).render()
    's1*.s2*'
    >>> cobar_diff(TString((AWord("u", 1, 1, n),))).render()
    '0'
    """
    out: set = set()
    for ts in terms_of(x):
        f = ts.factors
        for k, w in enumerate(f):
            for c, d in word_splits(w):
                out ^= {TString(f[:k] + (c, d) + f[k + 1 :])}
    return CobElem(x.algebra, x.n, out)


def bar_diff(x: Union[CobElem, TString]) -> CobElem:
    """Merge two adjacent factors under the word product."""
    out: set = set()
    for ts in terms_of(x):
        f = ts.factors
        for k in range(len(f) - 1):
            merged = mul_word(f[k], f[k + 1])
            if merged is not None:
                out ^= {TString(f[:k] + (merged,) + f[k + 2 :])}
    return CobElem(x.algebra, x.n, out)


def cobar_mul(f: Union[CobElem, TString], g: Union[CobElem, TString]) -> CobElem:
    """Concatenation product; zero when the seam is not chained.

    >>> n = 3
    >>> cobar_mul(TString((AWord("u", 1, 1, n),)), TString((AWord("s", 1, 1, n),))).render()
    'U1*.s1*'
    """
    if (f.algebra, f.n) != (g.algebra, g.n):
        raise ValueError("cannot multiply strings over different algebras")
    out: set = set()
    for s in terms_of(f):
        for t in terms_of(g):
            if chain_ok(s.factors[-1], t.factors[0]):
                out ^= {TString(s.factors + t.factors)}
    return CobElem(f.algebra, f.n, out)


def phi(x: Union[CobElem, TString]) -> AlgElem:
    """Fold a string into the other algebra, multiplying factor images in
    reverse order; strings with a factor of length > 1 map to zero.

    >>> n = 3
    >>> phi(TString((AWord("u", 1, 1, n), AWord("s", 1, 1, n)))).render()
    'r1.s1'
    """
    out = AlgElem.zero(dual_algebra(x.algebra), x.n)
    for ts in terms_of(x):
        if any(w.ell != 1 for w in ts.factors):
            continue
        acc: Optional[Word] = dict_image(ts.factors[-1])
        for w in reversed(ts.factors[:-1]):
            acc = mul_word(acc, dict_image(w))
            if acc is None:
                break
        if acc is not None:
            out = out + AlgElem.from_word(acc)
    return out


def psi(b: Union[AlgElem, Word]) -> CobElem:
    """Dual string of a basis word: duals of its letters, factor order
    reversed against the written order, valued over the other algebra.

    >>> n = 3
    >>> psi(BWord("c", 1, "r", 2, n)).render()
    'U1*.s1*'
    """
    if not isinstance(b, AlgElem):
        b = AlgElem.from_word(b)
    out: set = set()
    for word, coeff in b.terms.items():
        if word.is_idempotent():
            raise ValueError("psi is undefined on idempotents")
        if coeff != POLY_ONE:
            raise ValueError("psi acts on GF(2) combinations of words")
        out ^= {TString(tuple(dict_image(l) for l in reversed(word_letters(word))))}
    return CobElem(dual_algebra(b.algebra), b.n, out)


def _block_length(ts: TString) -> int:
    """Length of the maximal leading block: single-letter factors whose
    consecutive images compose to nonzero products in the other algebra."""
    f = ts.factors
    if f[0].ell != 1:
        return 0
    n_block = 1
    while n_block < len(f):
        w = f[n_block]
        if w.ell != 1 or mul_word(dict_image(w), dict_image(f[n_block - 1])) is None:
            break
        n_block += 1
    return n_block


def homotopy_h(x: Union[CobElem, TString], fault: Optional[tuple] = None) -> CobElem:
    """Merge the last leading-block factor into the first tail factor.

    Zero on strings with an empty leading block, with no tail, or whose merge
    product vanishes.

    >>> n = 3
    >>> homotopy_h(TString((AWord("u", 1, 1, n), AWord("u", 1, 1, n)))).render()
    '(U1^2)*'
    >>> homotopy_h(TString((AWord("u", 1, 1, n), AWord("s", 1, 1, n)))).render()
    '0'
    """
    if fault is not None and fault[0] == "break-h":
        return CobElem.zero(x.algebra, x.n)
    out: set = set()
    for ts in terms_of(x):
        f = ts.factors
        n_block = _block_length(ts)
        if n_block == 0 or n_block == len(f):
            continue
        merged = mul_word(f[n_block - 1], f[n_block])
        if merged is not None:
            out ^= {TString(f[: n_block - 1] + (merged,) + f[n_block + 1 :])}
    return CobElem(x.algebra, x.n, out)


def enumerate_strings(algebra: str, max_total_len: int, n: int) -> Iterator[TString]:
    """All chained tensor strings with total length <= max_total_len."""
    for factors in WordIndex(algebra, max_total_len, n, idempotents=False).chains(max_total_len):
        yield TString(factors)


def verify_homotopy(
    max_total_len: int,
    n: int,
    base: str = "A",
    fault: Optional[tuple] = None,
) -> bool:
    """Whether delta H + H delta = id + psi phi on every chained string over
    `base` with total length within the bound.

    The sweep is serial, in enumeration order, and stops at the first string
    on which the identity fails.
    """

    def _holds(ts: TString) -> bool:
        lhs = cobar_diff(homotopy_h(ts, fault)) + homotopy_h(cobar_diff(ts), fault)
        rhs = CobElem.of(ts)
        image = phi(ts)
        if not image.is_zero():
            rhs = rhs + psi(image)
        return lhs == rhs

    return all(_holds(ts) for ts in enumerate_strings(base, max_total_len, n))


__all__ = [
    "TString",
    "CobElem",
    "tstring_sort_key",
    "dict_image",
    "cobar_diff",
    "bar_diff",
    "cobar_mul",
    "phi",
    "psi",
    "homotopy_h",
    "enumerate_strings",
    "verify_homotopy",
]
