"""Reference implementations for the test oracles, built on words rather
than on table ids: fixed-arity chained tuples over a word table, words
moved along the cycle, the factorizations of a word, the unit, the
letterwise dictionary, the concatenation product of tensor strings, and
the rank of a GF(2) matrix."""
from __future__ import annotations

import functools

from starcob.barcobar import CobElem, TString
from starcob.gf2la import terms_of
from starcob.ring import POLY_ONE
from starcob.staralg import AlgElem, AWord, BWord, advance, chain_ok, idempotent, letter


def started_at(w, start):
    """The word w with its start node replaced by `start`, every other field kept."""
    if isinstance(w, AWord):
        return AWord(w.kind, start, w.length, w.n)
    return BWord(w.kind, start, w.first, w.length, w.n)


def chained_tuples(table, k, budget, entry=None, units=None):
    """Chained k-tuples of the table's word ids, idempotents included (at
    most `units` of them, if given), with total length <= budget and the
    first word entered at `entry` (any node if None)."""
    if k == 0:
        yield ()
        return
    for i in range(1, table.n + 1) if entry is None else (entry,):
        for a in table.by_entry[i]:
            left = units if units is None or a >= table.n else units - 1
            if table.ell[a] <= budget and (left is None or left >= 0):
                for rest in chained_tuples(table, k - 1, budget - table.ell[a], table.exit[a], left):
                    yield (a,) + rest


def split_a_word(w, head_len):
    """Factor an A-word into (head, tail) with the given head length, or None."""
    if w.kind == "i" or not 1 <= head_len <= w.length - 1:
        return None
    if w.kind == "u":
        return (AWord("u", w.start, head_len, w.n), AWord("u", w.start, w.length - head_len, w.n))
    return (
        AWord("s", w.start, head_len, w.n),
        AWord("s", advance(w.start, head_len, w.n), w.length - head_len, w.n),
    )


def split_b_word(w, first_len):
    """Factor a B-word into (later, first) parts, or None; `first` gets
    first_len letters."""
    if w.kind == "i" or not 1 <= first_len <= w.length - 1:
        return None
    k = w.first_slot + first_len  # the slot where the later part's run starts
    later = BWord("c", k // 2 % w.n + 1, "rs"[k % 2], w.length - first_len, w.n)
    return (later, BWord("c", w.start, w.first, first_len, w.n))


def word_splits(w):
    """All factorizations w = mul_word(c, d) into two non-idempotent words,
    by the length of c, the written-first factor, in both algebras."""
    if isinstance(w, AWord):
        return tuple(split_a_word(w, k) for k in range(1, w.ell))
    return tuple(split_b_word(w, w.ell - k) for k in range(1, w.ell))


def unit(algebra, n):
    """The unit of the algebra: the sum of its N idempotents."""
    return AlgElem(algebra, n, {idempotent(algebra, i, n): POLY_ONE for i in range(1, n + 1)})


@functools.cache
def dict_image(w):
    """The letterwise dictionary on single-letter words (loops to loops,
    edges to edges, same node), valued in the other algebra."""
    if w.ell != 1:
        raise ValueError("the dictionary acts on single letters")
    if isinstance(w, AWord):
        return letter("B", "r" if w.kind == "u" else "s", w.start, w.n)
    return letter("A", "u" if w.first == "r" else "s", w.start, w.n)


def cobar_mul(f, g):
    """Concatenation product of strings or sums; zero when the seam is not chained."""
    if (f.algebra, f.n) != (g.algebra, g.n):
        raise ValueError("cannot multiply strings over different algebras")
    out: set = set()
    for s in terms_of(f):
        for t in terms_of(g):
            if chain_ok(s.factors[-1], t.factors[0]):
                out ^= {TString(s.factors + t.factors)}
    return CobElem(f.algebra, f.n, out)


def rank(m):
    """The rank of a gf2la.SparseMatF2: its number of pivot columns."""
    _, pivots = m._rref()
    return len(pivots)
