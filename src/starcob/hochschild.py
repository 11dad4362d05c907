"""Bigraded cohomology of the two algebras via a twisted small model.

A monomial of the model for algebra A is V0^p * (A-word) tensor (B-word) with
matching path endpoints on both sides and a weight balance: p copies of the
full weight vector plus the weight of the left word must equal the weight of
the right word.  The model for algebra B mirrors this with V_{N+1}^p, a B-word
on the left, an A-word on the right, and the edge-slot weight vector.  So the
right word and p fix the left word's weight (`_left_weight`), which
`TwistedMono` checks.  A monomial's `algebra` is that of its left word, and a
TwistedElem is a gf2la.F2Sum of monomials of one model.

Slices in closed form.  In a slice with right length n and power p, the left
word has length l = n - p*len(var), and at most one left word balances each
right word, read off the right word's first slot (`first_slot`: that of its
first written letter in A, first applied in B; slots as in
`staralg.letter_slots`):

* l >= 2: none;
* l = 0: the idempotent at the right word's endpoint;
* l = 1: the letter at the right word's first slot;
* in model B with p > 0, only an s-chain on the right has one.

The weights show why.  A right word's weight is its n letters laid round
from its first slot: over all 2N slots for a B-word, over the N edge slots
for an s-chain, all on one loop slot for a U-power.  Model A subtracts p
from every slot, and model B p from every edge slot, which leaves l letters
laid the same way from the same slot; a U-power on the right of model B
would go negative on the edge slots unless p = 0.  An A-word's weight sits
on one loop slot or on edge slots only, and a B-word of length >= 2 covers
a run of consecutive slots.  So l >= 2 letters laid from one slot fill two
neighbouring slots in model A, which no A-word does, and lie on slots of
one parity in model B, which no B-word of length >= 2 does.  Weight 0 is
an idempotent's, and the right word is then a whole number of loops, so
its two endpoints agree.  A single 1 at a slot is the weight of the letter
there, which starts at the slot's node and ends at the next slot's, as the
right word does: that one letter and whole loops.

The differential pairs left multiplication by each single letter x with right
multiplication by its dictionary image, and right multiplication by x with
left multiplication by the image:

    delta(l (x) r) = sum_x [ x.l (x) r.x^ + l.x (x) x^.r ]

using each algebra's own product on its side.  A product of words vanishes
unless the left factor's exit is the right factor's entry, so each monomial
visits only the letters that chain at its left word's ends: two per end
(`_letter_buckets`), whatever N.  A letter and its image share a weight slot
and both endpoints, so each term keeps the weight balance and the shared
endpoints of the monomial it comes from.  The differential preserves the
coefficient power p, raises the homological degree n = len(right) by one,
and lowers the internal degree j by one; p is determined by (n, j), so each
bidegree is a finite slice and cohomology is exact linear algebra over
GF(2).  A table walk asks for each slice several times and builds it once
(`_slice`, a small cache behind `slice_basis`).

The monomials that the slices, the differential and the witness cocycles
build are admissible by the arguments above, so they are made without the
checks of `TwistedMono` (`_admissible`); the public constructor keeps them.
"""
from __future__ import annotations

import functools
from itertools import repeat
from operator import sub
from typing import Iterator, Optional, Union

from .gf2la import F2Sum, SparseMatF2, reduce_against, row_space_basis, terms_of
from .ring import Frozen, mono_str
from .staralg import (
    AWord,
    BWord,
    Word,
    coeff_var,
    dual_algebra,
    grading,
    higher_arity,
    idempotent,
    mono_grading,
    mul_word,
    slot_letters,
    special_element,
    word_sort_key,
    words_of_length,
)


class InsufficientTruncation(ValueError):
    """The requested slice needs a higher coefficient power than allowed."""


class TwistedMono(Frozen):
    """One admissible monomial p, left word, right word of the twisted model.

    >>> n = 3
    >>> TwistedMono(1, AWord("i", 1, 0, n), BWord("c", 1, "r", 6, n)).render()
    'V0*I1 (x) r1.s1.r2.s2.r3.s3'
    """

    __slots__ = _fields = ("p", "left", "right")

    def __init__(self, p: int, left: Word, right: Word) -> None:
        if right.algebra != dual_algebra(left.algebra):
            raise ValueError("left and right words must come from dual algebras")
        if right.n != left.n:
            raise ValueError("mixed parameters")
        if p < 0:
            raise ValueError("coefficient power must be >= 0")
        if left.init != right.init or left.fin != right.fin:
            raise ValueError("left and right words must share both endpoints")
        have, need = grading(left).alexander, _left_weight(p, right)
        if have != need:
            raise ValueError(f"weight balance fails: A(left) = {have}, A(right) - p*A(var) = {need}")
        _fill(self, p, left, right)

    @property
    def algebra(self) -> str:
        return self.left.algebra

    @property
    def n(self) -> int:
        return self.left.n

    def bidegree(self) -> tuple[int, int]:
        """(n, j): homological degree and internal degree."""
        coeff_m = mono_grading(self.p, self.algebra, self.n).m
        j = coeff_m + grading(self.left).m + grading(self.right).m
        return (self.right.ell, j)

    def render(self) -> str:
        head = self.left.render()
        if self.p:
            head = f"{mono_str(self.p, coeff_var(self.algebra, self.n))}*{head}"
        return f"{head} (x) {self.right.render()}"


def _fill(tm: TwistedMono, p: int, left: Word, right: Word) -> TwistedMono:
    object.__setattr__(tm, "p", p)
    object.__setattr__(tm, "left", left)
    object.__setattr__(tm, "right", right)
    return tm


def _admissible(p: int, left: Word, right: Word) -> TwistedMono:
    """The monomial of words that the caller built admissible, without the
    checks of the constructor (see the module docstring for each caller)."""
    return _fill(object.__new__(TwistedMono), p, left, right)


def _left_weight(p: int, right: Word) -> tuple:
    """The weight vector A(right) - p*A(var) that the weight balance asks of
    the left word of a monomial with coefficient power p and right word
    `right`, where var is the left (model) algebra's coefficient variable."""
    model = dual_algebra(right.algebra)
    coeff_vec = mono_grading(p, model, right.n).alexander
    return tuple(map(sub, grading(right).alexander, coeff_vec))


def mono_sort_key(tm: TwistedMono) -> tuple:
    return (word_sort_key(tm.right), word_sort_key(tm.left), tm.p)


class TwistedElem(F2Sum):
    """A GF(2) combination of twisted-model monomials."""

    __slots__ = ()
    sort_key = staticmethod(mono_sort_key)

    def bidegree(self) -> Optional[tuple[int, int]]:
        """The common bidegree, or None for zero; mixed degrees raise."""
        degs = {tm.bidegree() for tm in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not bihomogeneous: {sorted(degs)}")
        return degs.pop()


_LetterPairs = tuple[tuple[Word, Word], ...]


@functools.lru_cache(maxsize=4)
def _letters_by_slot(algebra: str, n: int) -> tuple[Word, ...]:
    """The algebra's letters, indexed by weight slot."""
    letters = words_of_length(algebra, 1, n)
    return tuple(letters[o] for o in slot_letters(algebra, n))


@functools.lru_cache(maxsize=4)
def _letter_buckets(model: str, n: int) -> tuple[tuple[_LetterPairs, ...], tuple[_LetterPairs, ...]]:
    """The (letter, dictionary image) pairs of the model's algebra, bucketed
    by the letter's exit node and by its entry node: (by_exit, by_entry),
    each indexed by node - 1.  The dictionary takes each letter to the dual
    algebra's letter at the same weight slot (loops to loops, edges to
    edges, same node), as `barcobar._WordTables.image` does."""
    images = _letters_by_slot(dual_algebra(model), n)
    by_exit: list[list] = [[] for _ in range(n)]
    by_entry: list[list] = [[] for _ in range(n)]
    for xl in _letters_by_slot(model, n):
        pair = (xl, images[xl.first_slot])
        by_exit[xl.exit - 1].append(pair)
        by_entry[xl.entry - 1].append(pair)
    return (tuple(map(tuple, by_exit)), tuple(map(tuple, by_entry)))


def twisted_diff(x: Union[TwistedElem, TwistedMono]) -> TwistedElem:
    """The twisted differential.

    A product of words is nonzero only across a chained seam (the left
    factor's exit is the right factor's entry), so x.l needs the letters
    whose exit is l's entry and l.x the letters whose entry is l's exit:
    each monomial visits the few letters that chain at its left word's ends
    (two per end), not all 2N.

    >>> n = 3
    >>> tm = TwistedMono(0, AWord("i", 1, 0, n), BWord("i", 1, "", 0, n))
    >>> twisted_diff(tm).render()
    's[1,2] (x) s1 + s[3,4] (x) s3'
    """
    model, n = x.algebra, x.n
    by_exit, by_entry = _letter_buckets(model, n)
    out: set = set()
    for tm in terms_of(x):
        for xl, xh in by_exit[tm.left.entry - 1]:
            left = mul_word(xl, tm.left)
            right = mul_word(tm.right, xh)
            if left is not None and right is not None:
                out ^= {_admissible(tm.p, left, right)}
        for xl, xh in by_entry[tm.left.exit - 1]:
            left = mul_word(tm.left, xl)
            right = mul_word(xh, tm.right)
            if left is not None and right is not None:
                out ^= {_admissible(tm.p, left, right)}
    return TwistedElem(model, n, out)


def slice_params(model: str, n_deg: int, j: int, big_n: int) -> Optional[tuple[int, int]]:
    """(p, left length) of the bidegree-(n, j) slice, or None if empty.

    With h = `higher_arity` (2N for model A, N for B), the coefficient
    power is p = (n+j)/(h-2) and the left length is n - h*p.  N must be > 2.
    """
    if big_n <= 2:
        raise ValueError(f"the construction needs N > 2, got N={big_n}")
    h = higher_arity(model, big_n)
    if (n_deg + j) % (h - 2):
        return None
    p = (n_deg + j) // (h - 2)
    if p < 0:
        return None
    ell_left = n_deg - h * p
    if ell_left < 0:
        return None
    return (p, ell_left)


def slice_basis(
    model: str, n_deg: int, j: int, big_n: int, trunc: Optional[int] = None
) -> tuple[TwistedMono, ...]:
    """Admissible monomials of bidegree (n, j), canonically ordered.

    Raises InsufficientTruncation when the slice needs coefficient power
    above `trunc`.
    """
    params = slice_params(model, n_deg, j, big_n)
    if params is None:
        return ()
    p, ell_left = params
    if trunc is not None and p > trunc:
        raise InsufficientTruncation(
            f"bidegree ({n_deg}, {j}) of model {model} needs coefficient power "
            f"{p} > truncation {trunc}"
        )
    return _slice(model, n_deg, p, ell_left, big_n)


# A table cell asks for its own slice twice and for its two neighbours once.
# Nonempty slices are sparse: to build each slice once, the walk over the
# default j = -1, -2 needs two kept, and every walk over j = 0..-16 at
# N = 3..16 needs at most eight.
@functools.lru_cache(maxsize=8)
def _slice(model: str, n_deg: int, p: int, ell_left: int, big_n: int) -> tuple[TwistedMono, ...]:
    """The admissible monomials with right length n_deg, coefficient power p
    and left length ell_left, canonically ordered: the right words in their
    own order, each with its one left word, by the rule of the module
    docstring."""
    if ell_left >= 2:
        return ()
    rights = words_of_length(dual_algebra(model), n_deg, big_n)
    if model == "B" and p:
        rights = [r for r in rights if r.kind == "s"]
    if ell_left == 0:
        idems = words_of_length(model, 0, big_n)
        lefts = [idems[r.init - 1] for r in rights]
    else:
        by_slot = _letters_by_slot(model, big_n)
        lefts = [by_slot[r.first_slot] for r in rights]
    return tuple(map(_admissible, repeat(p), lefts, rights))


def diff_matrix(
    model: str, n_deg: int, j: int, big_n: int, trunc: Optional[int] = None
) -> tuple[SparseMatF2, tuple[TwistedMono, ...], tuple[TwistedMono, ...]]:
    """Matrix of the differential from slice (n, j) to slice (n+1, j-1).

    Returns (matrix, source basis, target basis); columns index the source.
    """
    src = slice_basis(model, n_deg, j, big_n, trunc)
    dst = slice_basis(model, n_deg + 1, j - 1, big_n, trunc)
    index = {tm: i for i, tm in enumerate(dst)}
    entries = []
    for c, tm in enumerate(src):
        for out in twisted_diff(tm).terms:
            entries.append((index[out], c))
    return (SparseMatF2.from_entries(len(dst), len(src), entries), src, dst)


def _vec_to_elem(vec: int, basis: tuple[TwistedMono, ...], model: str, n: int) -> TwistedElem:
    terms = {basis[i] for i in range(len(basis)) if (vec >> i) & 1}
    return TwistedElem(model, n, frozenset(terms))


def cohomology_dim(
    model: str, n_deg: int, j: int, big_n: int, trunc: Optional[int] = None
) -> tuple[int, list[TwistedElem]]:
    """Dimension of the bidegree-(n, j) cohomology and witness cocycles.

    Witnesses are kernel representatives reduced against the image; one per
    cohomology dimension.  An empty source returns before any matrix is
    built.  Its target slice shares n + j, so the coefficient power, but not
    the left length: at source left length -1 only the target raises
    InsufficientTruncation, as it did when the matrix was built first.
    """
    if not slice_basis(model, n_deg, j, big_n, trunc):
        slice_basis(model, n_deg + 1, j - 1, big_n, trunc)
        return (0, [])
    out_mat, src, _ = diff_matrix(model, n_deg, j, big_n, trunc)
    kernel = out_mat.kernel_basis()
    in_mat, prev, _ = diff_matrix(model, n_deg - 1, j + 1, big_n, trunc)
    image_rows = row_space_basis(in_mat.transpose().rows) if prev else []
    witnesses = []
    accum = list(image_rows)
    for vec in kernel:
        red = reduce_against(vec, accum)
        if red:
            accum = row_space_basis(accum + [red])
            witnesses.append(_vec_to_elem(red, src, model, big_n))
    return (len(witnesses), witnesses)


def is_coboundary(
    x: TwistedElem, trunc: Optional[int] = None
) -> Optional[TwistedElem]:
    """A preimage of x under the differential, or None.

    x must be a cocycle; a zero x returns the zero element.
    """
    if x.is_zero():
        return TwistedElem.zero(x.algebra, x.n)
    if not twisted_diff(x).is_zero():
        raise ValueError("element is not a cocycle")
    n_deg, j = x.bidegree()
    in_mat, prev, cur = diff_matrix(x.algebra, n_deg - 1, j + 1, x.n, trunc)
    if not prev:
        return None
    index = {tm: i for i, tm in enumerate(cur)}
    b = 0
    for tm in x.terms:
        b |= 1 << index[tm]
    sol = in_mat.solve(b)
    if sol is None:
        return None
    return _vec_to_elem(sol, prev, x.algebra, x.n)


def witness_cocycle(model: str, big_n: int) -> TwistedElem:
    """The distinguished cocycle of bidegree (h, -2), h = `higher_arity`:
    V tensor the dual algebra's central element (`special_element`), each
    word w paired with V * I_{w.init}.

    >>> witness_cocycle("B", 3).render()
    'V4*I1 (x) s[1,4] + V4*I2 (x) s[2,5] + V4*I3 (x) s[3,6]'
    """
    central = special_element(dual_algebra(model), big_n)
    return TwistedElem(model, big_n, {_admissible(1, idempotent(model, w.init, big_n), w) for w in central.terms})


def cohomology_table(
    model: str,
    big_n: int,
    n_max: int,
    j_values: tuple[int, ...] = (-1, -2),
    trunc: Optional[int] = None,
) -> Iterator[dict]:
    """The cells of the cohomology table over 2 < n <= n_max, j in j_values,
    yielded one at a time as each is computed, n by n and j by j.

    A cell holds "model", "N", "n" and "j", then "dim" and "witnesses", the
    witness cocycles as TwistedElems (render them for their strings).  A cell
    whose slices need a coefficient power above `trunc` carries an "error"
    message in place of "dim" and "witnesses".
    """
    for n_deg in range(3, n_max + 1):
        for j in j_values:
            cell = {"model": model, "N": big_n, "n": n_deg, "j": j}
            try:
                cell["dim"], cell["witnesses"] = cohomology_dim(model, n_deg, j, big_n, trunc)
            except InsufficientTruncation as exc:
                cell["error"] = str(exc)
            yield cell


__all__ = [
    "InsufficientTruncation",
    "TwistedMono",
    "TwistedElem",
    "mono_sort_key",
    "twisted_diff",
    "slice_params",
    "slice_basis",
    "diff_matrix",
    "cohomology_dim",
    "is_coboundary",
    "witness_cocycle",
    "cohomology_table",
]
