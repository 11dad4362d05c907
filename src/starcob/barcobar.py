"""Dual tensor strings, their bar/cobar differentials, and the homotopy data.

A tensor string over one algebra is a chained tuple of duals of non-idempotent
basis words.  The cobar differential splits one factor into a product of two,
and the bar differential merges two adjacent factors.  A sum of strings
is a CobElem, a gf2la.F2Sum of TString terms, and each of these maps takes a
single string or a sum.

The letterwise dictionary (loop letters to loop letters, edge letters to edge
letters) induces a map phi from strings over one algebra to the other algebra
by multiplying the images of the factors in reverse order, and a reverse map
psi sending a basis word to the string of duals of its letters.  phi kills any
string with a factor of length > 1, phi composed with psi is the identity, and
homotopy_h certifies that psi composed with phi is homotopic to the identity:
delta H + H delta = id + psi phi on every chained string.

The maps run on interned ids.  `_WordTables` extends the `staralg.WordTable`
of one algebra, N and max_len with the dictionary, psi and the leading-block
rule as tables; a string is a tuple of non-idempotent ids.  The sweeps take
the table of their bound from `WordTable.held`, and the public maps any held
one that covers their input, so no map builds a table per string length.
phi lands in the table's `other`.  `TString` and `CobElem` are the validated
boundary of the string maps: each public map converts its input to ids,
runs the one table-driven implementation and builds its result through
them.  `homotopy_failure` (with `verify_homotopy`, its verdict) and
`phi_psi_failures` check on the ids directly, and `block_renderings`, the
`dump strings` listing, renders the strings of one table.

The Z/N rotation of the cyclic quiver, node i to node i+1, commutes with
every column the certificate reads (the product, the splits, the dictionary,
the leading-block rule and psi), so the two sides on a rotated string are the
rotated sides.  Rotation moves the node where a string's first factor is
entered, so the strings entered at node 1 are exactly one per rotation orbit,
and `homotopy_failure` checks only those: a failure anywhere has a rotated
copy among them.  The equivariance tests in tests/test_barcobar.py are what
make this sweep complete; a fault injected into the homotopy must be
rotation-invariant too, as `break-h` is, or the sweep can miss it.

Of those strings only the reduced ones are checked, 2L^2 of them at bound L
against about 3^L.  Write D(s) for the sum of the two sides on s, and
s = A.t.T, where A is the maximal leading block, t the next factor and T the
rest.  Then D(P.R) = D(P).R, where P = A.t, or P = A when s is all block, so
the certificate holds on every string of length <= L if and only if it holds
on the reduced strings, those with R empty.  The lemma rests on four facts:

- delta is a derivation over concatenation, and letters do not split;
- H is fixed by the last letter of A and by t, so H(A.t.delta T) =
  H(A.t).delta T, which cancels the splits of T in delta H(s);
- psi phi(s) is zero unless all of s is one block;
- no two-letter word splits into a letter c and its follower
  `block_next[c]`, so H of a split of t stays within A.t.

The last holds on A and B by type, and each table checks it when built.
Over A a letter's follower has the other type, U_i -> s_i -> U_{i+1}, while a
two-letter word has one, U_i U_i or s_i s_{i+1}; over B the follower keeps
the type, r_i -> r_i and s_i -> s_{i-1}, while a two-letter word alternates.
A block is then one path, fixed by its first letter and length, so at node 1
the reduced strings are the 2(L - 1) longer words alone and, for each of the
2L blocks A, of k letters, A and its 2(L - k) - 1 strings A.t when k < L:
2L^2 in all.  A failing string's reduced prefix fails too and is enumerated
before it, so the first failure is unchanged.  tests/test_barcobar.py checks
D(P.R) = D(P).R on every string up to length 8 under seeded corruptions of
the product and psi.  A fault injected into the homotopy must respect the
lemma as well, as `break-h` does, or the reduced sweep can miss it.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Optional, Union

from .gf2la import F2Sum, terms_of
from .ring import POLY_ONE, Frozen
from .staralg import (
    AlgElem,
    AWord,
    BWord,
    Word,
    WordTable,
    _check_node,
    dual_algebra,
    letter_slots,
    slot_letters,
    word_letters,
    word_slots,
    word_sort_key,
)


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


class TString(Frozen):
    """A chained tensor string of duals of non-idempotent basis words.

    >>> n = 3
    >>> TString((AWord("u", 1, 1, n), AWord("s", 1, 2, n))).render()
    'U1*.(s1s2)*'
    """

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple) -> None:
        # One pass: same algebra and N, no idempotent, and each factor chained
        # to the previous one (staralg.chain_ok, inlined: this runs per string).
        if not factors:
            raise ValueError("tensor strings have at least one factor")
        head = factors[0]
        cls, n = type(head), head.n
        prev = None
        for w in factors:
            if type(w) is not cls or w.n != n:
                raise ValueError("mixed factors in a tensor string")
            if w.kind == "i":
                raise ValueError("idempotent factors are excluded")
            if prev is not None and prev.exit != w.entry:
                raise ValueError(f"factors {prev.render()} and {w.render()} are not chained")
            prev = w
        object.__setattr__(self, "factors", factors)

    @property
    def algebra(self) -> str:
        return self.factors[0].algebra

    @property
    def n(self) -> int:
        return self.factors[0].n

    @property
    def total_ell(self) -> int:
        return sum(w.ell for w in self.factors)

    def render(self) -> str:
        return ".".join(_dual_factor_str(w) for w in self.factors)


def tstring_sort_key(ts: TString) -> tuple:
    return (ts.total_ell, len(ts.factors), tuple(word_sort_key(w) for w in ts.factors))


class CobElem(F2Sum):
    """A GF(2) combination of tensor strings over one algebra."""

    __slots__ = ()
    sort_key = staticmethod(tstring_sort_key)


class _WordTables(WordTable):
    """The word table of one algebra, N and length bound, with the columns
    the string maps read.

    A string is a tuple of non-idempotent ids.  Its letters are ids
    N..3N-1, its two-letter words 3N..5N-1, and `image` and `block_next`,
    the one letter that continues a's block, are indexed by id - N.  The
    differential walks every split of every factor, so `splits[a]` lists
    them, `split(a, k)` for k = 1..ell[a]-1.
    """

    def __init__(self, algebra: str, n: int, max_len: int):
        super().__init__(algebra, n, max_len)
        dual, two_n = dual_algebra(algebra), 2 * n
        # splits[a]: read off `mul`, which holds every split (c, d) backwards, at
        # a third of the cost of one `split` call per pair; into one flat list,
        # a's run from first[a] on at the length of c, so that the build holds
        # no list per word
        ell = self.ell
        first = list(accumulate((max(k - 1, 0) for k in ell), initial=0))
        flat = [None] * first[-1]
        for c in range(n, len(self.words)):
            k = ell[c] - 1
            for d, a in self.mul[c].items():
                if d >= n:
                    flat[first[a] + k] = (c, d)
        self.splits = [tuple(flat[first[a] : first[a + 1]]) for a in range(len(ell))]
        slots, at = letter_slots(algebra, n), slot_letters(algebra, n)
        # image[a - N]: the dictionary image of letter a, the letter at the same
        # slot, as an id of the other algebra
        dual_at = slot_letters(dual, n)
        self.image = [n + dual_at[k] for k in slots]
        # block_next[a - N]: the letter b that follows letter a in a leading
        # block, the one whose image composes: image(b) * image(a) != 0.  Over
        # B images that is the letter at the next slot (the run goes on); over
        # A images the U at the same slot, or for s_i the s_{i-1} two slots back
        if algebra == "A":
            follow = [(k + 1) % two_n for k in slots]
        else:
            follow = [k if k % 2 == 0 else (k - 2) % two_n for k in slots]
        self.block_next = [n + at[k] for k in follow]
        # psi[o]: the duals of the letters of the other algebra's word o, last
        # written first (empty on the idempotents, where psi is undefined)
        self.psi = [()] * n + [
            tuple(n + at[k] for k in reversed(word_slots(dual, n, ell, off)))
            for ell in range(1, max_len + 1)
            for off in range(two_n)
        ]
        self.check_block_premise()

    def check_block_premise(self) -> None:
        """Raise RuntimeError if the prefix lemma's premise fails on a word."""
        n, block_next = self.n, self.block_next
        for a in range(3 * n, min(5 * n, len(self.words))):  # the two-letter words
            for c, d in self.splits[a]:
                if d == block_next[c - n]:
                    raise RuntimeError(f"{self.words[a].render()} splits into a letter and its follower")

    def intern(self, ts: TString) -> tuple:
        return tuple(map(self.ids.__getitem__, ts.factors))

    def cob(self, strings: set) -> CobElem:
        """The sum of the id strings, built through the validated TString."""
        words = self.words
        return CobElem(self.algebra, self.n, (TString(tuple(words[a] for a in s)) for s in strings))

    def d_terms(self, s: tuple) -> Iterator[tuple]:
        """The cobar differential of s: each split of one factor into two."""
        for k, a in enumerate(s):
            for c, d in self.splits[a]:
                yield s[:k] + (c, d) + s[k + 1 :]

    def merge_terms(self, s: tuple) -> Iterator[tuple]:
        """The bar differential of s: each nonzero product of adjacent factors."""
        mul = self.mul
        for k in range(len(s) - 1):
            m = mul[s[k]].get(s[k + 1])
            if m is not None:
                yield s[:k] + (m,) + s[k + 2 :]

    def reduced_chains(self, budget: int, entry: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """The strings of `chains(budget, entry)` that are their own reduced
        prefix P (see the module docstring), in the same order.

        A first factor that is a letter starts a block, and a block grows
        only by its last letter's follower.  Any other factor ends P.
        """
        n, ell, exit_, by_entry, block_next = self.n, self.ell, self.exit, self.by_entry, self.block_next

        def grow(s: tuple, budget: int, node: int) -> Iterator[tuple]:
            # s is all leading block, or empty
            follow = block_next[s[-1] - n] if s else None
            for a in by_entry[node][1:]:  # past the bucket's idempotent
                if ell[a] > budget:
                    break
                sa = s + (a,)
                yield sa
                if a == follow or not s and ell[a] == 1:
                    yield from grow(sa, budget - 1, exit_[a])

        for i in range(1, n + 1) if entry is None else (entry,):
            yield from grow((), budget, i)

    def block_length(self, s: tuple, known: int = 1) -> int:
        """Length of the maximal leading block: single-letter factors whose
        consecutive images compose to nonzero products in the other algebra.
        The first `known` factors are taken to be a block when s[0] is a
        letter."""
        n = self.n
        if s[0] >= 3 * n:
            return 0
        block_next = self.block_next
        k = known
        while k < len(s) and s[k] == block_next[s[k - 1] - n]:
            k += 1
        return k

    def h_term(self, s: tuple, known: int = 1) -> Optional[tuple]:
        """The homotopy of s: the last leading-block factor merged into the
        first tail factor, or None for an empty block, no tail or a zero
        product.  `known` is as in block_length."""
        k = self.block_length(s, known)
        if k == 0 or k == len(s):
            return None
        m = self.mul[s[k - 1]].get(s[k])
        if m is None:
            return None
        return s[: k - 1] + (m,) + s[k + 1 :]

    def phi_word(self, s: tuple) -> Optional[int]:
        """phi of s: the product of the factor images in reverse order, as an
        id of `other`, or None when a factor is not a letter or it vanishes."""
        n = self.n
        if max(s) >= 3 * n:
            return None
        image, mul = self.image, self.other.mul
        acc: Optional[int] = image[s[-1] - n]
        for a in reversed(s[:-1]):
            acc = mul[acc].get(image[a - n])
            if acc is None:
                return None
        return acc

    def homotopy_sides(self, s: tuple, fault: Optional[tuple] = None) -> tuple[set, set]:
        """Both sides of the certificate on s: delta H + H delta, and id + psi
        phi; a fault (break-h, checked by `homotopy_failure`) zeroes H."""
        lhs: set = set()
        if fault is None:
            block = self.block_length(s)
            h = self.h_term(s, block)
            if h is not None:
                for t in self.d_terms(h):
                    lhs ^= {t}
            h_term, splits = self.h_term, self.splits
            for k, a in enumerate(s):
                if not splits[a]:
                    continue
                # a split of factor k keeps the block s[:min(k, block)]
                known, head, tail = max(min(k, block), 1), s[:k], s[k + 1 :]
                for c, d in splits[a]:
                    h = h_term(head + (c, d) + tail, known)
                    if h is not None:
                        lhs ^= {h}
        rhs = {s}
        p = self.phi_word(s)
        if p is not None:
            rhs ^= {self.psi[p]}
        return lhs, rhs

    def phi_psi_failures(self) -> list[Word]:
        """The non-idempotent words o of `other` with phi(psi(o)) != o."""
        other = self.other
        return [other.words[o] for o in range(self.n, len(other.words)) if self.phi_word(self.psi[o]) != o]


def _tables_for(x: Union[CobElem, TString]) -> tuple[_WordTables, list[tuple]]:
    """Tables that cover every term of x, and the terms as id strings."""
    terms = list(terms_of(x))
    tables = _WordTables.held(x.algebra, x.n, max((ts.total_ell for ts in terms), default=0), covering=True)
    return tables, [tables.intern(ts) for ts in terms]


def _linear(x: Union[CobElem, TString], terms) -> CobElem:
    """The GF(2) sum over x's strings s of the id strings `terms(tables, s)`
    yields: the linear map that sends a string to those terms."""
    tables, strings = _tables_for(x)
    out: set = set()
    for s in strings:
        for t in terms(tables, s):
            out ^= {t}
    return tables.cob(out)


def cobar_diff(x: Union[CobElem, TString]) -> CobElem:
    """Split one factor into a product of two non-idempotent duals.

    >>> n = 3
    >>> cobar_diff(TString((AWord("s", 1, 2, n),))).render()
    's1*.s2*'
    >>> cobar_diff(TString((AWord("u", 1, 1, n),))).render()
    '0'
    """
    return _linear(x, _WordTables.d_terms)


def bar_diff(x: Union[CobElem, TString]) -> CobElem:
    """Merge two adjacent factors under the word product."""
    return _linear(x, _WordTables.merge_terms)


def phi(x: Union[CobElem, TString]) -> AlgElem:
    """Fold a string into the other algebra, multiplying factor images in
    reverse order; strings with a factor of length > 1 map to zero.

    >>> n = 3
    >>> phi(TString((AWord("u", 1, 1, n), AWord("s", 1, 1, n)))).render()
    'r1.s1'
    """
    tables, strings = _tables_for(x)
    words = tables.other.words
    images = (tables.phi_word(s) for s in strings)
    return AlgElem.from_pairs(dual_algebra(x.algebra), x.n, ((0, words[p]) for p in images if p is not None))


def psi(b: Union[AlgElem, Word]) -> CobElem:
    """Dual string of a basis word: duals of its letters, factor order
    reversed against the written order, valued over the other algebra.

    >>> n = 3
    >>> psi(BWord("c", 1, "r", 2, n)).render()
    'U1*.s1*'
    """
    if not isinstance(b, AlgElem):
        b = AlgElem.from_word(b)
    for word, coeff in b.terms.items():
        if word.is_idempotent():
            raise ValueError("psi is undefined on idempotents")
        if coeff != POLY_ONE:
            raise ValueError("psi acts on GF(2) combinations of words")
    tables = _WordTables.held(dual_algebra(b.algebra), b.n, max((w.ell for w in b.terms), default=0), covering=True)
    ids = tables.other.ids
    # distinct words have distinct letters, so their psi strings do not cancel
    return tables.cob({tables.psi[ids[word]] for word in b.terms})


def homotopy_h(x: Union[CobElem, TString]) -> CobElem:
    """Merge the last leading-block factor into the first tail factor.

    Zero on strings with an empty leading block, with no tail, or whose merge
    product vanishes.

    >>> n = 3
    >>> homotopy_h(TString((AWord("u", 1, 1, n), AWord("u", 1, 1, n)))).render()
    '(U1^2)*'
    >>> homotopy_h(TString((AWord("u", 1, 1, n), AWord("s", 1, 1, n)))).render()
    '0'
    """
    return _linear(x, lambda tables, s: filter(None, [tables.h_term(s)]))


def enumerate_strings(
    algebra: str, max_total_len: int, n: int, entry: Optional[int] = None, reduced: bool = False
) -> Iterator[TString]:
    """All chained tensor strings with total length <= max_total_len, or only
    those whose first factor is entered at node `entry`.  The strings entered
    at node 1 come first, then node 2, and so on.  With `reduced`, only the
    reduced strings (see the module docstring), in the same order.  An
    entry outside 1..N raises ValueError."""
    if entry is not None:
        _check_node(entry, n)
    tables = _WordTables.held(algebra, n, max_total_len, covering=True)
    strings = tables.reduced_chains if reduced else tables.chains
    for s in strings(max_total_len, entry):
        yield TString(tuple(map(tables.words.__getitem__, s)))


def block_renderings(algebra: str, max_total_len: int, n: int) -> list[str]:
    """Every chained string with total length <= max_total_len, rendered
    with its leading block split off by '|', sorted by total length, then
    number of factors, then rendering.

    >>> block_renderings("A", 2, 3)[:4]
    ['U1*|', 'U2*|', 'U3*|', 's1*|']
    """
    tables = _WordTables.held(algebra, n, max_total_len, covering=True)
    ell, words = tables.ell, tables.words
    dual = [""] * n + [_dual_factor_str(words[a]) for a in range(n, len(words))]
    keyed = []
    for s in tables.chains(max_total_len):
        parts = [dual[a] for a in s]
        k = tables.block_length(s)
        block = ".".join(parts[:k]) + "|" + ".".join(parts[k:])
        # a rendering names its string, so the last field never breaks a tie
        keyed.append((sum(map(ell.__getitem__, s)), len(s), ".".join(parts), block))
    keyed.sort()
    return [key[-1] for key in keyed]


def _sweep_tables(base: str, n: int, max_total_len: int) -> _WordTables:
    """The tables of a sweep's window, which must hold a string."""
    if n <= 2:
        raise ValueError(f"the construction needs N > 2, got N={n}")
    if max_total_len < 1:
        raise ValueError(f"a bound of {max_total_len} holds no string: the sweep needs a bound >= 1")
    return _WordTables.held(base, n, max_total_len)


def homotopy_failure(
    max_total_len: int,
    n: int,
    base: str = "A",
    fault: Optional[tuple] = None,
) -> Optional[dict]:
    """The first chained string over `base` with total length within the
    bound on which delta H + H delta != id + psi phi, with both sides
    rendered, or None when the certificate holds on every string.

    The sweep is serial and checks only the reduced strings entered at node
    1, 2L^2 of them at bound L (see the module docstring): one string per
    rotation orbit, and of those only the ones that are their own reduced
    prefix.  A failing string's reduced prefix fails too and comes no later
    in `enumerate_strings` order, where the node-1 strings come first, so
    the first failure is the one a sweep over every string would meet first.

    The one fault spec, ("break-h",), zeroes the homotopy.

    >>> homotopy_failure(2, 3, "A", ("break-h",))
    {'string': 'U1*.U1*', 'lhs-sum': '0', 'rhs-sum': 'U1*.U1*'}
    """
    if fault not in (None, ("break-h",)):
        raise ValueError(f"fault {fault!r} cannot be injected into the homotopy")
    tables = _sweep_tables(base, n, max_total_len)
    for ts in enumerate_strings(base, max_total_len, n, 1, reduced=True):
        lhs, rhs = tables.homotopy_sides(tables.intern(ts), fault)
        if lhs != rhs:
            return {"string": ts.render(), "lhs-sum": tables.cob(lhs).render(), "rhs-sum": tables.cob(rhs).render()}
    return None


def verify_homotopy(
    max_total_len: int,
    n: int,
    base: str = "A",
    fault: Optional[tuple] = None,
) -> bool:
    """Whether delta H + H delta = id + psi phi on every chained string over
    `base` with total length within the bound: `homotopy_failure` finds none
    that fails."""
    return homotopy_failure(max_total_len, n, base, fault) is None


def phi_psi_failures(max_total_len: int, n: int, base: str = "A") -> list[Word]:
    """The non-idempotent words w of the algebra dual to `base`, with length
    within the bound, on which phi(psi(w)) != w, in basis order."""
    return _sweep_tables(base, n, max_total_len).phi_psi_failures()


__all__ = [
    "TString",
    "CobElem",
    "tstring_sort_key",
    "cobar_diff",
    "bar_diff",
    "phi",
    "psi",
    "homotopy_h",
    "enumerate_strings",
    "block_renderings",
    "homotopy_failure",
    "verify_homotopy",
    "phi_psi_failures",
]
