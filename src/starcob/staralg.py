"""Two dual path algebras on a cyclic quiver with N nodes, over GF(2).

Algebra A carries, at each node i in 1..N, an idempotent I_i, a loop generator
U_i, and an edge generator s_i from node i to node i+1 (indices mod N).  Basis
words are U-powers U_i^e and s-chains s_i s_{i+1} ... (any length, wrapping
allowed); mixed U/s products vanish.  Words compose left-to-right as paths, and
coefficients live in GF(2)[V0].

Algebra B carries, at each node i, an idempotent I_i, a loop letter r_i, and an
edge letter s_i from i to i+1; words are alternating strings of r/s letters
applied right-to-left (the written word x*y applies y first), and two adjacent
letters of the same type multiply to zero.  Coefficients live in GF(2)[V_{N+1}].
A B-word is one run of weight slots (r_i at slot 2i-2, s_i at 2i-1, the next
letter at the next slot mod 2N), and `BWord.first_slot` with the length is its
one description: letters, endpoints, products, splits and gradings read it.

Chaining: every tuple the package checks (the inputs of an operation, the
factors of a dual tensor string) is a tensor product over the idempotents, so
its neighbouring words must meet at a node.  A-words chain left to right
(prev.fin == next.init) and B-words right to left (prev.init == next.fin).
Each word stores the node where a chain enters it (`entry`) and leaves it
(`exit`): init/fin for A, fin/init for B.  So one rule, prev.exit ==
next.entry, decides chaining in both algebras (`chain_ok`).  `WordTable`
interns the words up to a length bound as ids, with their product table, the
arithmetic of their splits and the chained id tuples; the ainfty and barcobar
kernels extend it, and `WordTable.held` is the one cache of their tables.

Gradings: an integer Maslov degree m (0 on A-words, minus the length on
B-words), a weight vector of length 2N counting each loop/edge letter (loop
letters at even slots 2i-2, edge letters at odd slots 2i-1), and the total
length.  The coefficient variables are graded too: V0 has m = 2N-2 and full
weight vector, V_{N+1} has m = -2 and the edge half; their lengths are
`higher_arity`.

Renderings are printable ASCII with no '"' and no '\\': a word renders from
letters, digits and `[,]^.` (I1, U2^3, s[1,4], r1.s1), a coefficient from
`V`, digits and `^` (ring.mono_str), and the terms built on them add only
`*`, `(x)`, spaces, `.`, `|` and parentheses (hochschild.TwistedMono,
barcobar.TString).  So the report writer puts a term into a JSON string as
it is (cli._JsonWriter.f2sum); tests/test_cli.py renders every kind.
"""
from __future__ import annotations

import functools
from itertools import cycle, islice, repeat
from operator import mul
from typing import Iterable, Iterator, Optional, Union

from .ring import POLY_ONE, Frozen, Monomial, Poly, poly_monos, poly_mul, poly_str

ALGEBRAS = ("A", "B")


def _check_node(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} out of range 1..{n}")


def advance(i: int, steps: int, n: int) -> int:
    """The node `steps` edges after node i on the N-cycle (negative steps go back)."""
    return (i - 1 + steps) % n + 1


_set = object.__setattr__


class AWord(Frozen):
    """A basis word of algebra A: an idempotent, a U-power, or an s-chain.

    kind is "i" (idempotent I_start), "u" (U_start^length), or
    "s" (s_start s_{start+1} ... , `length` letters).

    >>> AWord("s", 2, 3, 3).render()
    's[2,5]'
    >>> AWord("u", 1, 2, 3).fin
    1
    """

    __slots__ = ("kind", "start", "length", "n", "entry", "exit")
    _fields = ("kind", "start", "length", "n")

    def __init__(self, kind: str, start: int, length: int, n: int) -> None:
        _check_node(start, n)
        if kind == "i":
            if length != 0:
                raise ValueError("idempotents have length 0")
        elif kind in ("u", "s"):
            if length < 1:
                raise ValueError("U-powers and s-chains need length >= 1")
        else:
            raise ValueError(f"unknown A-word kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "start", start)
        _set(self, "length", length)
        _set(self, "n", n)
        _set(self, "entry", start)
        _set(self, "exit", advance(start, length, n) if kind == "s" else start)

    @property
    def algebra(self) -> str:
        return "A"

    @property
    def ell(self) -> int:
        return self.length

    @property
    def init(self) -> int:
        return self.start

    @property
    def fin(self) -> int:
        return self.exit

    @property
    def first_slot(self) -> int:
        """The weight slot of the first written letter (2i-2 for U_i and for
        I_i, 2i-1 for s_i), as `BWord.first_slot` is for the first applied."""
        return 2 * self.start - (1 if self.kind == "s" else 2)

    def is_idempotent(self) -> bool:
        return self.kind == "i"

    def render(self) -> str:
        if self.kind == "i":
            return f"I{self.start}"
        if self.kind == "u":
            return f"U{self.start}" if self.length == 1 else f"U{self.start}^{self.length}"
        return f"s[{self.start},{self.start + self.length}]"


class BWord(Frozen):
    """A basis word of algebra B: an idempotent or an alternating r/s chain.

    kind is "i" or "c"; `start` is the initial node of the path, `first` the
    type ("r" or "s") of the first-applied letter, `length` the letter count.
    Letters are listed in application order (first-applied first); the written
    word runs in the opposite order.

    The letters are the run of `length` weight slots from `first_slot`
    (2i-2 for r_i and for I_i, 2i-1 for s_i), mod 2N.

    >>> BWord("c", 1, "r", 3, 3).render()
    'r1.s1.r2'
    >>> BWord("c", 1, "r", 3, 3).fin
    2
    """

    __slots__ = ("kind", "start", "first", "length", "n", "first_slot", "entry", "exit")
    _fields = ("kind", "start", "first", "length", "n")

    def __init__(self, kind: str, start: int, first: str, length: int, n: int) -> None:
        _check_node(start, n)
        if kind == "i":
            if length != 0 or first != "":
                raise ValueError("idempotents have length 0 and no letters")
        elif kind == "c":
            if length < 1:
                raise ValueError("chains need length >= 1")
            if first not in ("r", "s"):
                raise ValueError("first letter type must be 'r' or 's'")
        else:
            raise ValueError(f"unknown B-word kind {kind!r}")
        first_slot = 2 * start - (1 if first == "s" else 2)
        _set(self, "kind", kind)
        _set(self, "start", start)
        _set(self, "first", first)
        _set(self, "length", length)
        _set(self, "n", n)
        _set(self, "first_slot", first_slot)
        # the path ends at the node of the slot right after the run
        _set(self, "entry", _slot_node(first_slot + length, n))
        _set(self, "exit", start)

    @property
    def algebra(self) -> str:
        return "B"

    @property
    def ell(self) -> int:
        return self.length

    @property
    def init(self) -> int:
        return self.start

    @property
    def fin(self) -> int:
        return self.entry

    def is_idempotent(self) -> bool:
        return self.kind == "i"

    def letters(self) -> list[tuple[str, int]]:
        """Letters as (type, node) pairs in application order."""
        run, n = range(self.first_slot, self.first_slot + self.length), self.n
        return [("rs"[k % 2], k // 2 % n + 1) for k in run]

    def render(self) -> str:
        if self.kind == "i":
            return f"I{self.start}"
        # the names of the run of slots, read round the cycle of 2N
        return ".".join(islice(cycle(_slot_names(self.n)), self.first_slot, self.first_slot + self.length))


@functools.lru_cache(maxsize=8)
def _slot_names(n: int) -> tuple[str, ...]:
    """The name of the B-letter at each weight slot: r1, s1, r2, ..., sN."""
    return tuple(f"{'rs'[k % 2]}{k // 2 + 1}" for k in range(2 * n))


def _slot_node(slot: int, n: int) -> int:
    """The node of a weight slot (any integer, read mod 2N)."""
    return slot // 2 % n + 1


Word = Union[AWord, BWord]


def dual_algebra(algebra: str) -> str:
    """The other algebra of the dual pair."""
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}")
    return "B" if algebra == "A" else "A"


def idempotent(algebra: str, i: int, n: int) -> Word:
    if algebra == "A":
        return AWord("i", i, 0, n)
    if algebra == "B":
        return BWord("i", i, "", 0, n)
    raise ValueError(f"unknown algebra {algebra!r}")


def letter(algebra: str, typ: str, i: int, n: int) -> Word:
    """The length-1 generator of the given type ('u'/'s' for A, 'r'/'s' for B)."""
    if algebra == "A":
        if typ not in ("u", "s"):
            raise ValueError("A-letters are 'u' or 's'")
        return AWord(typ, i, 1, n)
    if algebra == "B":
        return BWord("c", i, typ, 1, n)
    raise ValueError(f"unknown algebra {algebra!r}")


def mul_word(x: Word, y: Word) -> Optional[Word]:
    """The product x*y of two basis words of one algebra (y applied first
    in B), or None when it vanishes.

    A product vanishes unless the words chain, x.exit == y.entry (see
    `chain_ok`), and with an idempotent that is the whole test.  Two chained
    A-words multiply when they are of one kind, and a B-word x continues y
    when its run of slots starts at the slot after y's.
    """
    if type(x) is not type(y):
        raise ValueError("cannot multiply words of different algebras")
    n = x.n
    if y.n != n:
        raise ValueError("mixed parameters")
    if x.exit != y.entry:
        return None
    if x.kind == "i":
        return y
    if y.kind == "i":
        return x
    if type(x) is AWord:
        return AWord(x.kind, x.start, x.length + y.length, n) if x.kind == y.kind else None
    if (y.first_slot + y.length - x.first_slot) % (2 * n):
        return None  # x's run of slots does not continue y's
    return BWord("c", y.start, y.first, x.length + y.length, n)


def letter_slots(algebra: str, n: int) -> list[int]:
    """The weight slot of each letter, by its `WordTable` offset (id - N):
    U_i and r_i at slot 2i-2, s_i at 2i-1.

    >>> letter_slots("A", 3)
    [0, 2, 4, 1, 3, 5]
    """
    return [word_slots(algebra, n, 1, o)[0] for o in range(2 * n)]


def slot_letters(algebra: str, n: int) -> list[int]:
    """The `WordTable` offset of the letter at each weight slot (the inverse
    of letter_slots)."""
    slots = letter_slots(algebra, n)
    return sorted(range(2 * n), key=slots.__getitem__)


def word_slots(algebra: str, n: int, ell: int, off: int) -> list[int]:
    """The weight slots of the letters of the `WordTable` word of length
    ell >= 1 at offset off, in written order: one slot for a U-power, every
    other slot for an s-chain, and a B-word's run of slots backwards.

    >>> word_slots("A", 3, 2, 3 + 2), word_slots("B", 3, 2, 5)
    ([5, 1], [0, 5])
    """
    if algebra == "B":
        return [(off + k) % (2 * n) for k in reversed(range(ell))]
    if off < n:
        return [2 * off] * ell
    return [(2 * (off - n + k) + 1) % (2 * n) for k in range(ell)]


def word_letters(w: Word) -> list[Word]:
    """Single-letter factors of a word, in written (composition) order."""
    if isinstance(w, AWord):
        if w.kind == "u":
            return [AWord("u", w.start, 1, w.n)] * w.length
        return [AWord("s", advance(w.start, k, w.n), 1, w.n) for k in range(w.length)]
    return [BWord("c", i, t, 1, w.n) for t, i in reversed(w.letters())]


class Grading(Frozen):
    """Maslov degree, weight vector of length 2N, and total length."""

    __slots__ = _fields = ("m", "alexander", "ell")

    def __init__(self, m: int, alexander: tuple, ell: int) -> None:
        _set(self, "m", m)
        _set(self, "alexander", alexander)
        _set(self, "ell", ell)

    def __add__(self, other: "Grading") -> "Grading":
        return Grading(
            self.m + other.m,
            tuple(a + b for a, b in zip(self.alexander, other.alexander, strict=True)),
            self.ell + other.ell,
        )


def coeff_var(algebra: str, n: int) -> int:
    """The coefficient variable index carried by each algebra (V0 or V_{N+1})."""
    if algebra == "A":
        return 0
    if algebra == "B":
        return n + 1
    raise ValueError(f"unknown algebra {algebra!r}")


def higher_arity(algebra: str, n: int) -> int:
    """The length h of the algebra's coefficient variable V: 2N for A, N for
    B.  The algebra's one higher operation is mu_h, and the grading admits
    the arities k(h-2)+2."""
    if algebra == "A":
        return 2 * n
    if algebra == "B":
        return n
    raise ValueError(f"unknown algebra {algebra!r}")


def var_grading(var: int, n: int) -> Grading:
    """Grading of a coefficient variable.

    V0 has m = 2N-2 and weight (1,...,1); V_{N+1} has m = -2 and the edge-slot
    half of the weight vector.  The remaining variables annihilate both
    algebras and carry no grading.
    """
    if var == 0:
        return Grading(2 * n - 2, (1,) * (2 * n), 2 * n)
    if var == n + 1:
        return Grading(-2, (0, 1) * n, n)
    raise ValueError(f"variable V{var} is not graded (it annihilates both algebras)")


def mono_grading(exp: Monomial, algebra: str, n: int) -> Grading:
    """Grading of the coefficient monomial V^exp in the algebra's own variable."""
    g = var_grading(coeff_var(algebra, n), n)
    return Grading(exp * g.m, tuple(map(mul, g.alexander, repeat(exp))), exp * g.ell)


def grading(w: Word) -> Grading:
    """Grading of a basis word.

    The letters of an s-chain (A) or an r/s chain (B) occupy consecutive
    edge slots (A) or consecutive slots (B) of the weight vector, cyclically
    from the slot of the first letter, so the vector is read off in closed
    form from the first slot and the length, without walking the word.

    >>> grading(AWord("u", 1, 2, 3))
    Grading(m=0, alexander=(2, 0, 0, 0, 0, 0), ell=2)
    >>> grading(BWord("c", 1, "s", 1, 3)).m
    -1
    """
    if isinstance(w, AWord):
        vec = [0] * (2 * w.n)
        if w.kind == "u":
            vec[2 * w.start - 2] = w.length
        elif w.kind == "s":
            vec[1::2] = _laid_round(w.n, w.start - 1, w.length)
        return Grading(0, tuple(vec), w.length)
    return Grading(-w.length, tuple(_laid_round(2 * w.n, w.first_slot, w.length)), w.length)


def _laid_round(slots: int, first: int, count: int) -> list[int]:
    """Per-slot counts of `count` letters laid one per slot around a cycle of
    `slots` slots, starting at slot `first`: count // slots everywhere, plus 1
    on the count % slots slots from `first` on."""
    q, rem = divmod(count, slots)
    counts = [q + 1] * rem + [q] * (slots - rem)
    return counts[slots - first:] + counts[: slots - first]


def word_sort_key(w: Word) -> tuple:
    kind_rank = {"i": 0, "u": 1, "s": 2, "c": 1}
    first_rank = {"": 0, "r": 0, "s": 1}
    if isinstance(w, AWord):
        return (w.ell, kind_rank[w.kind], w.start, 0)
    return (w.ell, kind_rank[w.kind], w.start, first_rank[w.first])


class AlgElem:
    """A finite GF(2)[V]-combination of basis words of one algebra.

    Terms map basis words to nonzero polynomials (int bitmasks, see ring) in
    the algebra's own coefficient variable: V0 for A, V_{N+1} for B.
    """

    __slots__ = ("algebra", "n", "terms")

    def __init__(self, algebra: str, n: int, terms: Optional[dict] = None):
        if algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra {algebra!r}")
        self.algebra = algebra
        self.n = n
        self.terms: dict[Word, Poly] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff < 0:
                    raise ValueError("coefficients are nonnegative bitmasks")
                self._accumulate(word, coeff)

    def _accumulate(self, word: Word, coeff: Poly) -> None:
        if word.algebra != self.algebra or word.n != self.n:
            raise ValueError("word does not belong to this algebra")
        new = self.terms.get(word, 0) ^ coeff
        if new:
            self.terms[word] = new
        else:
            self.terms.pop(word, None)

    @classmethod
    def zero(cls, algebra: str, n: int) -> "AlgElem":
        return cls(algebra, n)

    @classmethod
    def from_word(cls, word: Word, coeff: Poly = POLY_ONE) -> "AlgElem":
        return cls(word.algebra, word.n, {word: coeff})

    @classmethod
    def from_pairs(cls, algebra: str, n: int, pairs: Iterable[tuple[Monomial, Word]]) -> "AlgElem":
        out = cls(algebra, n)
        for exp, word in pairs:
            out._accumulate(word, 1 << exp)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgElem):
            return NotImplemented
        return (self.algebra, self.n, self.terms) == (other.algebra, other.n, other.terms)

    def __hash__(self) -> int:
        return hash((self.algebra, self.n, frozenset(self.terms.items())))

    def __add__(self, other: "AlgElem") -> "AlgElem":
        if (self.algebra, self.n) != (other.algebra, other.n):
            raise ValueError("cannot add elements of different algebras")
        out = AlgElem(self.algebra, self.n, dict(self.terms))
        for word, coeff in other.terms.items():
            out._accumulate(word, coeff)
        return out

    def mul(self, other: "AlgElem") -> "AlgElem":
        if (self.algebra, self.n) != (other.algebra, other.n):
            raise ValueError("cannot multiply elements of different algebras")
        out = AlgElem(self.algebra, self.n)
        for wx, cx in self.terms.items():
            for wy, cy in other.terms.items():
                word = mul_word(wx, wy)
                if word is not None:
                    out._accumulate(word, poly_mul(cx, cy))
        return out

    def monomial_pairs(self) -> list[tuple[Monomial, Word]]:
        """All (coefficient exponent, word) pairs, canonically ordered."""
        out = [(e, word) for word, coeff in self.terms.items() for e in poly_monos(coeff)]
        out.sort(key=lambda p: (word_sort_key(p[1]), p[0]))
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        var = coeff_var(self.algebra, self.n)
        parts = []
        for word in sorted(self.terms, key=word_sort_key):
            coeff = self.terms[word]
            cs = poly_str(coeff, var)
            if cs == "1":
                parts.append(word.render())
            elif coeff.bit_count() == 1:
                parts.append(f"{cs}*{word.render()}")
            else:
                parts.append(f"({cs})*{word.render()}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AlgElem({self.algebra!r}, {self.n}, {self.render()!r})"


def _as_elem(x: Union[AlgElem, Word]) -> AlgElem:
    if isinstance(x, AlgElem):
        return x
    return AlgElem.from_word(x)


def mul_a(x: Union[AlgElem, AWord], y: Union[AlgElem, AWord]) -> AlgElem:
    """Bilinear product in algebra A.

    >>> n = 3
    >>> mul_a(AWord("s", 1, 1, n), AWord("s", 2, 1, n)).render()
    's[1,3]'
    >>> mul_a(AWord("u", 1, 1, n), AWord("s", 1, 1, n)).render()
    '0'
    """
    ex, ey = _as_elem(x), _as_elem(y)
    if ex.algebra != "A" or ey.algebra != "A":
        raise ValueError("mul_a expects A-elements")
    return ex.mul(ey)


def mul_b(x: Union[AlgElem, BWord], y: Union[AlgElem, BWord]) -> AlgElem:
    """Bilinear product in algebra B (the right factor is applied first).

    >>> n = 3
    >>> mul_b(BWord("c", 2, "r", 1, n), BWord("c", 1, "s", 1, n)).render()
    's1.r2'
    >>> mul_b(BWord("c", 1, "s", 1, n), BWord("c", 2, "s", 1, n)).render()
    '0'
    """
    ex, ey = _as_elem(x), _as_elem(y)
    if ex.algebra != "B" or ey.algebra != "B":
        raise ValueError("mul_b expects B-elements")
    return ex.mul(ey)


def words_of_length(algebra: str, ell: int, n: int) -> list[Word]:
    """All basis words of length ell (the N idempotents for ell = 0), canonically ordered."""
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}")
    if ell == 0:
        return [idempotent(algebra, i, n) for i in range(1, n + 1)]
    if algebra == "A":
        return [AWord(kind, i, ell, n) for kind in ("u", "s") for i in range(1, n + 1)]
    return [BWord("c", i, first, ell, n) for i in range(1, n + 1) for first in ("r", "s")]


def enumerate_basis(algebra: str, max_len: int, n: int) -> list[Word]:
    """All basis words with length <= max_len, canonically ordered.

    >>> [w.render() for w in enumerate_basis("A", 1, 3)]
    ['I1', 'I2', 'I3', 'U1', 'U2', 'U3', 's[1,2]', 's[2,3]', 's[3,4]']
    """
    return [w for ell in range(max_len + 1) for w in words_of_length(algebra, ell, n)]


def chain_ok(prev: Word, nxt: Word) -> bool:
    """Whether `nxt` may follow `prev` in a chained tuple (of either algebra)."""
    return prev.exit == nxt.entry


class WordTable:
    """The basis words of one algebra and N with length <= max_len, interned
    as small ints, with the product table and split arithmetic both id
    kernels share.

    Ids are canonical (`enumerate_basis` order): the N idempotents are ids
    0..N-1 (I_i at i-1), and the word of length l >= 1 at offset o in
    0..2N-1 has id N + 2N(l-1) + o, so the 2N letters are ids N..3N-1.  In
    A the offset is i-1 for U_i^l and N+i-1 for the s-chain from node i; in
    B it is the word's first weight slot.  `by_entry` buckets the ids by
    entry node in id order, so each bucket starts with its idempotent and
    ascends in length.

    The splits are integer arithmetic on (l, o), with no word built.  A word
    (l, o) is continued by the words at offset `continuation(l, o)`: o for a
    U-power, N + (o-N+l) mod N for an s-chain (the chain from its end node),
    and (o+l) mod 2N in B (the slot after its run); `conts[o][l]` holds it
    for every l below max_len.  So (l, o) splits at each 0 < k < l into the
    parts (k, o) and (l-k, continuation(k, o)): the head and the tail in A,
    the first-applied and the later part in B.  `split(a, k)` gives the one
    whose written-first factor has k letters, as (c, d) with a = c*d, in
    both algebras.  The product is one source with it: `mul` is the units
    and every split read backwards, filled by the same arithmetic.

    >>> table = WordTable("A", 3, 4)
    >>> s = table.word_id(2, 3 + 1)  # s_2 s_3, offset N + 2 - 1
    >>> table.words[s].render(), table.continuation(2, 3 + 1), table.conts[3 + 1][2]
    ('s[2,4]', 3, 3)
    >>> [table.words[c].render() for c in table.split(s, 1)]
    ['s[2,3]', 's[3,4]']
    >>> table.words[table.mul[s][table.word_id(1, 3)]].render()
    's[2,5]'
    >>> table = WordTable("B", 3, 3)  # r1 s1 r2 below, from the slot of r1
    >>> [[table.words[c].render() for c in table.split(table.word_id(3, 0), k)] for k in (1, 2)]
    [['r2', 'r1.s1'], ['s1.r2', 'r1']]
    >>> table = WordTable("B", 3, 1)
    >>> [[table.words[a].render() for a in t] for t in table.chains(2, entry=2)]
    [['s1'], ['s1', 'r1'], ['s1', 's3'], ['r2'], ['r2', 's1'], ['r2', 'r2']]
    """

    _held: Optional["WordTable"] = None  # per class, the last table `held` built

    @classmethod
    def held(cls, algebra: str, n: int, max_len: int, covering: bool = False) -> "WordTable":
        """The table of this class for one (algebra, N, max_len), built on
        first use.  Each class holds the last table built here, handing out
        its `other` too, and lets both go before it builds another (`verify
        grading` frees A's op table before it builds B's).  A sweep asks for
        its exact bound, its window; with `covering`, a call on words or
        strings of total length within max_len takes a held table of a larger
        bound, which gives the same ids, products, splits and windows.
        """
        last = cls.__dict__.get("_held")
        pair = last and vars(last).get("other")
        for table in (last, pair):
            if table is not None and (table.algebra, table.n) == (algebra, n):
                if table.max_len >= max_len if covering else table.max_len == max_len:
                    return table
        if pair is not None:  # unlink the pair, so that refcounting frees it now
            del vars(last)["other"], vars(pair)["other"]
        last = table = pair = cls._held = None  # no reference left while the new one is built
        cls._held = cls(algebra, n, max_len)
        return cls._held

    @functools.cached_property
    def other(self) -> "WordTable":
        """The dual algebra's table of this class at the same N and bound,
        linked back to this one."""
        other = type(self)(dual_algebra(self.algebra), self.n, self.max_len)
        other.other = self
        return other

    def __init__(self, algebra: str, n: int, max_len: int):
        self.algebra = algebra
        self.n = n
        self.max_len = max_len
        words = self.words = enumerate_basis(algebra, max_len, n)
        self.ids = {w: a for a, w in enumerate(words)}
        self.ell = [w.ell for w in words]
        self.entry = [w.entry for w in words]
        self.exit = [w.exit for w in words]
        self.by_entry = {i: [a for a, e in enumerate(self.entry) if e == i] for i in range(1, n + 1)}
        # mul[a][b]: the id of a*b, for the nonzero products of length <= max_len,
        # in id order of b: the units, then each split read backwards, by product
        mul = self.mul = [{b: b for b in self.by_entry[i]} for i in range(1, n + 1)]
        mul += ({self.exit[a] - 1: a} for a in range(n, len(words)))
        is_a, step = algebra == "A", 2 * n
        conts = self.conts = [[self.continuation(k, o) for k in range(max_len)] for o in range(step)]
        for ell in range(2, max_len + 1):
            for o, cont in enumerate(conts):
                a = self.word_id(ell, o)
                for k in range(1, ell):
                    # the parts (k, o) and (ell - k, cont[k]), which sit step * (ell - k)
                    # and step * k ids below a, at their offsets; B's written-first
                    # factor is the later part
                    head, tail = a - step * (ell - k), a - step * k + cont[k] - o
                    if is_a:
                        mul[head][tail] = a
                    else:
                        mul[tail][head] = a

    def split(self, a: int, k: int) -> tuple[int, int]:
        """The factorization (c, d) of the word a = c*d whose written-first
        factor c has k letters, 0 < k < ell[a]."""
        step = 2 * self.n
        ell, o = divmod(a - self.n, step)
        ell += 1
        if self.algebra == "A":
            return a - step * (ell - k), a - step * k + self.conts[o][k] - o
        # c is the later part, which continues the first-applied part (ell - k, o)
        return a - step * (ell - k) + self.conts[o][ell - k] - o, a - step * k

    def word_id(self, ell: int, off: int) -> int:
        """The id of the word of length ell >= 1 at offset off."""
        return self.n * (2 * ell - 1) + off

    def continuation(self, ell: int, off: int) -> int:
        """The offset of the words that continue the word (ell, off): those
        that follow it in a chained tuple (A) or are applied after it (B)
        with a nonzero product."""
        n = self.n
        if self.algebra == "B":
            return (off + ell) % (2 * n)
        return off if off < n else n + (off - n + ell) % n

    def chains(self, budget: int, entry: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """Chained tuples of non-idempotent ids of every arity >= 1 and total
        length <= budget, whose first word is entered at `entry` (any node if
        None), each right before its extensions."""
        ell = self.ell
        for i in range(1, self.n + 1) if entry is None else (entry,):
            for a in self.by_entry[i][1:]:  # past the bucket's idempotent
                if ell[a] > budget:
                    break
                yield (a,)
                for rest in self.chains(budget - ell[a], self.exit[a]):
                    yield (a,) + rest


def special_element(algebra: str, n: int) -> AlgElem:
    """The algebra's central element: U{N+1}, the sum of A's N full s-cycles,
    or U0, the sum of B's 2N alternating length-2N loops (r- and s-first at
    each node).

    >>> special_element("A", 3).render()
    's[1,4] + s[2,5] + s[3,6]'
    """
    if algebra == "A":
        words = [AWord("s", i, n, n) for i in range(1, n + 1)]
    elif algebra == "B":
        words = [BWord("c", i, first, 2 * n, n) for i in range(1, n + 1) for first in ("r", "s")]
    else:
        raise ValueError(f"unknown algebra {algebra!r}")
    return AlgElem(algebra, n, dict.fromkeys(words, POLY_ONE))


__all__ = [
    "ALGEBRAS",
    "AWord",
    "BWord",
    "Word",
    "Grading",
    "dual_algebra",
    "AlgElem",
    "idempotent",
    "letter",
    "mul_word",
    "advance",
    "word_letters",
    "letter_slots",
    "slot_letters",
    "word_slots",
    "mul_a",
    "mul_b",
    "grading",
    "coeff_var",
    "higher_arity",
    "var_grading",
    "mono_grading",
    "word_sort_key",
    "words_of_length",
    "enumerate_basis",
    "chain_ok",
    "WordTable",
    "special_element",
]
