"""Higher multiplications on the two quiver algebras and relation checking.

Besides its binary product each algebra carries one higher operation, in
arity `staralg.higher_arity` (2N for A, N for B), and one rule gives both: the
operation preserves weight, and its inputs lay down the weight of the
coefficient variable (V0 covers every slot once, V_{N+1} every edge slot
once) plus that of the margin it returns.  A chained tuple of that arity with
no unit is "centered" when its words have the coefficient's length and weight
(a rotation of u1 s1 ... uN sN in A, a descending cycle of edge letters in B)
and maps to V times the idempotent where its first word is entered; it is
"left-" or "right-extended" when its first or last word gives up a margin,
leaving a centered tuple, and maps to V times that margin.  All other tuples
map to zero.  The one open per-algebra difference is the coefficient rule: A
vanishes on an entry with a coefficient, and B carries the coefficient of the
trimmed end.  Neither is GF(2)[V]-linear, and the paper must say which is
meant (the FOUND line on it in CHANGES.md; tests/test_deformation.py).

A has no operation in the other arities (2N-2)j + 2 that the grading admits
(j >= 2): the arity-(4N-1) relations fix mu_{4N-2} uniquely up to gauge (an
A-infinity isomorphism id + f_{4N-3} changes it by a Hochschild coboundary),
and zero solves them.

The operations run on interned word ids.  `_OpTables` extends the
`staralg.WordTable` of one algebra, N and length bound with the columns only
the classifier reads (packed weights, the coefficient's weight, the drop-mu2N
component), built lazily.  `op_tables` holds only the last (algebra, N,
bound) asked for, and lets it go before it builds another; mu_a, mu_b and
relation_value read the held table when it covers their inputs.  `_classify`
is the one operation classifier, on (exponent, id) entries: mu_a and mu_b
intern their inputs and call it.  The table's
`higher` column is its value on each passing window, classified once.
`passing_windows` builds, on the table it is given, every tuple within the
bound on which the higher operation is nonzero, so `higher` is the whole
operation on entries without a coefficient, as `mul` is the whole binary
one.  relation_sum and the sweeps read both off the table; only a
coefficient carried into an outer higher operation goes back to
`_classify`, so the coefficient rule is written there alone.

check_ainfty evaluates the A-infinity relation on every tuple within bounds
that has a nonzero term, read off the nonzero operations themselves; the
sweep runs on id tuples and renders words only for violations.  The tuples
are built one first word at a time (`_relation_groups`), and each group is
evaluated under every drop the sweep needs and then let go, so no set of
the whole sweep is held.

The Z/N rotation rho of the cyclic quiver, node i to node i+1, commutes with
every column the classifier reads: the product, the splits, the entry and
exit nodes, and the packed weights once their slots are shifted by 2 (rho
moves a letter at slot k to slot k+2).  The coefficient's weight that the
classifier compares sums against, and every length, are rotation-invariant,
so mu(rho W) = rho mu(W), and relation_sum(rho t) = rho relation_sum(t).
Rotation moves the node where a tuple's first word is entered, so the tuples
entered at node 1 are exactly one per rotation orbit.  check_ainfty evaluates
only those, and reports each violation together with its N-1 rotated copies.

A fault must be rotation-covariant for this sweep to be complete.
drop-mu2N:k is: the centered component of a first word u_i or s_i is
2(i-1) or 2(i-1)+1, so rho takes component k to k+2 mod 2N, and t violates
under drop k exactly when rho t violates under drop k+2.  So the violations
V(k) under drop k are the union over j of rho^j V1(k-2j), V1 being the
node-1 sweep: the node-1 tuples are built once and each is evaluated once
per rotation of the fault, N times in all, which is what a sweep over every
node costs.  Unfaulted, the N rotations share one evaluation.

The grading laws are equivariant too: rho shifts the weight slots of every
input and output by 2 and relabels the free generators g_i -> g_{i+1},
while lambda and the gradings of V0 and V_{N+1} are fixed.  So
`operation_violations` checks the nonzero operations whose first input is
entered at node 1, and reports a failing one with its N-1 rotated copies,
each checked in turn, in the order `nonzero_operations` would list them.
The equivariance tests in tests/test_ainfty.py are what make both sweeps
complete.  A law runs on ids: each table word is graded once, into a
per-id column, each value V^e * p once per distinct (e, p), and words are
rendered only for a failing operation.
"""
from __future__ import annotations

import functools
from itertools import chain, product as iter_product
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .ring import Frozen, Monomial
from .staralg import (
    AlgElem,
    AWord,
    BWord,
    Grading,
    Word,
    WordTable,
    coeff_var,
    grading,
    higher_arity,
    letter_slots,
    mono_grading,
    slot_letters,
    var_grading,
    word_slots,
)

_Entry = tuple  # (coefficient exponent, word id) inside the kernel, (exponent, Word) outside

TAG_ZERO = "zero"
TAG_BINARY = "binary"
TAG_CENTERED = "centered"
TAG_LEFT = "left-extended"
TAG_RIGHT = "right-extended"
TAG_MIXED = "mixed"


class OpResult(Frozen):
    """Value of a higher operation together with its classifier case."""

    __slots__ = _fields = ("value", "tag")

    def __init__(self, value: AlgElem, tag: str) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tag", tag)


def _entry_grading(algebra: str, exp: Monomial, word: Word, n: int) -> Grading:
    """Grading of V^exp * word; most entries carry exponent 0."""
    g = grading(word)
    return mono_grading(exp, algebra, n) + g if exp else g


class _OpTables(WordTable):
    """The word table of one algebra and N up to max_len, with the columns
    the operation classifier reads.

    Each call on the tables keeps the total word length of its entries
    within max_len.  A weight vector is packed into one int, slot k in bits
    [k*width, (k+1)*width), and `width` holds max_len, so no slot of a sum
    over such entries carries into the next.  `ones` is the packed weight of
    the coefficient variable, which every higher operation's inputs lay down
    besides the margin it returns.  `higher`, built on first use, is the
    higher operation's value on each of the table's passing windows: every
    tuple within the bound on which it is nonzero, so a lookup that misses
    there is a zero.  `passing_windows` finds the extended tuples through
    the `split` the classifier reads, at the same margin length.
    """

    def __init__(self, algebra: str, n: int, max_len: int):
        super().__init__(algebra, n, max_len)
        two_n = 2 * n
        self.higher_arity = higher_arity(algebra, n)
        width = max(max_len, 1).bit_length()
        # weight[a]: a's weight vector, one count per slot of its letters
        self.weight = [0] * n + [
            sum(1 << (width * k) for k in word_slots(algebra, n, ell, o))
            for ell in range(1, max_len + 1)
            for o in range(two_n)
        ]
        self.ones = sum(c << (width * k) for k, c in enumerate(var_grading(coeff_var(algebra, n), n).alexander))
        # component[a]: the centered component drop-mu2N:k removes when a is
        # first, the slot of its first letter; I_i counts as the empty s-chain
        # at node i, slot 2i-1.  B has none: it ignores the fault.
        self.component = (
            list(range(1, two_n, 2)) + letter_slots(algebra, n) * max_len if algebra == "A" else [None] * len(self.words)
        )

    @functools.cached_property
    def rotations(self) -> list[list[int]]:
        """rotations[j][a]: the id of word a turned j nodes on (node i to
        node i+j), for j = 0..N-1.  A turn moves every letter two slots on,
        so it keeps a word's length and moves its offset to the offset of
        the letter two slots past its first letter."""
        n, two_n = self.n, 2 * self.n
        at = slot_letters(self.algebra, n)
        turn = dict(zip(at, at[2:] + at[:2]))
        step = [(a + 1) % n for a in range(n)] + [self.word_id(ell, turn[o]) for ell in range(1, self.max_len + 1) for o in range(two_n)]
        out = [list(range(len(step)))]
        for _ in range(1, n):
            out.append([step[a] for a in out[-1]])
        return out

    @functools.cached_property
    def higher(self) -> dict[tuple[int, ...], tuple[int, int, Optional[int]]]:
        """higher[t]: the higher operation on the passing window t, as
        (exponent, output id, the drop-mu2N component that removes it or
        None), in `passing_windows` order, one `_classify` call per window."""
        out = {}
        # through the module global, which the benchmark's trace counts
        for t in passing_windows(self):
            res = _classify(self, [(0, a) for a in t])
            if res is not None:
                tag, e, p = res
                out[t] = (e, p, self.component[t[0]] if tag == TAG_CENTERED else None)
        return out


_held: Optional[_OpTables] = None  # the last table op_tables built


def op_tables(algebra: str, n: int, max_len: int) -> _OpTables:
    """The tables of one (algebra, N, max_len), built on first use.  Only
    the last one is held, and it is let go before a different one is built,
    so the cache never keeps two alive at once: `verify grading` frees A's
    before it builds B's."""
    global _held
    if _held is None or (_held.algebra, _held.n, _held.max_len) != (algebra, n, max_len):
        _held = None
        _held = _OpTables(algebra, n, max_len)
    return _held


def _covering_tables(algebra: str, n: int, bound: int) -> _OpTables:
    """A table of the algebra and N whose bound is at least `bound`: the
    held one if it covers it, else the one of that exact bound.  On inputs
    of total length within the bound a larger table gives the same ids,
    products and windows, and packs weights wider, with no carry either, so
    calls on words and elements need not rebuild it; sweeps keep their
    exact bound."""
    held = _held
    if held is not None and held.algebra == algebra and held.n == n and held.max_len >= bound:
        return held
    return op_tables(algebra, n, bound)


def _dropped(fault: Optional[tuple], algebra: str, n: int) -> Optional[int]:
    """The centered A component k that the spec ("drop-a-centered", k), 0 <=
    k < 2N (one per letter of a centered tuple), drops, or None for no
    fault; any other spec raises ValueError."""
    if fault is None:
        return None
    if algebra != "A" or len(fault) != 2 or fault[0] != "drop-a-centered" or not 0 <= fault[1] < higher_arity("A", n):
        raise ValueError(f"fault {fault!r} cannot be injected into the {algebra} operations at N={n}")
    return fault[1]


def _classify(ops: _OpTables, entries: Sequence[_Entry], drop: Optional[int] = None) -> Optional[tuple[str, int, int]]:
    """The operation on (coefficient exponent, word id) entries, as
    (tag, exponent, id), or None when it vanishes.

    In the higher arity, the one rule of the module docstring: the words,
    less the margin of an extended end, must have the coefficient variable's
    length (so `excess` is the margin's length) and sum to its weight
    `ones`.  The coefficient rule is the one per-algebra test: A vanishes on
    an entry with a coefficient (counting V0^e toward the length and weight,
    no arity-2N tuple with one would pass), and B allows one on the trimmed
    end only and multiplies it into the value.  `drop` is the centered A
    component a fault removes.
    """
    arity = len(entries)
    if arity == 2:
        (ea, a), (eb, b) = entries
        p = ops.mul[a].get(b)
        return None if p is None else (TAG_BINARY, ea + eb, p)
    if arity < 3 or arity != ops.higher_arity:
        return None
    n = ops.n
    ell, weight, exit_, entry = ops.ell, ops.weight, ops.exit, ops.entry
    exps = length = total = 0
    prev = None
    for e, a in entries:
        if (a < n and not e) or (prev is not None and exit_[prev] != entry[a]):  # a unit, or not chained
            return None
        exps += e
        length += ell[a]
        total += weight[a]
        prev = a
    excess = length - arity  # the coefficient's length is the higher arity: 2N, N
    if excess < 0 or (exps and ops.algebra == "A"):
        return None
    (e0, w0), (el, wl) = entries[0], entries[-1]
    ones = ops.ones
    if excess == 0:
        if exps or total != ones or (drop is not None and ops.component[w0] == drop):
            return None
        return (TAG_CENTERED, 1, entry[w0] - 1)
    # The split of the first word whose left part is the margin, and of the
    # last word whose right part is (`split` goes by the length of the left
    # part).  Left-extended needs a last word of length 1 and right-extended
    # a longer one, so at most one of the two holds.
    if excess < ell[w0] and exps == e0:
        margin, rest = ops.split(w0, excess)
        if weight[rest] + total - weight[w0] == ones:
            return (TAG_LEFT, 1 + exps, margin)
    if excess < ell[wl] and exps == el:
        rest, margin = ops.split(wl, ell[wl] - excess)
        if weight[rest] + total - weight[wl] == ones:
            return (TAG_RIGHT, 1 + exps, margin)
    return None


def _as_pairs(x: Union[AlgElem, Word]) -> list[_Entry]:
    if isinstance(x, AlgElem):
        return x.monomial_pairs()
    return [(0, x)]


def _check_algebra(algebra: str, n: int, xs: Iterable[Union[AlgElem, Word]]) -> None:
    """Raise ValueError unless each word or element is of this algebra and N."""
    for x in xs:
        if x.algebra != algebra or x.n != n:
            raise ValueError("word does not belong to this algebra")


def _mu(algebra: str, seq: Sequence[Union[AlgElem, Word]], fault: Optional[tuple] = None) -> OpResult:
    if not seq:
        raise ValueError("operations need at least one input")
    n = seq[0].n
    _check_algebra(algebra, n, seq)
    drop = _dropped(fault, algebra, n)
    pair_lists = [_as_pairs(x) for x in seq]
    bound = sum(max((w.ell for _, w in pairs), default=0) for pairs in pair_lists)
    ops = _covering_tables(algebra, n, bound)
    terms: list[tuple[Monomial, Word]] = []
    tags: set[str] = set()
    for combo in iter_product(*([(e, ops.ids[w]) for e, w in pairs] for pairs in pair_lists)):
        res = _classify(ops, combo, drop)
        if res is not None:
            tag, e, p = res
            tags.add(tag)
            terms.append((e, ops.words[p]))
    value = AlgElem.from_pairs(algebra, n, terms)
    if value.is_zero():
        return OpResult(value, TAG_ZERO)
    if len(tags) == 1:
        return OpResult(value, tags.pop())
    return OpResult(value, TAG_MIXED)


def mu_a(seq: Sequence[Union[AlgElem, AWord]], fault: Optional[tuple] = None) -> OpResult:
    """Higher operation of algebra A on a sequence of elements or basis words.

    >>> n = 3
    >>> tup = [AWord("u", 1, 1, n), AWord("s", 1, 1, n), AWord("u", 2, 1, n),
    ...        AWord("s", 2, 1, n), AWord("u", 3, 1, n), AWord("s", 3, 1, n)]
    >>> res = mu_a(tup)
    >>> res.tag, res.value.render()
    ('centered', 'V0*I1')
    """
    return _mu("A", seq, fault)


def mu_b(seq: Sequence[Union[AlgElem, BWord]]) -> OpResult:
    """Higher operation of algebra B.

    >>> n = 3
    >>> tup = [BWord("c", 3, "s", 1, n), BWord("c", 2, "s", 1, n), BWord("c", 1, "s", 1, n)]
    >>> res = mu_b(tup)
    >>> res.tag, res.value.render()
    ('centered', 'V4*I1')
    """
    return _mu("B", seq)


def relation_sum(ops: _OpTables, ids: tuple, drop: Optional[int] = None) -> dict[int, int]:
    """Sum of all composed operation terms on a tuple of word ids of total
    length within the table's bound, as {id: coefficient bitmask}, nonzero
    coefficients only.

    Only splits whose inner arity r and outer arity size - r + 1 are both 2
    or the higher arity h are visited; every other composed term vanishes.
    Each operation is read off the table, a binary one from `mul` and a
    higher one from `higher` (complete within the bound, see `_OpTables`),
    except an inner value V^e * p with e > 0 put into an outer higher
    operation: the coefficient rule decides that one, in `_classify`.  The
    terms are XORed per output id.
    """
    size = len(ids)
    h = ops.higher_arity
    mul, higher = ops.mul, ops.higher
    # the nonzero inner values V^e * p, on ids[k:end]
    inner: list[tuple[int, int, int, int]] = []
    if size - 1 in (2, h):
        for k in range(size - 1):
            p = mul[ids[k]].get(ids[k + 1])
            if p is not None:
                inner.append((k, k + 2, 0, p))
    if size - h + 1 in (2, h):
        for k in range(size - h + 1):
            v = higher.get(ids[k : k + h])
            if v is not None and (drop is None or v[2] != drop):
                inner.append((k, k + h, v[0], v[1]))
    acc: dict[int, int] = {}
    for k, end, e, p in inner:
        # the outer operation on ids[:k] + (V^e * p,) + ids[end:]
        if size - end + k == 1:
            q = mul[p].get(ids[-1]) if k == 0 else mul[ids[0]].get(p)
            if q is None:
                continue
        elif e:
            res = _classify(ops, [(0, a) for a in ids[:k]] + [(e, p)] + [(0, a) for a in ids[end:]], drop)
            if res is None:
                continue
            _, e, q = res
        else:
            v = higher.get(ids[:k] + (p,) + ids[end:])
            if v is None or (drop is not None and v[2] == drop):
                continue
            e, q, _ = v
        acc[q] = acc.get(q, 0) ^ (1 << e)
    return {q: c for q, c in acc.items() if c}


def relation_value(algebra: str, words: Sequence[Word], n: int, fault: Optional[tuple] = None) -> AlgElem:
    """Sum of all composed operation terms on a tuple of basis words.

    >>> n = 3
    >>> sigma = [BWord("c", i, "s", 1, n) for i in (3, 2, 1)]
    >>> relation_value("B", [BWord("c", 1, "r", 1, n)] + sigma, n).render()
    '0'
    """
    _check_algebra(algebra, n, words)
    drop = _dropped(fault, algebra, n)
    ops = _covering_tables(algebra, n, sum(w.ell for w in words))
    total = relation_sum(ops, tuple(ops.ids[w] for w in words), drop)
    return AlgElem(algebra, n, {ops.words[q]: c for q, c in total.items()})


def _centered_tuples(ops: _OpTables) -> list[tuple[int, ...]]:
    """All centered tuples of the higher operation, as id tuples: from each
    slot of the coefficient's weight, the letters at its slots in chain
    order.  A steps up every slot (u1 s1 u2 ...), B down its edge slots
    (s_i s_{i-1} ..., written right to left)."""
    n, two_n = ops.n, 2 * ops.n
    at = slot_letters(ops.algebra, n)
    starts, step = (range(two_n), 1) if ops.algebra == "A" else (range(1, two_n, 2), -2)
    return [tuple(n + at[(k + step * j) % two_n] for j in range(ops.higher_arity)) for k in starts]


def passing_windows(ops: _OpTables) -> list[tuple[int, ...]]:
    """All id tuples within the table's bound on which the higher operation
    is nonzero, in id order, which is word order; `ops.words` renders them.

    Every centered tuple is higher_arity(algebra, n) letters long, and every
    other passing window swaps an end letter of one for a longer word whose
    split at the classifier's margin index leaves that letter.
    """
    budget = ops.max_len - ops.higher_arity
    if budget < 0:
        return []
    centered = _centered_tuples(ops)
    starting = {t[0]: t for t in centered}
    ending = {t[-1]: t for t in centered}
    windows = list(centered)
    # each word of length 2 to budget + 1 in place of the end letter that
    # taking off its margin, all but one letter, leaves
    for a in range(ops.word_id(2, 0), ops.word_id(budget + 2, 0)):
        _, rest = ops.split(a, ops.ell[a] - 1)  # the margin on the left
        if rest in starting:
            windows.append((a,) + starting[rest][1:])
        rest, _ = ops.split(a, 1)  # the margin on the right
        if rest in ending:
            windows.append(ending[rest][:-1] + (a,))
    return sorted(windows)


def _nonzero(ops: _OpTables, max_arity: int, entry: Optional[int] = None) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every nonzero operation of arity <= max_arity on the table's words
    whose first input is entered at `entry` (any node if None), as (input
    ids, exponent, output id): first the binary products of chained pairs,
    by entry node, then the higher operation on its passing windows."""
    for i in range(1, ops.n + 1) if entry is None else (entry,):
        for a in ops.by_entry[i]:
            for b, p in ops.mul[a].items():
                yield (a, b), 0, p
    if ops.higher_arity > max_arity:
        return
    for t, (e, p, _) in ops.higher.items():
        if entry is None or ops.entry[t[0]] == entry:
            yield t, e, p


def _relation_groups(ops: _OpTables, max_arity: int, entry: int) -> Iterator[tuple[int, set[tuple[int, ...]]]]:
    """For each word a entered at node `entry`, the id tuples within bounds
    that start with a and can have a nonzero relation term, as (a, tuples);
    a word with no such tuple is skipped.  The groups are disjoint, and
    their union is every such tuple entered at `entry`.

    A term mu_s(.., mu_r(t), ..) needs a nonzero operation t -> V^e*p, so
    the tuples are read off the nonzero operations: t with a word c on
    either side whose product with p is nonzero (outer mu_2), and t put in
    place of an entry p of a passing window (outer higher operation).  The
    window lookup drops the coefficient V^e; that is complete because an
    operation that is nonzero on V^e*p is nonzero on p: for B it multiplies
    V^e into its value, and for A it vanishes on every entry with a
    coefficient (see _classify).

    Each such tuple is keyed by its first word a, entered at `entry`:
    - (a,) + t, for p a word a multiplies (`mul[a]`) and t an operation
      with output p: the pairs whose product is p, which are p's unit pairs
      and its splits (`mul` is filled from both), and the passing windows
      with output p;
    - t + (c,) and t + window[1:], for t an operation that starts with a:
      a pair (a, b) with b in `mul[a]`, or a window that starts with a.  An
      operation keeps the endpoints of its inputs' path, so p is entered
      where a is, and so is a window that starts with p;
    - window[:k] + t + window[k+1:], for k > 0, a window that starts with a
      and t an operation with output window[k].
    A pair in place of a window's entry, or beside a word, keeps the total
    length within the bound and the arity at most h + 1 <= max_arity, so
    only a higher inner operation needs the length and arity tests.  A
    composed term has arity 3 or more, and a higher inner operation needs
    h < max_arity.
    """
    if max_arity < 3:
        return
    ell, mul, max_len, h, n = ops.ell, ops.mul, ops.max_len, ops.higher_arity, ops.n
    # the windows that can be inner operations, with their total length: by
    # output, and, those entered at `entry`, by first word
    making: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    starting: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
    if h < max_arity:
        for w, (_, p, _) in ops.higher.items():
            length = sum(ell[a] for a in w)
            making.setdefault(p, []).append((w, length))
            if ops.entry[w[0]] == entry:
                starting.setdefault(w[0], []).append((w, length, p))
    nested = 2 * h - 1 <= max_arity  # a window in place of a window's entry

    def pairs(p: int) -> Iterator[tuple[int, int]]:
        """The pairs whose product is p: its unit pairs, then its splits."""
        yield ops.entry[p] - 1, p
        if p >= n:
            yield p, ops.exit[p] - 1
        for k in range(1, ell[p]):
            yield ops.split(p, k)

    for a in ops.by_entry[entry]:
        group: set[tuple[int, ...]] = set()
        room = max_len - ell[a]
        for p in mul[a]:
            group.update((a,) + t for t in pairs(p))
            for t, length in making.get(p, ()):
                if length <= room:
                    group.add((a,) + t)
        for t, length, p in chain((((a, b), ell[p], p) for b, p in mul[a].items()), starting.get(a, ())):
            rest = max_len - length
            for c in mul[p]:
                if ell[c] <= rest:
                    group.add(t + (c,))
            if len(t) + h - 1 <= max_arity:
                for w, w_len, _ in starting.get(p, ()):
                    if w_len - ell[p] <= rest:
                        group.add(t + w[1:])
        for w, w_len, _ in starting.get(a, ()):
            for k in range(1, h):
                p, head, tail = w[k], w[:k], w[k + 1 :]
                group.update(head + t + tail for t in pairs(p))
                if nested:
                    for t, length in making.get(p, ()):
                        if w_len - ell[p] + length <= max_len:
                            group.add(head + t + tail)
        if group:
            yield a, group


def _violation(ops: _OpTables, ids: tuple, total: dict[int, int]) -> dict:
    words = ops.words
    return {
        "algebra": ops.algebra,
        "arity": len(ids),
        "inputs": [words[a].render() for a in ids],
        "lhs-sum": AlgElem(ops.algebra, ops.n, {words[q]: c for q, c in total.items()}).render(),
    }


def check_ainfty(
    algebra: str,
    max_arity: int,
    max_total_len: int,
    n: int,
    fault: Optional[tuple] = None,
) -> list[dict]:
    """Violations of the A-infinity relations within the given bounds.

    The relation is evaluated on every tuple entered at node 1 that has a
    nonzero term, one first word's tuples at a time (see _relation_groups),
    and each violation is reported with its rotated copies (see the module
    docstring).  Under drop-mu2N:k each group is evaluated once per rotation
    of the fault, so the node-1 tuples are built once.  The tuples are read
    off the unfaulted operations and a fault only deletes values, so
    injected faults cannot hide violations.  The sweep is serial; violations
    are sorted by arity, then inputs.
    """
    if n <= 2:
        raise ValueError(f"the construction needs N > 2, got N={n}")
    drop = _dropped(fault, algebra, n)
    ops = op_tables(algebra, n, max_total_len)
    # rho^j maps the violations of the node-1 sweep under drop k - 2j to
    # those entered at node 1 + j under drop k
    drops = [None if drop is None else (drop - 2 * j) % (2 * n) for j in range(n)]
    found: dict[Optional[int], list[tuple[tuple, dict[int, int]]]] = {d: [] for d in drops}
    for _, group in _relation_groups(ops, max_arity, 1):
        for d, hits in found.items():
            hits += ((ids, total) for ids in group if (total := relation_sum(ops, ids, d)))
    violations: list[dict] = []
    for j, d in enumerate(drops):
        if found[d]:
            turn = ops.rotations[j]
            for ids, total in found[d]:
                violations.append(_violation(ops, tuple(turn[a] for a in ids), {turn[q]: c for q, c in total.items()}))
    violations.sort(key=lambda v: (v["arity"], v["inputs"]))
    return violations


def nonzero_operations(
    algebra: str, max_arity: int, max_total_len: int, n: int
) -> Iterator[tuple[tuple[Word, ...], Monomial, Word]]:
    """Every nonzero operation within bounds, as (inputs, exponent, output
    word): the value is V^exponent * output word.

    First the binary products of chained word pairs with total length within
    bounds, then the higher operation on its passing windows.
    """
    ops = op_tables(algebra, n, max_total_len)
    words = ops.words
    for t, e, p in _nonzero(ops, max_arity):
        yield tuple(words[a] for a in t), e, words[p]


def operation_violations(
    ops: _OpTables,
    max_arity: int,
    value: Callable[[int, int], object],
    inputs: Callable[[tuple], object],
    reason: Callable[[tuple, int, int], str],
) -> list[dict]:
    """Violations of a grading law over the nonzero operations of arity <=
    max_arity on the table's words (binary products whatever the bound).

    The law holds on an operation t -> V^e * p, on ids, when value(e, p),
    the value's grading, taken once per distinct (e, p), equals inputs(t),
    the one the law asks of the inputs; `reason(t, e, p)` says why a failing
    operation breaks it.  Only the operations whose first input is entered
    at node 1 are checked; a failing one is reported with its rotated
    copies, each checked in turn (see the module docstring), in the order of
    nonzero_operations.
    """
    values: dict[tuple[int, int], object] = {}

    def holds(t: tuple, e: int, p: int) -> bool:
        if (e, p) not in values:
            values[e, p] = value(e, p)
        return values[e, p] == inputs(t)

    failing = []
    for t, e, p in _nonzero(ops, max_arity, 1):
        if not holds(t, e, p):
            for turn in ops.rotations:
                rt, rp = tuple(turn[a] for a in t), turn[p]
                if not holds(rt, e, rp):
                    # nonzero_operations lists the products by entry node,
                    # then the windows in id order
                    failing.append(((0, ops.entry[rt[0]], rt) if len(rt) == 2 else (1, rt), reason(rt, e, rp)))
    failing.sort()
    words = ops.words
    return [
        {"algebra": ops.algebra, "arity": len(t), "inputs": [words[a].render() for a in t], "reason": why}
        for (*_, t), why in failing
    ]


def _grading_sides(algebra: str, n: int, inputs: tuple[Word, ...], exp: Monomial, word: Word) -> tuple[Grading, Grading]:
    """The grading of an operation's value V^exp * word, and the one the
    grading law asks for: the sum over the inputs, with r - 2 added to the
    Maslov degree of an arity-r operation."""
    gs = [grading(w) for w in inputs]
    expect = Grading(
        sum(g.m for g in gs) + len(inputs) - 2,
        tuple(map(sum, zip(*(g.alexander for g in gs), strict=True))),
        sum(g.ell for g in gs),
    )
    return _entry_grading(algebra, exp, word, n), expect


def _packing(gradings: list[Grading], max_arity: int) -> Callable[[Grading], Optional[int]]:
    """The packing into one int under which the grading law compares gradings.

    The digits m, ell and the 2N weight slots go from the lowest bits up,
    `width` bits apart, as signed digits in (-half, half), half =
    2^(width-1).  Two packings of such digits are equal exactly when the
    digits are: the lowest two that differed would differ by a nonzero
    multiple of 2^width, more than they can.  The law's sum side adds r <=
    max(max_arity, 2) of the given gradings and r - 2 to m, so its digits
    are below r * (big + 1) in size, big the largest digit given, and half
    is above that.  A grading with a larger digit packs to None, which
    equals no int, as the grading equals no such sum.
    """
    big = max((max(abs(g.m), g.ell, *map(abs, g.alexander)) for g in gradings), default=0)
    width = (max(max_arity, 2) * (big + 1)).bit_length() + 1
    half = 1 << (width - 1)

    def pack(g: Grading) -> Optional[int]:
        digits = (g.m, g.ell, *g.alexander)
        if max(map(abs, digits)) >= half:
            return None
        packed = 0
        for d in reversed(digits):
            packed = (packed << width) + d
        return packed

    return pack


def op_grading_check(algebra: str, max_arity: int, max_total_len: int, n: int) -> list[dict]:
    """Grading-law violations over all nonzero operations within bounds.

    Binary products must add gradings; an arity-r operation must add r - 2 to
    the Maslov degree and preserve the weight vector (hence total length).
    The law compares gradings packed into ints (`_packing`), each table
    word's packed once, into a column.
    """
    ops = op_tables(algebra, n, max_total_len)
    words = ops.words
    gradings = [grading(w) for w in words]
    pack = _packing(gradings, max_arity)
    column = [pack(g) for g in gradings]

    def reason(t: tuple, e: int, p: int) -> str:
        got, expect = _grading_sides(algebra, n, tuple(words[a] for a in t), e, words[p])
        return f"{'binary' if len(t) == 2 else 'operation'} grading {got} != {expect}"

    return operation_violations(
        ops,
        max_arity,
        lambda e, p: pack(_entry_grading(algebra, e, words[p], n)),
        lambda t: sum(map(column.__getitem__, t)) + len(t) - 2,
        reason,
    )


__all__ = [
    "OpResult",
    "mu_a",
    "mu_b",
    "relation_value",
    "relation_sum",
    "op_tables",
    "passing_windows",
    "nonzero_operations",
    "operation_violations",
    "check_ainfty",
    "op_grading_check",
    "TAG_ZERO",
    "TAG_BINARY",
    "TAG_CENTERED",
    "TAG_LEFT",
    "TAG_RIGHT",
    "TAG_MIXED",
]
