"""Higher multiplications on the two quiver algebras and relation checking.

Algebra A carries, besides its binary product, one family of higher
operations in each arity (2N-2)j + 2: a chained tuple of total length 2Nj
using every loop/edge letter exactly j times ("centered") maps to V0^j times
an idempotent; tuples exceeding that length by a prefix of the first entry or
a suffix of the last entry ("left-/right-extended") map to that margin times
V0^j.  Algebra B carries one higher operation in arity N: the descending
cycle of edge letters maps to V_{N+1} times an idempotent, again with
one-sided extended variants.  All other tuples map to zero, as do tuples
containing a unit in arity > 2.

check_ainfty evaluates the A-infinity relation on every tuple within bounds
that has a nonzero term, read off the nonzero operations themselves.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator, Optional, Sequence, Union

from .ring import Monomial, mono_mul
from .staralg import (
    AlgElem,
    AWord,
    BWord,
    Grading,
    Word,
    WordIndex,
    advance,
    chain_ok,
    grading,
    idempotent,
    mono_grading,
    mul_word,
    split_a_word,
    split_b_word,
    word_sort_key,
    words_of_length,
    zero_grading,
)

Entry = tuple  # (coefficient exponent, Word)

TAG_ZERO = "zero"
TAG_BINARY = "binary"
TAG_CENTERED = "centered"
TAG_LEFT = "left-extended"
TAG_RIGHT = "right-extended"
TAG_MIXED = "mixed"


@dataclass(frozen=True, slots=True)
class OpResult:
    """Value of a higher operation together with its classifier case."""

    value: AlgElem
    tag: str


def valid_higher_arities(algebra: str, n: int, max_arity: int) -> list[int]:
    """Arities > 2 at which the algebra carries a (possibly) nonzero operation."""
    if algebra == "A":
        step = 2 * n - 2
        return [step * j + 2 for j in range(1, (max_arity - 2) // step + 1)]
    return [n] if n <= max_arity else []


def _entry_grading(algebra: str, exp: Monomial, word: Word, n: int) -> Grading:
    """Grading of V^exp * word; most entries carry exponent 0."""
    g = grading(word)
    return mono_grading(exp, algebra, n) + g if exp else g


def _is_unit(exp: Monomial, word: Word) -> bool:
    return word.is_idempotent() and exp == 0


def _classify_a(entries: Sequence[Entry], n: int, fault: Optional[tuple] = None) -> tuple[str, list[Entry]]:
    arity = len(entries)
    words = [w for _, w in entries]
    if any(_is_unit(m, w) for m, w in entries):
        return (TAG_ZERO, [])
    if not all(map(chain_ok, words, words[1:])):
        return (TAG_ZERO, [])
    step = 2 * n - 2
    if (arity - 2) % step:
        return (TAG_ZERO, [])
    j = (arity - 2) // step
    if j < 1:
        return (TAG_ZERO, [])
    gradings = [_entry_grading("A", m, w, n) for m, w in entries]
    total_len = sum(g.ell for g in gradings)
    target_vec = tuple(j for _ in range(2 * n))
    coeff = j  # V0^j times the entry coefficients
    for m, _ in entries:
        coeff = mono_mul(coeff, m)
    excess = total_len - 2 * n * j

    if excess == 0:
        if tuple(sum(v) for v in zip(*(g.alexander for g in gradings))) != target_vec:
            return (TAG_ZERO, [])
        if fault is not None and fault[0] == "drop-a-centered":
            w0 = words[0]
            comp = 2 * (w0.start - 1) + (0 if w0.kind == "u" else 1)
            if fault[1] is None or fault[1] == comp:
                return (TAG_ZERO, [])
        return (TAG_CENTERED, [(coeff, idempotent("A", words[0].init, n))])

    if excess < 0:
        return (TAG_ZERO, [])

    def _try_left() -> Optional[Entry]:
        split = split_a_word(words[0], excess)
        if split is None:
            return None
        head, tail = split
        vec = list(grading(tail).alexander)
        for g in gradings[1:]:
            vec = [a + b for a, b in zip(vec, g.alexander)]
        if tuple(vec) != target_vec:
            return None
        return (coeff, head)

    def _try_right() -> Optional[Entry]:
        split = split_a_word(words[-1], words[-1].length - excess)
        if split is None:
            return None
        head, tail = split
        vec = list(grading(head).alexander)
        for g in gradings[:-1]:
            vec = [a + b for a, b in zip(vec, g.alexander)]
        if tuple(vec) != target_vec:
            return None
        return (0, tail)

    left = _try_left()
    right = _try_right()
    if left is not None and right is not None:
        raise RuntimeError("tuple classifies as both left- and right-extended")
    if left is not None:
        return (TAG_LEFT, [left])
    if right is not None:
        return (TAG_RIGHT, [(coeff, right[1])])
    return (TAG_ZERO, [])


def _classify_b(entries: Sequence[Entry], n: int, fault: Optional[tuple] = None) -> tuple[str, list[Entry]]:
    arity = len(entries)
    words = [w for _, w in entries]
    if any(_is_unit(m, w) for m, w in entries):
        return (TAG_ZERO, [])
    if arity != n or not all(map(chain_ok, words, words[1:])):
        return (TAG_ZERO, [])

    def _bare_sigma(k: int) -> bool:
        m, w = entries[k]
        return m == 0 and w.kind == "c" and w.first == "s" and w.length == 1

    coeff = 1  # V_{N+1} times the entry coefficients
    for m, _ in entries:
        coeff = mono_mul(coeff, m)

    if all(_bare_sigma(k) for k in range(arity)):
        return (TAG_CENTERED, [(coeff, idempotent("B", words[-1].init, n))])

    if all(_bare_sigma(k) for k in range(1, arity)):
        w0 = words[0]
        if w0.kind == "c" and w0.length >= 2 and w0.first == "s":
            remainder = split_b_word(w0, 1)[0]
            return (TAG_LEFT, [(coeff, remainder)])

    if all(_bare_sigma(k) for k in range(arity - 1)):
        wn = words[-1]
        if wn.kind == "c" and wn.length >= 2 and wn.last == "s":
            remainder = split_b_word(wn, wn.length - 1)[1]
            return (TAG_RIGHT, [(coeff, remainder)])

    return (TAG_ZERO, [])


def _mu_pairs(algebra: str, entries: Sequence[Entry], n: int, fault: Optional[tuple] = None) -> tuple[str, list[Entry]]:
    """Operation value on a single tuple of (coefficient exponent, word) entries.

    The higher operations are not GF(2)[V]-linear in an entry that carries a
    coefficient.  For A, the grading of V0^e (weight (e,...,e), length 2Ne)
    counts toward the weight and length tests, so mu_{2N}(V0*x, ..) = 0 even
    where mu_{2N}(x, ..) != 0; V0^e*x can pass where x fails only when it
    stands in for e full turns of letters, which needs j >= N + 1 (arity 2N^2
    and up).  For B, every bare-edge slot needs exponent 0, and only the
    extended end entry may carry V_{N+1}^e, which multiplies into the value.
    """
    arity = len(entries)
    if arity == 0:
        raise ValueError("operations need at least one input")
    if arity == 1:
        return (TAG_ZERO, [])
    if arity == 2:
        (ma, wa), (mb, wb) = entries
        word = mul_word(wa, wb)
        if word is None:
            return (TAG_ZERO, [])
        return (TAG_BINARY, [(mono_mul(ma, mb), word)])
    if algebra == "A":
        return _classify_a(entries, n, fault)
    return _classify_b(entries, n, fault)


def _as_pairs(x: Union[AlgElem, Word]) -> list[Entry]:
    if isinstance(x, AlgElem):
        return x.monomial_pairs()
    return [(0, x)]


def _mu(algebra: str, seq: Sequence[Union[AlgElem, Word]], fault: Optional[tuple] = None) -> OpResult:
    if not seq:
        raise ValueError("operations need at least one input")
    first = seq[0]
    n = first.n
    pair_lists = [_as_pairs(x) for x in seq]
    terms: list[Entry] = []
    tags: set[str] = set()
    for combo in iter_product(*pair_lists):
        tag, pairs = _mu_pairs(algebra, combo, n, fault)
        if pairs:
            tags.add(tag)
            terms.extend(pairs)
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


def mu_b(seq: Sequence[Union[AlgElem, BWord]], fault: Optional[tuple] = None) -> OpResult:
    """Higher operation of algebra B.

    >>> n = 3
    >>> tup = [BWord("c", 3, "s", 1, n), BWord("c", 2, "s", 1, n), BWord("c", 1, "s", 1, n)]
    >>> res = mu_b(tup)
    >>> res.tag, res.value.render()
    ('centered', 'V4*I1')
    """
    return _mu("B", seq, fault)


@functools.cache
def _valid_arities(algebra: str, n: int, max_arity: int) -> frozenset:
    """Arities <= max_arity whose operation can be nonzero: 2 and the valid higher ones."""
    return frozenset({2, *valid_higher_arities(algebra, n, max_arity)})


def relation_sum(algebra: str, words: Sequence[Word], n: int, fault: Optional[tuple] = None) -> AlgElem:
    """Sum of all composed operation terms on a tuple of basis words.

    Only splits whose inner arity r and outer arity size - r + 1 are both
    valid are visited; every other composed term vanishes.
    """
    size = len(words)
    valid = _valid_arities(algebra, n, size - 1)
    base: list[Entry] = [(0, w) for w in words]
    terms: list[Entry] = []
    for r in range(2, size):
        if r not in valid or size - r + 1 not in valid:
            continue
        for k in range(size - r + 1):
            _, inner = _mu_pairs(algebra, base[k : k + r], n, fault)
            for pair in inner:
                _, outer = _mu_pairs(algebra, base[:k] + [pair] + base[k + r :], n, fault)
                terms.extend(outer)
    return AlgElem.from_pairs(algebra, n, terms)


def _centered_tuples(algebra: str, arity: int, n: int) -> list[tuple[Word, ...]]:
    """All centered tuples of the given arity (non-idempotent chained words)."""
    out: list[tuple[Word, ...]] = []
    if algebra == "B":
        if arity != n:
            return out
        for i in range(1, n + 1):
            tup = tuple(BWord("c", advance(i, n - k, n), "s", 1, n) for k in range(1, n + 1))
            out.append(tup)
        return out
    step = 2 * n - 2
    if (arity - 2) % step:
        return out
    j = (arity - 2) // step
    if j < 1:
        return out
    budget = 2 * n * j
    target = [j] * (2 * n)

    def rec(prefix: list[Word], used: list[int], total: int) -> None:
        if len(prefix) == arity:
            if total == budget and used == target:
                out.append(tuple(prefix))
            return
        remaining_slots = arity - len(prefix)
        start_nodes = range(1, n + 1) if not prefix else [prefix[-1].fin]
        for node in start_nodes:
            for kind in ("u", "s"):
                for ell in range(1, budget - total - (remaining_slots - 1) + 1):
                    w = AWord(kind, node, ell, n)
                    g = grading(w)
                    new_used = [a + b for a, b in zip(used, g.alexander)]
                    if any(a > t for a, t in zip(new_used, target)):
                        continue
                    rec(prefix + [w], new_used, total + ell)

    rec([], [0] * (2 * n), 0)
    out.sort(key=lambda t: tuple(word_sort_key(w) for w in t))
    return out


def passing_windows(algebra: str, arity: int, max_total_len: int, n: int) -> list[tuple[Word, ...]]:
    """All tuples of the given arity on which the higher operation is nonzero."""
    # Every centered tuple has length 2Nj (A, arity (2N-2)j + 2) or N (B), and
    # every other passing window extends one by `extra` letters at one end.
    centered_len = n if algebra == "B" else 2 * n * ((arity - 2) // (2 * n - 2))
    if centered_len > max_total_len:
        return []
    windows: set[tuple[Word, ...]] = set()
    for tup in _centered_tuples(algebra, arity, n):
        windows.add(tup)
        first, last = tup[0], tup[-1]
        for extra in range(1, max_total_len - centered_len + 1):
            for ext in words_of_length(algebra, extra, n):
                merged_first = mul_word(ext, first)
                if merged_first is not None:
                    windows.add((merged_first,) + tup[1:])
                merged_last = mul_word(last, ext)
                if merged_last is not None:
                    windows.add(tup[:-1] + (merged_last,))
    return sorted(windows, key=lambda t: tuple(word_sort_key(w) for w in t))


def _relation_tuples(algebra: str, max_arity: int, max_total_len: int, n: int) -> set[tuple[Word, ...]]:
    """Every tuple within bounds that can have a nonzero relation term.

    A term mu_s(.., mu_r(W), ..) needs a nonzero operation W -> V^e*p, so the
    tuples are read off nonzero_operations: W with a word c on either side
    whose product with p is nonzero (outer mu_2), and W put in place of an
    entry p of a passing window (outer higher operation).  The window lookup
    drops the coefficient V^e; that is complete because an operation that is
    nonzero on V^e*p is nonzero on p, always for B and for A below outer
    arity 2N^2 (see _mu_pairs).
    """
    index = WordIndex(algebra, max_total_len, n)
    ops = [op for op in nonzero_operations(algebra, max_arity - 1, max_total_len, n) if len(op[0]) < max_arity]
    windows_at: dict[Word, list[tuple[tuple[Word, ...], int]]] = {}
    for window, _ in ops:
        if len(window) > 2:
            for k, w in enumerate(window):
                windows_at.setdefault(w, []).append((window, k))
    out: set[tuple[Word, ...]] = set()
    for inputs, outputs in ops:
        budget = max_total_len - sum(w.ell for w in inputs)
        for _, p in outputs:
            for c in index.by_exit[p.entry]:
                if c.ell <= budget and mul_word(c, p) is not None:
                    out.add((c,) + inputs)
            for c in index.by_entry[p.exit]:
                if c.ell <= budget and mul_word(p, c) is not None:
                    out.add(inputs + (c,))
            for window, k in windows_at.get(p, ()):
                t = window[:k] + inputs + window[k + 1 :]
                if len(t) <= max_arity and sum(w.ell for w in t) <= max_total_len:
                    out.add(t)
    return out


def _violation(algebra: str, words: Sequence[Word], total: AlgElem) -> dict:
    return {
        "algebra": algebra,
        "arity": len(words),
        "inputs": [w.render() for w in words],
        "lhs-sum": total.render(),
    }


def check_ainfty(
    algebra: str,
    max_arity: int,
    max_total_len: int,
    n: int,
    fault: Optional[tuple] = None,
) -> list[dict]:
    """Violations of the A-infinity relations within the given bounds.

    The relation is evaluated on every tuple that has a nonzero term (see
    _relation_tuples).  Those tuples are read off the unfaulted operations and
    a fault only deletes values, so injected faults cannot hide violations.
    The sweep is serial; violations are sorted by arity, then inputs.
    """
    if n <= 2:
        raise ValueError("the construction needs N > 2")
    violations: list[dict] = []
    for words in _relation_tuples(algebra, max_arity, max_total_len, n):
        total = relation_sum(algebra, words, n, fault)
        if not total.is_zero():
            violations.append(_violation(algebra, words, total))
    violations.sort(key=lambda v: (v["arity"], v["inputs"]))
    return violations


def nonzero_operations(
    algebra: str, max_arity: int, max_total_len: int, n: int
) -> Iterator[tuple[tuple[Word, ...], list[Entry]]]:
    """Every nonzero operation within bounds, as (inputs, output entries).

    First the binary products of chained word pairs with total length within
    bounds, then each higher operation on its passing windows, by arity.
    """
    for a, b in WordIndex(algebra, max_total_len, n).forward(2, max_total_len):
        word = mul_word(a, b)
        if word is not None:
            yield (a, b), [(0, word)]
    for r in valid_higher_arities(algebra, n, max_arity):
        for window in passing_windows(algebra, r, max_total_len, n):
            value = _mu(algebra, list(window)).value
            if not value.is_zero():
                yield window, value.monomial_pairs()


def op_grading_check(algebra: str, max_arity: int, max_total_len: int, n: int) -> list[dict]:
    """Grading-law violations over all nonzero operations within bounds.

    Binary products must add gradings; an arity-r operation must add r - 2 to
    the Maslov degree and preserve the weight vector (hence total length).
    """
    violations: list[dict] = []
    for inputs, outputs in nonzero_operations(algebra, max_arity, max_total_len, n):
        r = len(inputs)
        total = zero_grading(n)
        for w in inputs:
            total = total + grading(w)
        expect = Grading(total.m + r - 2, total.alexander, total.ell)
        for exp, word in outputs:
            got = _entry_grading(algebra, exp, word, n)
            if got != expect:
                violations.append(
                    {
                        "algebra": algebra,
                        "arity": r,
                        "inputs": [w.render() for w in inputs],
                        "reason": f"{'binary' if r == 2 else 'operation'} grading {got} != {expect}",
                    }
                )
    return violations


def parse_fault(text: Optional[str]) -> Optional[tuple]:
    """Parse a fault-injection spec: "break-h", "drop-mu2N" or "drop-mu2N:k".

    Only the syntax is checked here; the command line checks which verify
    kind the fault applies to and the range of k.
    """
    if text is None:
        return None
    if text == "break-h":
        return ("break-h",)
    if text == "drop-mu2N":
        return ("drop-a-centered", 0)
    if text.startswith("drop-mu2N:"):
        try:
            return ("drop-a-centered", int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(f"unknown fault spec {text!r}")


__all__ = [
    "OpResult",
    "mu_a",
    "mu_b",
    "relation_sum",
    "valid_higher_arities",
    "passing_windows",
    "nonzero_operations",
    "check_ainfty",
    "op_grading_check",
    "parse_fault",
    "TAG_ZERO",
    "TAG_BINARY",
    "TAG_CENTERED",
    "TAG_LEFT",
    "TAG_RIGHT",
    "TAG_MIXED",
]
