"""Tests for the two path algebras: words, products, gradings, bases."""
from __future__ import annotations

import itertools

import pytest
from reference import chained_tuples, split_b_word, started_at, unit, word_splits

from starcob.gradegroup import GP_E, GroupElem, assign_grading, gp_mul
from starcob.ring import POLY_ONE
from starcob.staralg import (
    AlgElem,
    AWord,
    BWord,
    Grading,
    WordTable,
    chain_ok,
    enumerate_basis,
    grading,
    idempotent,
    letter,
    mono_grading,
    mul_a,
    mul_b,
    mul_word,
    special_element,
    var_grading,
    word_letters,
    word_sort_key,
    words_of_length,
)


def _a(word):
    return AlgElem.from_word(word)


def test_a_word_endpoints_and_render():
    assert idempotent("A", 1, 3).render() == "I1"
    u = letter("A", "u", 2, 3)
    assert (u.init, u.fin, u.ell) == (2, 2, 1)
    assert u.render() == "U2"
    s = letter("A", "s", 3, 3)
    assert (s.init, s.fin) == (3, 1)
    assert s.render() == "s[3,4]"
    assert AWord("u", 1, 3, 3).render() == "U1^3"
    chain = AWord("s", 2, 4, 3)
    assert (chain.init, chain.fin) == (2, 3)
    assert chain.render() == "s[2,6]"


def test_b_word_endpoints_and_render():
    r = letter("B", "r", 1, 3)
    assert (r.init, r.fin, r.letters()[-1][0]) == (1, 1, "r")
    assert r.render() == "r1"
    s = letter("B", "s", 2, 3)
    assert (s.init, s.fin, s.letters()[-1][0]) == (2, 3, "s")
    assert s.render() == "s2"
    # Letters are stored in application order; the word below acts by
    # rho_1 first, then sigma_1, landing at node 2.
    w = BWord("c", 1, "r", 2, 3)
    assert (w.init, w.fin, w.letters()[-1][0]) == (1, 2, "s")
    assert w.render() == "r1.s1"
    assert w.letters() == [("r", 1), ("s", 1)]
    rebuilt = _from_letters([("r", 1), ("s", 1)], 3)
    assert rebuilt == w


def _from_letters(letters, n):
    """Rebuild a chain from application-order letters, checking that they
    form an alternating path."""
    word = BWord("c", letters[0][1], letters[0][0], len(letters), n)
    assert word.letters() == list(letters), letters
    return word


def test_word_splits_against_letter_slices():
    # B-splits are built directly; slicing letters() and rebuilding each part
    # with _from_letters is the reference.
    for w in enumerate_basis("B", 7, 3):
        letters = w.letters()
        for k in range(1, w.ell):
            expect = (_from_letters(letters[k:], 3), _from_letters(letters[:k], 3))
            assert split_b_word(w, k) == expect
    for algebra in ("A", "B"):
        for w in enumerate_basis(algebra, 7, 3):
            splits = word_splits(w)
            assert len(splits) == max(w.ell - 1, 0)
            for c, d in splits:
                assert not c.is_idempotent() and not d.is_idempotent()
                assert mul_word(c, d) == w
            letters = word_letters(w)
            assert len(letters) == w.ell
            if letters:
                prod = letters[0]
                for x in letters[1:]:
                    prod = mul_word(prod, x)
                assert prod == w


def test_a_multiplication_oracles():
    u1 = letter("A", "u", 1, 3)
    s1 = letter("A", "s", 1, 3)
    i1 = idempotent("A", 1, 3)
    i2 = idempotent("A", 2, 3)
    assert mul_a(_a(u1), _a(u1)) == _a(AWord("u", 1, 2, 3))
    assert mul_a(_a(i1), _a(u1)) == _a(u1)
    assert mul_a(_a(u1), _a(i1)) == _a(u1)
    assert mul_a(_a(i2), _a(u1)).is_zero()
    # Path composition is left-to-right for the edge chains.
    s2 = letter("A", "s", 2, 3)
    assert mul_a(_a(s1), _a(s2)) == _a(AWord("s", 1, 2, 3))
    assert mul_a(_a(s2), _a(s1)).is_zero()
    # Mixed loop/edge products vanish.
    assert mul_a(_a(u1), _a(s1)).is_zero()
    assert mul_a(_a(s1), _a(u1)).is_zero()


def test_b_multiplication_oracles():
    r1 = letter("B", "r", 1, 3)
    s1 = letter("B", "s", 1, 3)
    s3 = letter("B", "s", 3, 3)
    # Written product x*y applies y first; types must alternate.
    prod = mul_b(_a(s1), _a(r1))
    assert prod == _a(BWord("c", 1, "r", 2, 3))
    assert prod.render() == "r1.s1"
    assert mul_b(_a(r1), _a(r1)).is_zero()
    assert mul_b(_a(s1), _a(s3)).is_zero()
    # Seam mismatch vanishes even with alternating types.
    assert mul_b(_a(s3), _a(r1)).is_zero()
    r2 = letter("B", "r", 2, 3)
    assert mul_b(_a(r2), _a(s1)) == _a(BWord("c", 1, "s", 2, 3))


def test_b_identities_between_letters_and_idempotents():
    # rho_i composes only at node i on both sides; sigma_i maps i to i+1.
    n = 4
    for i in range(1, n + 1):
        r = _a(letter("B", "r", i, n))
        s = _a(letter("B", "s", i, n))
        ii = _a(idempotent("B", i, n))
        jj = _a(idempotent("B", i % n + 1, n))
        assert mul_b(r, ii) == r
        assert mul_b(ii, r) == r
        assert mul_b(s, ii) == s
        assert mul_b(jj, s) == s


def test_associativity_exhaustive_small():
    for algebra in ("A", "B"):
        basis = enumerate_basis(algebra, 4, 3)
        elems = [_a(w) for w in basis]
        for x, y, z in itertools.product(elems, repeat=3):
            assert x.mul(y).mul(z) == x.mul(y.mul(z))


def test_unit_is_identity():
    for algebra in ("A", "B"):
        one = unit(algebra, 3)
        for w in enumerate_basis(algebra, 3, 3):
            e = _a(w)
            assert one.mul(e) == e
            assert e.mul(one) == e


def test_basis_counts():
    # N idempotents plus 2N words of each positive length.
    for algebra in ("A", "B"):
        for n in (3, 4, 5):
            basis = enumerate_basis(algebra, 6, n)
            assert len(basis) == n + 2 * n * 6
            assert len(set(basis)) == len(basis)


def test_words_of_length_enumeration():
    ws = words_of_length("A", 2, 3)
    renders = [w.render() for w in ws]
    assert "U1^2" in renders
    assert "s[1,3]" in renders
    assert all(w.ell == 2 for w in ws)
    assert [w.render() for w in words_of_length("B", 0, 3)] == ["I1", "I2", "I3"]
    for algebra in ("A", "B"):
        basis = enumerate_basis(algebra, 3, 3)
        assert basis == sorted(basis, key=word_sort_key)
        for ell in range(4):
            ws = words_of_length(algebra, ell, 3)
            assert ws == sorted(ws, key=word_sort_key)
            assert set(ws) == {w for w in basis if w.ell == ell}


def test_entry_exit_nodes():
    # An A-word is entered at its start and left where its edges lead; a
    # B-word is entered where its letters lead and left at its start.
    for w in enumerate_basis("A", 4, 3):
        end = (w.start - 1 + (w.length if w.kind == "s" else 0)) % 3 + 1
        assert (w.entry, w.exit) == (w.start, end)
    for w in enumerate_basis("B", 4, 3):
        end = w.start
        for typ, i in w.letters():
            end = i % 3 + 1 if typ == "s" else i
        assert (w.entry, w.exit) == (end, w.start)
    # The stored nodes take no part in equality, hashing or repr.
    for w in (AWord("s", 2, 3, 3), BWord("c", 1, "s", 2, 3)):
        _assert_derived_slot_inert(w, "entry")
        _assert_derived_slot_inert(w, "exit")
    assert repr(AWord("s", 2, 3, 3)) == "AWord(kind='s', start=2, length=3, n=3)"
    assert chain_ok(AWord("s", 1, 1, 3), AWord("u", 2, 1, 3))
    assert chain_ok(BWord("c", 3, "s", 1, 3), BWord("c", 2, "s", 1, 3))
    assert not chain_ok(BWord("c", 2, "s", 1, 3), BWord("c", 3, "s", 1, 3))


def _walk_letters(w):
    # Reference: the letters walked node by node from the start.
    out, cur, typ = [], w.start, w.first
    for _ in range(w.length):
        out.append((typ, cur))
        if typ == "s":
            cur, typ = cur % w.n + 1, "r"
        else:
            typ = "s"
    return out


def _edge_count_entry(w):
    # Reference: the path ends one node on per edge letter s.
    edges = w.length // 2 if w.first == "r" else (w.length + 1) // 2
    return (w.start - 1 + edges) % w.n + 1


def _parity_last(w):
    # Reference: an odd-length chain ends on its first type, an even one not.
    if w.kind == "i":
        return ""
    if w.length % 2 == 1:
        return w.first
    return "s" if w.first == "r" else "r"


def _letter_product_grading(w):
    # Reference: the group product of the letter gradings in written order.
    acc = GP_E
    for typ, i in reversed(_walk_letters(w)):
        acc = gp_mul(acc, GroupElem(-1, ((i, 1),) if typ == "r" else ()))
    return acc


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_slot_run_against_letter_walk(n):
    # Every fact read off a B-word's run of weight slots equals the parent
    # letter-by-letter reading, through more than one full turn of the cycle.
    words = enumerate_basis("B", 4 * n, n)
    for w in words:
        assert w.first_slot == 2 * w.start - (1 if w.first == "s" else 2)
        assert w.letters() == _walk_letters(w), w.render()
        assert (w.entry, w.fin, w.exit) == (_edge_count_entry(w), _edge_count_entry(w), w.start)
        assert (w.letters()[-1][0] if w.length else "") == _parity_last(w)
        assert assign_grading(w) == _letter_product_grading(w), w.render()
        # the rendering, from the slot run, spells the walked letters
        walked = ".".join(f"{t}{i}" for t, i in _walk_letters(w))
        assert w.render() == (walked if w.length else f"I{w.start}")
    # Products: nonzero exactly across a seam where the letter types alternate.
    for x in words[: 3 * n]:
        for y in words:
            xy = mul_word(x, y)
            if x.is_idempotent() or y.is_idempotent():
                continue
            if y.fin != x.init or y.letters()[-1][0] == x.first:
                assert xy is None
            else:
                assert xy.letters() == _walk_letters(y) + _walk_letters(x)
    _assert_derived_slot_inert(BWord("c", 2, "r", 3, 3), "first_slot")


def _assert_derived_slot_inert(w, name):
    """Overwriting the derived slot `name` of w leaves its equality with a
    rebuilt copy, its hash and its repr as they were, and the repr never
    names the slot."""
    copy = started_at(w, w.start)
    text = repr(w)
    assert f"{name}=" not in text
    object.__setattr__(w, name, -1)
    assert w == copy and hash(w) == hash(copy) and repr(w) == text


def _seam(algebra, a, b):
    # The tensor-product seam spelled out per algebra, independent of the
    # words' stored entry/exit nodes.
    return a.fin == b.init if algebra == "A" else a.init == b.fin


def _first_node(algebra, w):
    return w.init if algebra == "A" else w.fin


def _layout_word(algebra, n, ell, off):
    # the word the id layout puts at (length >= 1, offset), built from its
    # description rather than from the table's arithmetic
    if algebra == "A":
        return AWord("u", off + 1, ell, n) if off < n else AWord("s", off - n + 1, ell, n)
    return BWord("c", off // 2 + 1, "rs"[off % 2], ell, n)


# (N, bound) windows of the table oracle: every id pair at bound <= 8, the
# chained pairs above it; each N from 3 to 8 reaches a bound past 3N
_TABLE_WINDOWS = [(3, 8), (4, 8), (3, 10), (4, 13)] + [
    (n, bound) for n in range(5, 9) for bound in (0, 1, 2 * n, 4 * n + 2)
]


def test_word_table_columns():
    # The id layout, and every column against the object-level word
    # functions: the product on every pair of ids (so the products the table
    # leaves out, unchained or over the bound, are exactly the zero ones),
    # `split`, the continuation table, and the entry/exit buckets.  At the
    # larger bounds the product is checked on every chained pair, and a row
    # holds chained ids only.
    for algebra in ("A", "B"):
        for n, bound in _TABLE_WINDOWS:
            table = WordTable(algebra, n, bound)
            words = table.words
            assert words == enumerate_basis(algebra, bound, n)
            assert words[:n] == [idempotent(algebra, i, n) for i in range(1, n + 1)]
            assert words[n : 3 * n] == (words_of_length(algebra, 1, n) if bound else [])
            for a in range(n, len(words)):
                ell, off = divmod(a - n, 2 * n)
                assert table.word_id(ell + 1, off) == a
                assert words[a] == _layout_word(algebra, n, ell + 1, off)
            assert table.ids == {w: a for a, w in enumerate(words)}
            assert table.ell == [w.ell for w in words]
            assert table.entry == [w.entry for w in words]
            assert table.exit == [w.exit for w in words]
            ids = range(len(words))
            for i in range(1, n + 1):
                assert table.by_entry[i] == [a for a in ids if _first_node(algebra, words[a]) == i]
            for a, x in enumerate(words):
                assert list(table.mul[a]) == sorted(table.mul[a])
                partners = ids if bound <= 8 else table.by_entry[table.exit[a]]
                assert set(table.mul[a]) <= set(partners)
                for b in partners:
                    y = words[b]
                    xy = mul_word(x, y)
                    want = None if xy is None or xy.ell > bound else table.ids[xy]
                    assert table.mul[a].get(b) == want, (x.render(), y.render())
                splits = [table.split(a, k) for k in range(1, table.ell[a])]
                assert splits == [(table.ids[c], table.ids[d]) for c, d in word_splits(x)]
            # conts[o][k]: the offset of the one letter that continues the
            # word of length k at offset o, which A writes after it and B before
            assert len(table.conts) == 2 * n
            for o, cont in enumerate(table.conts):
                assert len(cont) == bound
                for k in range(1, bound):
                    x = words[table.word_id(k, o)]
                    ends = [mul_word(x, y) if algebra == "A" else mul_word(y, x) for y in words[n : 3 * n]]
                    assert [off for off, xy in enumerate(ends) if xy is not None] == [cont[k]]


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_mul_rows_keep_the_split_list_insertion_order(algebra, n):
    # An oracle fills `mul` from per-word split lists: the units, then for
    # each word in id order every split (c, d) of it read backwards.  Each
    # row must hold the same items in the same order, which fixes the order
    # the sweeps meet products in.
    bound = 3 * n + 1
    table = WordTable(algebra, n, bound)
    words, ids = table.words, table.ids
    oracle = [{b: b for b in table.by_entry[i]} for i in range(1, n + 1)]
    oracle += ({words[a].exit - 1: a} for a in range(n, len(words)))
    for a, w in enumerate(words):
        for c, d in word_splits(w):
            oracle[ids[c]][ids[d]] = a
    assert [list(row.items()) for row in table.mul] == [list(row.items()) for row in oracle]


def test_table_build_makes_no_word_per_product(monkeypatch):
    # The tables fill their products and splits by arithmetic on the id
    # layout: building them (and their lazy columns) never calls the
    # object-level product.
    from starcob import ainfty, barcobar, staralg

    def refuse(*args):
        raise AssertionError("a table was filled from Word objects")

    for module in (staralg, ainfty, barcobar):
        monkeypatch.setattr(module, "mul_word", refuse, raising=False)
    for algebra in ("A", "B"):
        for n in (3, 4):
            WordTable(algebra, n, 4 * n)
            ops = ainfty._OpTables(algebra, n, 4 * n)
            assert ops.rotations and ops.higher
            tables = barcobar._WordTables(algebra, n, 4 * n)
            assert tables.psi and tables.block_next


def test_word_table_chains_against_brute_force():
    # WordTable.chains at every budget up to 4, over all nodes and per entry
    # node, against a filter over products of non-idempotent basis words
    # grouped by length: the same tuples of every arity, each exactly once.
    # The fixed-arity helper of the test oracles (k = 2, 3, idempotents
    # included) is checked against all k-fold products the same way.
    for algebra in ("A", "B"):
        for n in (3, 4):
            basis = enumerate_basis(algebra, 4, n)
            table = WordTable(algebra, n, 4)
            by_len = {}
            for w in basis:
                by_len.setdefault(w.ell, []).append(w)
            brute = set()
            for k in range(1, 5):
                for lens in itertools.product(range(1, 5), repeat=k):
                    if sum(lens) <= 4:
                        for t in itertools.product(*(by_len[ell] for ell in lens)):
                            if all(_seam(algebra, a, b) for a, b in zip(t, t[1:])):
                                brute.add(t)
            fixed = {
                k: [t for t in itertools.product(basis, repeat=k) if all(_seam(algebra, a, b) for a, b in zip(t, t[1:]))]
                for k in (2, 3)
            }
            for budget in range(5):
                for node in (None, *range(1, n + 1)):
                    def starts(t):
                        return node is None or _first_node(algebra, t[0]) == node

                    got = [tuple(table.words[a] for a in t) for t in table.chains(budget, entry=node)]
                    assert len(got) == len(set(got))
                    assert set(got) == {t for t in brute if sum(w.ell for w in t) <= budget and starts(t)}
                    for k, tuples in fixed.items():
                        got = [tuple(table.words[a] for a in t) for t in chained_tuples(table, k, budget, entry=node)]
                        assert len(got) == len(set(got))
                        assert set(got) == {t for t in tuples if sum(w.ell for w in t) <= budget and starts(t)}


def test_special_element_u_top():
    # The central element of the loop algebra: sum of full edge cycles.
    top = special_element("A", 3)
    assert len(top.terms) == 3
    for w in top.terms:
        assert w.kind == "s" and w.ell == 3
        assert w.init == w.fin
    assert AWord("s", 2, 3, 3) in top.terms
    assert top.render() == "s[1,4] + s[2,5] + s[3,6]"
    # Centrality against every generator.
    for w in enumerate_basis("A", 1, 3):
        e = _a(w)
        assert top.mul(e) == e.mul(top)


def test_special_element_u0():
    # The central element of the dual algebra: all full loops of length 2N.
    u0 = special_element("B", 3)
    assert len(u0.terms) == 6
    inits = sorted((w.init, w.first) for w in u0.terms)
    assert inits == [(1, "r"), (1, "s"), (2, "r"), (2, "s"), (3, "r"), (3, "s")]
    for w in u0.terms:
        assert w.ell == 6 and w.init == w.fin
    renders = {w.render() for w in u0.terms if w.init == 1}
    assert renders == {"r1.s1.r2.s2.r3.s3", "s1.r2.s2.r3.s3.r1"}
    for w in enumerate_basis("B", 1, 3):
        e = _a(w)
        assert u0.mul(e) == e.mul(u0)


def test_gradings_of_words_and_variables():
    n = 3
    # Loop-algebra words sit in Maslov degree zero.
    assert grading(AWord("u", 1, 2, n)) == Grading(0, (2, 0, 0, 0, 0, 0), 2)
    assert grading(AWord("s", 1, 3, n)) == Grading(0, (0, 1, 0, 1, 0, 1), 3)
    # Dual words drop one Maslov degree per letter.
    assert grading(letter("B", "r", 1, n)) == Grading(-1, (1, 0, 0, 0, 0, 0), 1)
    assert grading(letter("B", "s", 1, n)) == Grading(-1, (0, 1, 0, 0, 0, 0), 1)
    w = BWord("c", 1, "r", 2, n)
    assert grading(w) == Grading(-2, (1, 1, 0, 0, 0, 0), 2)
    assert var_grading(0, n) == Grading(4, (1, 1, 1, 1, 1, 1), 6)
    assert var_grading(4, n) == Grading(-2, (0, 1, 0, 1, 0, 1), 3)
    assert mono_grading(2, "A", n).m == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_grading_counts_the_letters(n):
    # The weight vector read off in closed form equals the letter-by-letter
    # count, through more than two full turns of the cycle.
    for algebra in ("A", "B"):
        for w in enumerate_basis(algebra, 4 * n + 2, n):
            vec = [0] * (2 * n)
            if algebra == "B":
                for typ, i in w.letters():
                    vec[2 * i - 2 if typ == "r" else 2 * i - 1] += 1
            else:
                for x in word_letters(w):
                    vec[2 * x.start - 2 if x.kind == "u" else 2 * x.start - 1] += 1
            m = 0 if algebra == "A" else -w.ell
            assert grading(w) == Grading(m, tuple(vec), w.ell), w.render()


def test_length_equals_total_weight():
    for algebra in ("A", "B"):
        for w in enumerate_basis(algebra, 8, 3):
            g = grading(w)
            assert g.ell == sum(g.alexander) == w.ell


def test_grading_additive_on_products():
    for algebra, mul in (("A", mul_a), ("B", mul_b)):
        basis = enumerate_basis(algebra, 5, 3)
        for x, y in itertools.product(basis, repeat=2):
            prod = mul(_a(x), _a(y))
            if prod.is_zero():
                continue
            expected = grading(x) + grading(y)
            for mono, w in prod.monomial_pairs():
                assert mono_grading(mono, algebra, 3) + grading(w) == expected


def test_coefficients_accumulate_in_native_variable():
    u1 = letter("A", "u", 1, 3)
    e = AlgElem.from_word(u1, 0b10)  # V0
    doubled = e + AlgElem.from_word(u1, POLY_ONE)
    assert doubled.render() == "(1 + V0)*U1"
    assert (e + e).is_zero()


def test_rejects_bad_nodes():
    with pytest.raises(ValueError):
        idempotent("A", 0, 3)
    with pytest.raises(ValueError):
        idempotent("A", 4, 3)
    with pytest.raises(ValueError):
        letter("B", "x", 1, 3)
