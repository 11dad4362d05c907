"""Tests for the higher operations and the relation checker."""
from __future__ import annotations

import collections
import functools
import itertools

import pytest
from reference import chained_tuples, split_a_word, split_b_word, started_at, word_splits

from starcob import ainfty, gradegroup
from starcob.ainfty import (
    TAG_BINARY,
    TAG_CENTERED,
    TAG_LEFT,
    TAG_RIGHT,
    TAG_ZERO,
    _entry_grading,
    _nonzero,
    op_tables,
    _OpTables,
    _relation_groups,
    check_ainfty,
    mu_a,
    mu_b,
    nonzero_operations,
    op_grading_check,
    passing_windows,
    relation_sum,
    relation_value,
)
from starcob.gradegroup import GroupElem, check_multiplicativity
from starcob.ring import mono_mul
from starcob.staralg import (
    AlgElem,
    AWord,
    BWord,
    Grading,
    advance,
    higher_arity,
    chain_ok,
    coeff_var,
    grading,
    idempotent,
    letter,
    mul_word,
    var_grading,
    word_sort_key,
    words_of_length,
)


def _u(i, n=3, p=1):
    return AWord("u", i, p, n)


def _s(i, n=3, length=1):
    return AWord("s", i, length, n)


def _sig(i, n=3):
    return letter("B", "s", i, n)


def _rho(i, n=3):
    return letter("B", "r", i, n)


def test_higher_arity():
    # A carries mu_{2N} only: the arities (2N-2)j + 2 with j >= 2 that the
    # grading admits hold no operation (tests/test_deformation.py).
    assert higher_arity("A", 3) == 6
    assert higher_arity("A", 4) == 8
    assert higher_arity("B", 3) == 3
    assert higher_arity("B", 5) == 5
    # the classifier's column, and the arity of every passing window
    for algebra, n in (("A", 3), ("A", 4), ("B", 3), ("B", 5)):
        assert op_tables(algebra, n, 4 * n).higher_arity == higher_arity(algebra, n)
        assert {len(w) for w in passing_windows(op_tables(algebra, n, 4 * n))} == {higher_arity(algebra, n)}
    # below its centered length no window passes
    assert passing_windows(op_tables("A", 3, 5)) == []


def test_mu_a_centered_rotation():
    res = mu_a([_u(1), _s(1), _u(2), _s(2), _u(3), _s(3)])
    assert res.tag == "centered"
    assert res.value.render() == "V0*I1"
    # Every cyclic rotation is nonzero; the idempotent follows the first word.
    rot = mu_a([_s(1), _u(2), _s(2), _u(3), _s(3), _u(1)])
    assert rot.tag == "centered"
    assert rot.value.render() == "V0*I1"
    rot2 = mu_a([_u(2), _s(2), _u(3), _s(3), _u(1), _s(1)])
    assert rot2.value.render() == "V0*I2"


@pytest.mark.parametrize(
    "call",
    [
        lambda: mu_a([BWord("c", 1, "r", 1, 3), BWord("c", 1, "s", 1, 3)]),
        lambda: mu_b([AWord("u", 1, 1, 3)] * 3),
        lambda: relation_value("A", [AWord("u", 1, 1, 4)] * 3, 3),
        lambda: mu_a([AlgElem.zero("B", 3)] * 6),
    ],
    ids=["B-words-to-mu_a", "A-words-to-mu_b", "another-N", "B-zero-to-mu_a"],
)
def test_foreign_words_are_rejected(call):
    # A word or element of the other algebra, or of another N, is refused
    # before any table is built, as AlgElem refuses such a word.
    with pytest.raises(ValueError, match="word does not belong to this algebra"):
        call()


def test_mu_a_extended_windows():
    left = mu_a([_u(1, p=2), _s(1), _u(2), _s(2), _u(3), _s(3)])
    assert left.tag == "left-extended"
    assert left.value.render() == "V0*U1"
    right = mu_a([_s(1), _u(2), _s(2), _u(3), _s(3), _u(1, p=2)])
    assert right.tag == "right-extended"
    assert right.value.render() == "V0*U1"
    # A merged edge chain on the right: the tail splits off.
    right2 = mu_a([_u(1), _s(1), _u(2), _s(2), _u(3), _s(3, length=2)])
    assert right2.tag == "right-extended"
    assert right2.value.render() == "V0*s[1,2]"


def test_mu_a_zero_cases():
    # Wrong total length.
    assert mu_a([_u(1), _s(1), _u(2), _s(2), _u(3)]).value.is_zero()
    # Arity not of the admissible shape.
    assert mu_a([_u(1), _s(1), _u(2)]).value.is_zero()
    # Broken chaining.
    res = mu_a([_u(1), _s(2), _u(2), _s(2), _u(3), _s(3)])
    assert res.value.is_zero()
    # Strict unitality: idempotent entries kill higher operations.
    res = mu_a([AWord("i", 1, 0, 3), _s(1), _u(2), _s(2), _u(3), _s(3)])
    assert res.value.is_zero()
    # That window is zero by its length alone.  This arity-10 one uses every
    # letter twice, as a j = 2 window would, and is zero since A has no
    # operation in arity 10; so is it with the unit I2.
    twice = [_u(1), _u(1), _s(1), _u(2), _u(2), _s(2), _u(3), _u(3), _s(3), _s(1, length=3)]
    assert mu_a(twice).value.is_zero()
    with_unit = twice[:3] + [AWord("i", 2, 0, 3)] + twice[3:6] + [_u(3, p=2)] + twice[8:]
    assert len(with_unit) == 10
    assert mu_a(with_unit).value.is_zero()


def test_mu_a_higher_weight():
    # A chained arity-10 tuple of weight (2, ..., 2): zero, since A carries
    # no operation in arity 4N - 2.
    seq = [
        _u(1),
        _u(1),
        _s(1, length=2),
        _u(3),
        _u(3),
        _s(3),
        _s(1),
        _u(2, p=2),
        _s(2),
        _s(3),
    ]
    res = mu_a(seq)
    assert res.tag == TAG_ZERO
    assert res.value.is_zero()


def test_mu_b_centered_and_extended():
    res = mu_b([_sig(3), _sig(2), _sig(1)])
    assert res.tag == "centered"
    assert res.value.render() == "V4*I1"
    for i in (1, 2, 3):
        chain = [_sig((i + k - 1) % 3 + 1) for k in reversed(range(3))]
        out = mu_b(chain)
        assert out.tag == "centered"
        assert out.value.render() == f"V4*I{i}"
    left = mu_b([BWord("c", 3, "s", 2, 3), _sig(2), _sig(1)])
    assert left.tag == "left-extended"
    assert left.value.render() == "V4*r1"
    right = mu_b([_sig(3), _sig(2), BWord("c", 1, "r", 2, 3)])
    assert right.tag == "right-extended"
    assert right.value.render() == "V4*r1"


def test_mu_b_zero_cases():
    # A loop letter in the middle breaks the bare-edge pattern.
    assert mu_b([_sig(3), _rho(2), _sig(1)]).value.is_zero()
    # Chain mismatch.
    assert mu_b([_sig(3), _sig(1), _sig(1)]).value.is_zero()
    # Idempotent entry.
    from starcob.staralg import idempotent

    assert mu_b([_sig(3), idempotent("B", 2, 3), _sig(1)]).value.is_zero()
    # Wrong arity.
    assert mu_b([_sig(1), _rho(1)]).tag == "binary"
    assert mu_b([_sig(2), _sig(1)]).value.is_zero()
    assert mu_b([_sig(3), _sig(2), _sig(1), _rho(1)]).value.is_zero()


def test_relation_sum_vanishes_on_witness_tuples():
    assert relation_value("A", [_u(1), _u(1), _s(1), _u(2), _s(2), _u(3), _s(3)], 3).is_zero()
    assert relation_value("B", [_rho(1), _sig(3), _sig(2), _sig(1)], 3).is_zero()
    assert relation_value("B", [_sig(3), _sig(2), _sig(1), _rho(1)], 3).is_zero()


def _word_windows(algebra, max_len, n):
    """The passing windows of the table of (algebra, N, max_len), as Word tuples."""
    ops = op_tables(algebra, n, max_len)
    return [tuple(ops.words[a] for a in t) for t in passing_windows(ops)]


def test_passing_windows_at_base_arity():
    wins = _word_windows("A", 6, 3)
    assert len(wins) == 6
    for w in wins:
        res = mu_a(list(w))
        assert res.tag == "centered"
        assert not res.value.is_zero()
    wins_b = _word_windows("B", 3, 3)
    assert len(wins_b) == 3
    for w in wins_b:
        assert mu_b(list(w)).tag == "centered"


def test_check_ainfty_clean():
    assert check_ainfty("A", 8, 12, 3) == []
    assert check_ainfty("B", 5, 9, 3) == []


def test_fault_injection_detected_for_every_component():
    # Dropping any single centered component must break the relations.
    for comp in range(6):
        violations = check_ainfty("A", 8, 12, 3, fault=("drop-a-centered", comp))
        assert violations, f"component {comp} undetected"
        for v in violations:
            assert v["algebra"] == "A"
            assert v["arity"] >= 3
            assert v["lhs-sum"] != "0"


def test_fault_changes_single_operation():
    clean = mu_a([_u(1), _s(1), _u(2), _s(2), _u(3), _s(3)])
    dropped = mu_a([_u(1), _s(1), _u(2), _s(2), _u(3), _s(3)], fault=("drop-a-centered", 0))
    assert not clean.value.is_zero()
    assert dropped.value.is_zero()
    kept = mu_a([_u(1), _s(1), _u(2), _s(2), _u(3), _s(3)], fault=("drop-a-centered", 1))
    assert kept.value == clean.value


def test_drop_component_out_of_range_is_refused():
    # k is a component 0 <= k < 2N, not read mod 2N, by every caller.
    centered = [_u(1), _s(1), _u(2), _s(2), _u(3), _s(3)]
    with pytest.raises(ValueError, match="cannot be injected"):
        check_ainfty("A", 8, 12, 3, ("drop-a-centered", 6))
    with pytest.raises(ValueError, match="cannot be injected"):
        relation_value("A", [_u(1)] + centered, 3, ("drop-a-centered", 6))
    with pytest.raises(ValueError, match="cannot be injected"):
        mu_a(centered, fault=("drop-a-centered", 6))
    with pytest.raises(ValueError, match="cannot be injected"):
        mu_a(centered, fault=("drop-a-centered", -1))


def test_fault_of_the_wrong_kind_is_refused():
    # break-h zeroes the homotopy, and B has no centered component to drop.
    with pytest.raises(ValueError, match="cannot be injected"):
        check_ainfty("A", 8, 12, 3, ("break-h",))
    with pytest.raises(ValueError, match="cannot be injected"):
        check_ainfty("B", 5, 9, 3, ("drop-a-centered", 0))
    with pytest.raises(ValueError, match="cannot be injected"):
        relation_value("B", [_rho(1), _sig(3), _sig(2), _sig(1)], 3, ("drop-a-centered", 0))


# Object-level reference classifier: the operations as they were written on
# Word entries before they ran on interned ids.  It is the oracle of the id
# classifier ainfty._classify.


def _ref_is_unit(exp, word):
    return word.is_idempotent() and exp == 0


def _ref_classify_a(entries, n, fault=None):
    arity = len(entries)
    words = [w for _, w in entries]
    if any(_ref_is_unit(m, w) for m, w in entries):
        return (TAG_ZERO, [])
    if not all(map(chain_ok, words, words[1:])):
        return (TAG_ZERO, [])
    if arity != 2 * n:
        return (TAG_ZERO, [])
    j = 1  # mu_{2N} is the one higher operation of A
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
            if fault[1] == 2 * (w0.start - 1) + (0 if w0.kind == "u" else 1):
                return (TAG_ZERO, [])
        return (TAG_CENTERED, [(coeff, idempotent("A", words[0].init, n))])

    if excess < 0:
        return (TAG_ZERO, [])

    def _try_left():
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

    def _try_right():
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


def _ref_classify_b(entries, n, fault=None):
    arity = len(entries)
    words = [w for _, w in entries]
    if any(_ref_is_unit(m, w) for m, w in entries):
        return (TAG_ZERO, [])
    if arity != n or not all(map(chain_ok, words, words[1:])):
        return (TAG_ZERO, [])

    def _bare_sigma(k):
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
        if wn.kind == "c" and wn.length >= 2 and wn.letters()[-1][0] == "s":
            remainder = split_b_word(wn, wn.length - 1)[1]
            return (TAG_RIGHT, [(coeff, remainder)])

    return (TAG_ZERO, [])


def _ref_mu_pairs(algebra, entries, n, fault=None):
    """Operation value on one tuple of (coefficient exponent, word) entries."""
    arity = len(entries)
    if arity == 1:
        return (TAG_ZERO, [])
    if arity == 2:
        (ma, wa), (mb, wb) = entries
        word = mul_word(wa, wb)
        if word is None:
            return (TAG_ZERO, [])
        return (TAG_BINARY, [(mono_mul(ma, mb), word)])
    if algebra == "A":
        return _ref_classify_a(entries, n, fault)
    return _ref_classify_b(entries, n, fault)


@pytest.mark.parametrize("algebra, arity, max_len", [("A", 6, 7), ("A", 7, 7), ("B", 3, 6), ("B", 4, 6)])
@pytest.mark.parametrize("n", [3, 4])
def test_classifier_matches_object_oracle(algebra, arity, max_len, n):
    # Every chained tuple (idempotents included), with exponent 0, or 1 or 2
    # on one entry at a time, unfaulted and under every drop-mu2N:k.  A
    # variant with a unit entry (an idempotent with exponent 0) is zero by
    # strict unitality, which the kernel must show; with two or more
    # idempotents every variant has one, so those tuples run at exponent 0
    # only.  A fault only deletes values, so the reference is consulted under
    # each fault only where its unfaulted value is nonzero.
    ops = op_tables(algebra, n, max_len + 2 * var_grading(coeff_var(algebra, n), n).ell)
    classify = ainfty._classify
    checked = nonzero = 0
    for ids in chained_tuples(ops, arity, max_len):
        t = tuple(ops.words[a] for a in ids)
        idems = [a < n for a in ids]
        if sum(idems) > 1:
            assert classify(ops, tuple((0, a) for a in ids)) is None, t
            continue
        for i, e in [(None, 0)] + [(i, e) for i in range(arity) for e in (1, 2)]:
            exps = [e if k == i else 0 for k in range(arity)]
            got = classify(ops, tuple(zip(exps, ids)))
            if any(idem and not x for idem, x in zip(idems, exps)):
                assert got is None, (t, exps)
                continue
            checked += 1
            entries = tuple(zip(exps, t))
            tag, pairs = _ref_mu_pairs(algebra, entries, n)
            assert got == (None if not pairs else (tag, pairs[0][0], ops.ids[pairs[0][1]])), entries
            for k in range(2 * n):
                want = None
                if pairs:
                    tag_k, pairs_k = _ref_mu_pairs(algebra, entries, n, ("drop-a-centered", k))
                    want = (tag_k, pairs_k[0][0], ops.ids[pairs_k[0][1]]) if pairs_k else None
                assert classify(ops, tuple(zip(exps, ids)), k) == want, (entries, k)
            nonzero += bool(pairs)
    assert checked
    # only A at N=3, arity 6 and B at arity N reach a higher operation here
    assert bool(nonzero) == ((algebra, n, arity) in {("A", 3, 6), ("B", 3, 3), ("B", 4, 4)})


def test_coefficient_entries_at_arity_2n_squared():
    # The j >= 2 operations let an entry with a coefficient pass first at
    # j = N + 1 (N=3: arity 18), where V0*I1 stood in for one turn of
    # letters.  A has no operation in arity 18, so both tuples give zero.  At
    # arity 2N the kernel drops every entry with a coefficient at once; the
    # reference weighs V0 in its length and weight tests and must agree, on
    # the centered window with V0 on each entry in turn and on a
    # left-extended one, nonzero as it stands, with V0 on its last entry.
    n = 3
    turn = [_s(1), _u(2), _s(2), _u(3), _s(3)]
    at_18 = [
        [(1, idempotent("A", 1, n)), (0, _u(1, p=2))] + [(0, w) for w in turn + [_u(1)] + turn + turn],
        [(1, _u(1, p=2))] + [(0, w) for w in turn + [_u(1)] + turn + [_u(1)] + turn],
    ]
    centered = [_u(1)] + turn
    at_2n = [[(int(k == i), w) for k, w in enumerate(centered)] for i in range(2 * n)]
    at_2n.append([(0, _u(1, p=2))] + [(0, w) for w in turn[:-1]] + [(1, turn[-1])])
    assert not mu_a([_u(1, p=2)] + turn).value.is_zero()
    for entries in at_18 + at_2n:
        assert len(entries) in (18, 2 * n)
        elems = [AlgElem.from_word(w, 1 << e) for e, w in entries]
        for k in [None, *range(2 * n)]:
            fault = None if k is None else ("drop-a-centered", k)
            tag, pairs = _ref_mu_pairs("A", tuple(entries), n, fault)
            got = mu_a(elems, fault)
            assert (got.tag, got.value) == (tag, AlgElem.from_pairs("A", n, pairs))
            assert got.value.is_zero()


def test_both_extended_window_is_zero():
    # The arity-10 window that the j = 2 operation classified as both left-
    # and right-extended, and raised on, is zero now that A has no operation
    # in arity 10: in the reference, in the kernel and in mu_a.
    n = 3
    window = [
        _s(1, length=2), _u(3), _u(3), _s(3), _u(1), _u(1), _s(1), _u(2), _u(2), _s(2, length=3),
    ]
    assert "s[1,3].U3.U3.s[3,4].U1.U1.s[1,2].U2.U2.s[2,5]" == ".".join(w.render() for w in window)
    assert _ref_mu_pairs("A", tuple((0, w) for w in window), n) == (TAG_ZERO, [])
    ops = op_tables("A", n, 13)
    assert ainfty._classify(ops, tuple((0, ops.ids[w]) for w in window)) is None
    assert mu_a(window).value.is_zero()


def _term_oracle(algebra, n, mu_pairs=_ref_mu_pairs):
    """Whether some composed term mu(.., mu(..), ..) of the relation on a
    tuple is nonzero, over every split and unfaulted operation of the
    reference.  Operation values are memoized per oracle, which meets the
    same sub-tuples often."""
    op = functools.cache(lambda entries: mu_pairs(algebra, entries, n)[1])

    def has_term(words):
        base = tuple((0, w) for w in words)
        size = len(words)
        for r in range(2, size):
            for k in range(size - r + 1):
                for pair in op(base[k : k + r]):
                    if op(base[:k] + (pair,) + base[k + r :]):
                        return True
        return False

    return has_term


def _chained_words(algebra, arity, max_len, n=3):
    """Every chained tuple of one arity (idempotents included), as words."""
    ops = op_tables(algebra, n, max_len)
    return [tuple(ops.words[a] for a in t) for t in chained_tuples(ops, arity, max_len)]


def _relation_tuples(ops, max_arity, entry):
    """The tuples entered at `entry` that the sweep evaluates: the union of
    its groups, each of which holds only tuples that start with its key,
    disjoint from the others."""
    out = set()
    for a, group in _relation_groups(ops, max_arity, entry):
        assert group and {t[0] for t in group} == {a} and ops.entry[a] == entry
        assert out.isdisjoint(group)
        out |= group
    return out


def _swept(algebra, arity, max_len, n=3, entry=1):
    """The tuples of one arity entered at one node that check_ainfty
    evaluates, as words."""
    ops = op_tables(algebra, n, max_len)
    return {tuple(ops.words[a] for a in t) for t in _relation_tuples(ops, arity, entry) if len(t) == arity}


def _by_entry(tuples, n=3):
    """Word tuples partitioned by the node where the first word is entered."""
    parts = {i: set() for i in range(1, n + 1)}
    for t in tuples:
        parts[t[0].entry].add(t)
    return parts


def _rotated(t, j):
    """A tuple of words turned j nodes on, node i to node i+j."""
    return tuple(started_at(w, advance(w.start, j, w.n)) for w in t)


def test_candidate_set_complete_against_brute_force():
    # In each arity the swept tuples entered at each node are exactly the
    # chained tuples (idempotents included) entered there that have a
    # nonzero relation term, over every split and unfaulted operation, and
    # the rotations of the node-1 tuples are all of them.  Arity 3 has only
    # mu_2 o mu_2 terms; A arity 7 has mu_6 o mu_2 and mu_2 o mu_6; B arity 5
    # at N=3 has mu_3 o mu_3.
    for algebra, arity, max_len, count in (
        ("A", 3, 4, 387),
        ("B", 3, 4, 387),
        ("A", 7, 7, 145917),
        ("B", 4, 6, 3867),
        ("B", 5, 7, 21549),
    ):
        tuples = _chained_words(algebra, arity, max_len)
        assert len(tuples) == count
        complete = set(filter(_term_oracle(algebra, 3), tuples))
        parts = _by_entry(complete)
        for i, part in parts.items():
            swept = _swept(algebra, arity, max_len, entry=i)
            assert swept
            assert swept == part
        assert {_rotated(t, j) for t in parts[1] for j in range(3)} == complete
        if (algebra, arity) == ("A", 7):
            # A dropped centered component gives violations, and each lies
            # in the set built from the unfaulted operations.
            fault = ("drop-a-centered", 0)
            # by total length, which is the bound of relation_value's table,
            # so the one cached table is built once per length
            by_length = sorted(tuples, key=lambda t: sum(w.ell for w in t))
            violating = {t for t in by_length if not relation_value("A", t, 3, fault).is_zero()}
            assert violating
            assert violating <= complete


def _without_centered_at_node_1(classify):
    """The classifier with the centered value whose last word starts at node
    1 dropped: a fault that leaves relation terms without a partner."""

    def dropped(ops, entries, drop=None):
        res = classify(ops, entries, drop)
        if res is not None and res[0] == TAG_CENTERED and ops.words[entries[-1][1]].init == 1:
            return None
        return res

    return dropped


@pytest.fixture
def fresh_op_tables():
    """Op tables built afresh for the test and dropped after it, pass or
    fail: a column built lazily under a patched classifier (`higher`) must
    not outlive the patch in the held table."""
    _OpTables._held = None
    yield
    _OpTables._held = None


def test_windows_of_a_fresh_table_read_that_table(fresh_op_tables, monkeypatch):
    # A fresh table's windows must come from its own columns, so that a
    # corrupted fresh table is what the sweep reads: reading them builds no
    # other table.
    tables = _OpTables("A", 3, 13)
    built, init = [], _OpTables.__init__
    monkeypatch.setattr(_OpTables, "__init__", lambda ops, *args: built.append(args) or init(ops, *args))
    assert passing_windows(tables) and tables.higher
    assert built == []


def test_a_corrupted_fresh_table_is_swept_on_its_own_windows():
    # Moving one continuation offset on changes the table's split, and so
    # which tuples pass: the corrupted table gains a window the clean one
    # lacks (and loses one).  The relation sweep on that table must read
    # its own windows, so a violation appears through the new one.
    clean, ops = _OpTables("A", 3, 13), _OpTables("A", 3, 13)
    ops.conts[3][2] = (ops.conts[3][2] + 1) % 6
    (extra,) = set(ops.higher) - set(clean.higher)
    assert len(ops.higher) == len(clean.higher) == 90
    h = ops.higher_arity
    violating = [t for t in _relation_tuples(ops, 8, 1) if relation_sum(ops, t)]
    assert len(violating) == 18
    assert any(t[k : k + h] == extra for t in violating for k in range(len(t) - h + 1))


def test_window_building_reads_no_word():
    # The windows and the higher column are built on ids alone.
    class NoWords:
        def __getitem__(self, a):
            raise AssertionError("a window was built through a Word")

    for algebra, n, max_len in (("A", 3, 13), ("B", 4, 12)):
        ops = _OpTables(algebra, n, max_len)
        ops.words = NoWords()
        assert passing_windows(ops) and ops.higher


def test_relation_tuples_complete_when_relations_fail(fresh_op_tables, monkeypatch):
    # Where the relations hold, every tuple with a nonzero term has a second
    # one, so the test above cannot tell if one way of building tuples is
    # lost.  With the centered B value at node 1 dropped from the operation
    # itself (in the id classifier, and in the reference the oracle uses),
    # tuples with a single nonzero term occur for an outer mu_2 on either
    # side and for an outer mu_3; the swept set at each entry node must
    # still equal the brute-force one.  The drop is not rotation-covariant,
    # so the sets of the three nodes differ.
    def ref_dropped(algebra, entries, n):
        tag, value = _ref_mu_pairs(algebra, entries, n)
        if tag == TAG_CENTERED and entries[-1][1].init == 1:
            return (TAG_ZERO, [])
        return (tag, value)

    monkeypatch.setattr(ainfty, "_classify", _without_centered_at_node_1(ainfty._classify))
    tuples = _chained_words("B", 4, 6)
    parts = _by_entry(filter(_term_oracle("B", 3, ref_dropped), tuples))
    for i, part in parts.items():
        assert _swept("B", 4, 6, entry=i) == part
    assert sum(not relation_value("B", t, 3).is_zero() for t in tuples) == 12


def test_entry_splits_of_deep_windows_are_candidates():
    # Splitting one entry of an arity-2N window into two non-idempotent
    # words gives arity-(2N+1) tuples with a mu_{2N} o mu_2 term.  At N=4,
    # length <= 10, the windows reach two letters past the centered length,
    # so an extended end entry splits in more than one place.
    n = 4
    table = op_tables("A", n, 10)
    splits = set()
    for window in _word_windows("A", 10, n):
        for t, w in enumerate(window):
            for ids in table.chains(w.ell, entry=w.entry):
                pair = tuple(table.words[a] for a in ids)
                if len(pair) == 2 and mul_word(*pair) == w:
                    splits.add(window[:t] + pair + window[t + 1 :])
    for i, part in _by_entry(splits, n).items():
        assert part
        assert part <= _swept("A", 9, 10, n, entry=i)


# The sweep over every entry node, as check_ainfty ran it before it checked
# one tuple per rotation orbit: the oracle of the orbit sweep.


def _all_relation_tuples(ops, max_arity):
    """Every id tuple within bounds that can have a nonzero relation term,
    entered at any node."""
    ell, mul, max_len = ops.ell, ops.mul, ops.max_len
    nonzero = [(t, sum(ell[a] for a in t), p) for t, _, p in _nonzero(ops, max_arity - 1) if len(t) < max_arity]
    windows_at = {}
    for window, length, _ in nonzero:
        if len(window) > 2:
            for k, a in enumerate(window):
                windows_at.setdefault(a, []).append((window, length, k))
    out = set()
    for t, length, p in nonzero:
        budget = max_len - length
        for c, node in enumerate(ops.exit):
            if node == ops.entry[p] and ell[c] <= budget and p in mul[c]:
                out.add((c,) + t)
        for c in ops.by_entry[ops.exit[p]]:
            if ell[c] <= budget and c in mul[p]:
                out.add(t + (c,))
        for window, window_len, k in windows_at.get(p, ()):
            if len(window) + len(t) - 1 <= max_arity and window_len - ell[p] + length <= max_len:
                out.add(window[:k] + t + window[k + 1 :])
    return out


def _full_check_ainfty(algebra, max_arity, max_len, n, fault=None):
    ops = op_tables(algebra, n, max_len)
    drop = ainfty._dropped(fault, algebra, n)
    violations = []
    for ids in _all_relation_tuples(ops, max_arity):
        total = relation_sum(ops, ids, drop)
        if total:
            violations.append(ainfty._violation(ops, ids, total))
    violations.sort(key=lambda v: (v["arity"], v["inputs"]))
    return violations


@pytest.mark.parametrize(
    "algebra, n, max_arity, max_len",
    [("A", 3, 8, 12), ("A", 3, 11, 13), ("A", 4, 10, 16), ("A", 5, 12, 20), ("B", 3, 7, 12), ("B", 4, 6, 12), ("B", 6, 8, 18)],
)
def test_node_1_tuples_are_one_per_rotation_orbit(algebra, n, max_arity, max_len):
    # The tuples entered at nodes 1..N partition the full sweep's set, and
    # the rotations of the node-1 tuples, each turned j = 0..N-1 nodes on,
    # are that set, N distinct copies of each.
    ops = op_tables(algebra, n, max_len)
    full = _all_relation_tuples(ops, max_arity)
    parts = [_relation_tuples(ops, max_arity, i) for i in range(1, n + 1)]
    for i, part in enumerate(parts, 1):
        assert part == {t for t in full if ops.entry[t[0]] == i}
    orbit = [tuple(turn[a] for a in t) for t in parts[0] for turn in ops.rotations]
    assert len(orbit) == len(set(orbit)) == len(full)
    assert set(orbit) == full


@pytest.mark.parametrize("n, windows", [(3, [(8, 12), (9, 10)]), (4, [(10, 16), (9, 12)])])
def test_orbit_sweep_matches_the_full_sweep_under_every_fault(n, windows):
    # Unfaulted and under every drop-mu2N:k, at two windows each, the orbit
    # sweep reports exactly what the sweep over every entry node does.
    # Under a fault the violations are not rotation-invariant; each pass of
    # the node-1 tuples under drop k - 2j gives those entered at node 1 + j.
    for max_arity, max_len in windows:
        assert check_ainfty("A", max_arity, max_len, n) == _full_check_ainfty("A", max_arity, max_len, n) == []
        for k in range(2 * n):
            fault = ("drop-a-centered", k)
            got = check_ainfty("A", max_arity, max_len, n, fault)
            assert got
            assert got == _full_check_ainfty("A", max_arity, max_len, n, fault)
            # a violation at every entry node, not at node 1 only
            entry_of = {w.render(): w.entry for w in op_tables("A", n, max_len).words}
            assert {entry_of[v["inputs"][0]] for v in got} == set(range(1, n + 1))


@pytest.mark.parametrize("algebra, n", [("B", 3), ("B", 4), ("B", 5), ("A", 5)])
def test_clean_orbit_sweep_matches_the_full_sweep(algebra, n):
    max_arity, max_len = higher_arity(algebra, n) + 2, (4 if algebra == "A" else 3) * n
    assert check_ainfty(algebra, max_arity, max_len, n) == _full_check_ainfty(algebra, max_arity, max_len, n) == []


# relation_sum as it ran before it read the operations off the op table,
# classifying every split of the tuple: the oracle of the lookup kernel.


def _split_relation_sum(ops, ids, drop=None):
    """Sum of all composed operation terms on a tuple of word ids, as
    {id: coefficient bitmask}, with each inner and outer operation of each
    split given by the classifier."""
    size = len(ids)
    arities = (2, ops.higher_arity)
    base = [(0, a) for a in ids]
    acc = {}
    for r in arities:
        if size - r + 1 not in arities:
            continue
        for k in range(size - r + 1):
            inner = ainfty._classify(ops, base[k : k + r], drop)
            if inner is not None:
                outer = ainfty._classify(ops, base[:k] + [inner[1:]] + base[k + r :], drop)
                if outer is not None:
                    _, e, q = outer
                    acc[q] = acc.get(q, 0) ^ (1 << e)
    return {q: c for q, c in acc.items() if c}


def _term_arities(ops):
    """The arities in which relation_sum has terms: an inner and an outer
    arity each 2 or h."""
    h = ops.higher_arity
    return sorted({r + s - 1 for r in (2, h) for s in (2, h)})


def _without_first_coefficient(classify):
    """The higher operation vanishing when its first entry carries a
    coefficient: in B it deletes the mu_h o mu_h terms whose inner value
    comes first, and leaves their partners."""

    def dropped(ops, entries, drop=None):
        if len(entries) == ops.higher_arity and entries[0][0]:
            return None
        return classify(ops, entries, drop)

    return dropped


# Every chained tuple of a small window, then every swept tuple (at every
# entry node) of windows that reach arity 2h - 1.
_SPLIT_ORACLE_WINDOWS = [("A", 3, None, 7), ("B", 3, None, 7), ("A", 3, 11, 13), ("A", 4, 15, 16), ("B", 3, 5, 9), ("B", 4, 7, 12)]
_CLASSIFIER_FAULTS = {"node-1": _without_centered_at_node_1, "first-coefficient": _without_first_coefficient}


@pytest.mark.parametrize(
    "algebra, n, max_arity, max_len, fault",
    [(*w, None) for w in _SPLIT_ORACLE_WINDOWS]
    + [(*w, f) for w in _SPLIT_ORACLE_WINDOWS if w[0] == "B" for f in _CLASSIFIER_FAULTS]
    + [(*w, "mul") for w in _SPLIT_ORACLE_WINDOWS if w[2] is None]
    + [("B", 3, None, 7, "mul-past-3")],
)
def test_relation_sum_matches_the_split_oracle(algebra, n, max_arity, max_len, fault, fresh_op_tables, monkeypatch):
    # The lookup kernel gives the classifier's sum on each tuple, with no
    # drop and under every drop k (B ignores it).  B's relations hold, so
    # each B window also runs under two faults of the classifier itself, in
    # fresh tables whose `higher` column is built under the fault: one
    # leaves mu_h o mu_2 and mu_2 o mu_h terms without a partner, the other
    # mu_h o mu_h terms, which only the kernel's call to the classifier
    # reaches.  The product is associative, so the arity-3 tuples of the
    # small windows also run with one product deleted from the table.  Past
    # arity 3, at B N=3, the same fault leaves the higher operation whole:
    # `windows` and the classifier both read `split`, not `mul`, so the
    # kernel still gives the oracle's sums, and the deleted product leaves
    # arity-4 sums without a partner.  In the small windows, tuples past
    # arity 3 with two idempotents are left out: every split of one leaves a
    # unit among a higher operation's inputs, where both kernels vanish.
    if fault in _CLASSIFIER_FAULTS:
        monkeypatch.setattr(ainfty, "_classify", _CLASSIFIER_FAULTS[fault](ainfty._classify))
    ops = op_tables(algebra, n, max_len)
    h = ops.higher_arity
    if max_arity is None:
        tuples = [
            t for size in _term_arities(ops) for t in chained_tuples(ops, size, max_len, units=None if size == 3 else 1)
        ]
    else:
        tuples = sorted(_all_relation_tuples(ops, max_arity))
    if fault in ("mul", "mul-past-3"):
        a = ops.by_entry[1][1]  # a letter
        del ops.mul[a][next(b for b in ops.mul[a] if b >= n)]
        tuples = [t for t in tuples if (len(t) == 3) == (fault == "mul")]
    nonzero = set()
    for d in [None, *range(2 * n)] if fault is None else [None]:
        got = [relation_sum(ops, t, d) for t in tuples]
        assert got == [_split_relation_sum(ops, t, d) for t in tuples]
        nonzero |= {len(t) for t, total in zip(tuples, got) if total}
    # not vacuous: the drops and faults leave sums where their terms are
    expect = {None: {h + 1} if algebra == "A" else set(), "node-1": {h + 1}, "first-coefficient": {2 * h - 1}, "mul": {3}, "mul-past-3": {h + 1}}
    assert nonzero == expect[fault]


@pytest.mark.parametrize("algebra, n, max_len", [("A", 3, 13), ("A", 4, 10), ("B", 3, 9), ("B", 4, 12)])
def test_higher_column_is_the_classifier(algebra, n, max_len):
    # On every chained tuple of the higher arity within the bound, the
    # classifier is nonzero exactly where `higher` has an entry, with the
    # same value, and vanishes under drop k exactly when k is the entry's
    # component.  The tuples are built by brute force, so a passing window
    # that `passing_windows` misses fails here.  Tuples with an idempotent
    # (checked at length <= 6) vanish in the classifier, and `higher` holds
    # none.
    ops = op_tables(algebra, n, max_len)
    h = ops.higher_arity
    expect = {}
    for t in chained_tuples(ops, h, max_len, units=0):
        res = ainfty._classify(ops, [(0, a) for a in t])
        if res is not None:
            expect[t] = res
    assert list(ops.higher) == passing_windows(ops)
    assert ops.higher.keys() == expect.keys()
    assert all(a >= n for t in ops.higher for a in t)
    with_units = [t for t in chained_tuples(ops, h, 6) if min(t) < n]
    assert with_units
    assert all(ainfty._classify(ops, [(0, a) for a in t]) is None for t in with_units)
    tags = set()
    for t, (tag, e, p) in expect.items():
        tags.add(tag)
        *value, component = ops.higher[t]
        assert value == [e, p]
        assert component is None or (algebra, tag) == ("A", TAG_CENTERED)
        for d in range(2 * n):
            assert (ainfty._classify(ops, [(0, a) for a in t], d) is None) == (d == component)
    assert tags == {TAG_CENTERED, TAG_LEFT, TAG_RIGHT}


# Rotation equivariance: the Z/N rotation i -> i+1 of the cyclic quiver
# commutes with every column the classifier reads, with relation_sum (under
# drop k -> k+2) and with both grading laws, so checking the tuples entered
# at node 1, one per orbit, checks them all.


def _rotation(ops):
    """The rotation i -> i+1 as a permutation of the table's ids."""
    n = ops.n
    return [ops.ids[started_at(w, w.start % n + 1)] for w in ops.words]


def _word_built_op_columns(ops):
    """The classifier columns built from Word objects, as the tables once
    built them: the oracle of the construction on the id layout."""
    n, words = ops.n, ops.words
    width = max(ops.max_len, 1).bit_length()

    def pack(vec):
        return sum(v << (width * k) for k, v in enumerate(vec))

    step = _rotation(ops)
    rotations = [list(range(len(words)))]
    for _ in range(1, n):
        rotations.append([step[a] for a in rotations[-1]])
    columns = {
        "weight": [pack(grading(w).alexander) for w in words],
        "ones": pack(var_grading(coeff_var(ops.algebra, n), n).alexander),
        "rotations": rotations,
    }
    if ops.algebra == "A":
        columns["component"] = [2 * (w.start - 1) + (0 if w.kind == "u" else 1) for w in words]
    else:
        columns["component"] = [None] * len(words)
    return columns


@pytest.mark.parametrize("algebra", ["A", "B"])
def test_op_table_columns_against_word_oracle(algebra):
    # Every column the classifier and the orbit sweeps read, read off the id
    # layout, equals its construction from Word objects.
    for n in range(3, 9):
        for bound in (0, 1, 2 * n, 4 * n + 2):
            ops = _OpTables(algebra, n, bound)
            for name, want in _word_built_op_columns(ops).items():
                assert getattr(ops, name) == want, (n, bound, name)


def _turned_weight(ops, packed):
    """A packed weight vector with its slots shifted by 2 (mod 2N)."""
    slots = 2 * ops.n
    width = max(ops.max_len, 1).bit_length()
    mask = (1 << width) - 1
    vec = [(packed >> (width * k)) & mask for k in range(slots)]
    return sum(v << (width * ((k + 2) % slots)) for k, v in enumerate(vec))


def _turned_grading(g):
    return Grading(g.m, g.alexander[-2:] + g.alexander[:-2], g.ell)


def _turned_group(x, n):
    return GroupElem(x.z, tuple((g % n + 1 if g else 0, e) for g, e in x.word))


def _equivariance_mismatches(ops, max_arity):
    """The columns, relation sums (on every chained tuple of the table's
    bound in an arity that has terms) and grading sides (on every nonzero
    operation of arity <= max_arity) on which rotating the input and
    rotating the output disagree."""
    n = ops.n
    rot = _rotation(ops)

    def turn_drop(d):
        return None if d is None else (d + 2) % (2 * n)

    bad = []
    for a in range(len(ops.words)):
        if {rot[b]: rot[m] for b, m in ops.mul[a].items()} != ops.mul[rot[a]]:
            bad.append(("mul", a))
        for k in range(1, ops.ell[a]):
            c, d = ops.split(a, k)
            if (rot[c], rot[d]) != ops.split(rot[a], k):
                bad.append(("splits", a))
        if _turned_weight(ops, ops.weight[a]) != ops.weight[rot[a]]:
            bad.append(("weight", a))
        if ops.algebra == "A" and (ops.component[a] + 2) % (2 * n) != ops.component[rot[a]]:
            bad.append(("component", a))
    drops = [None] + (list(range(2 * n)) if ops.algebra == "A" else [])
    h = ops.higher_arity
    arities = _term_arities(ops)
    for t in ops.chains(ops.max_len):
        rt = tuple(rot[a] for a in t)
        if len(t) == h:
            # the classifier itself, bare and with V on the first entry
            for e in (0, 1):
                for d in drops:
                    res = ainfty._classify(ops, [(e, t[0])] + [(0, a) for a in t[1:]], d)
                    rres = ainfty._classify(ops, [(e, rt[0])] + [(0, a) for a in rt[1:]], turn_drop(d))
                    if rres != (None if res is None else res[:2] + (rot[res[2]],)):
                        bad.append(("classify", t, e, d))
        if len(t) not in arities:
            continue
        for d in drops:
            total = relation_sum(ops, t, d)
            if relation_sum(ops, rt, turn_drop(d)) != {rot[q]: c for q, c in total.items()}:
                bad.append(("relation_sum", t, d))
    words = ops.words
    for t, e, p in _nonzero(ops, max_arity):
        inputs, rinputs = tuple(words[a] for a in t), tuple(words[rot[a]] for a in t)
        got, expect = ainfty._grading_sides(ops.algebra, n, inputs, e, words[p])
        if ainfty._grading_sides(ops.algebra, n, rinputs, e, words[rot[p]]) != (_turned_grading(got), _turned_grading(expect)):
            bad.append(("grading", t))
        got, expect = gradegroup._group_sides(ops.algebra, n, inputs, e, words[p], gradegroup.assign_grading)
        if gradegroup._group_sides(ops.algebra, n, rinputs, e, words[rot[p]], gradegroup.assign_grading) != (
            _turned_group(got, n),
            _turned_group(expect, n),
        ):
            bad.append(("group grading", t))
    return bad


# A window per algebra and N whose chained tuples reach the composed terms
# mu_h o mu_2 and mu_2 o mu_h (and for B also mu_h o mu_h).
_EQUIVARIANCE_WINDOWS = {("A", 3): 7, ("A", 4): 9, ("B", 3): 6, ("B", 4): 8}


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_rotation_commutes_with_the_classifier(algebra, n):
    max_len = _EQUIVARIANCE_WINDOWS[algebra, n]
    ops = op_tables(algebra, n, max_len)
    assert _equivariance_mismatches(ops, higher_arity(algebra, n) + 2) == []
    # the sweep's permutations are the powers of this rotation
    rot = _rotation(ops)
    assert ops.rotations[0] == list(range(len(ops.words)))
    for j in range(1, n):
        assert ops.rotations[j] == [rot[a] for a in ops.rotations[j - 1]]
    # the window reaches the higher operation, and for A a relation that a
    # dropped component breaks
    h = higher_arity(algebra, n)
    assert any(ainfty._classify(ops, [(0, a) for a in t]) for t in ops.chains(max_len) if len(t) == h)
    if algebra == "A":
        assert any(relation_sum(ops, t, 0) for t in ops.chains(max_len) if len(t) == h + 1)


def _first_at_node(ops, node, rows):
    return next(a for a in rows if ops.words[a].start == node)


@pytest.mark.parametrize(
    "algebra, column",
    [("A", "mul"), ("A", "weight"), ("A", "component"), ("A", "splits"), ("B", "mul"), ("B", "weight"), ("B", "splits")],
)
def test_equivariance_check_names_a_table_corrupted_at_one_node(algebra, column):
    # A fresh table, not the cached one, with one entry of one column
    # changed at node 2 only (for the splits, of the continuation table that
    # `split` reads): the check must name that column, and the
    # classifier or relation_sum must show it too, except for the weight of
    # a two-letter word, which the classifier reads only at a window's end,
    # where it cancels.
    n = 3
    max_len = _EQUIVARIANCE_WINDOWS[algebra, n]
    ops = _OpTables(algebra, n, max_len)
    letters = range(n, 3 * n)
    if column == "mul":
        a = _first_at_node(ops, 2, letters)
        del ops.mul[a][next(b for b in ops.mul[a] if b >= n)]
    elif column == "weight":
        # a two-letter word: every window holds each letter, so a letter's
        # weight changed at one node would kill every window alike
        a = _first_at_node(ops, 2, range(3 * n, len(ops.words)))
        ops.weight[a] = ops.weight[a + 1]
    elif column == "component":
        a = _first_at_node(ops, 2, letters)
        ops.component[a] = (ops.component[a] + 1) % (2 * n)
    else:
        # the continuation of the letter at a's offset, which a two-letter
        # word's split reads
        a = next(a for a in range(3 * n, len(ops.words)) if ops.words[a].start == 2 and ops.ell[a] == 2)
        cont = ops.conts[(a - n) % (2 * n)]
        cont[1] = (cont[1] + 1) % (2 * n)
    bad = _equivariance_mismatches(ops, 2 * n)
    assert (column, a) in bad or (column, _rotation(ops).index(a)) in bad
    assert any(entry[0] in ("classify", "relation_sum") for entry in bad) == (column != "weight")


def test_equivariance_check_names_a_grading_corrupted_at_one_node(monkeypatch):
    # Both grading laws read word gradings outside the table; mis-grading
    # the words that start at node 2 must break the equivariance of both.
    n = 3
    ops = op_tables("A", n, 7)
    assert _equivariance_mismatches(ops, 8) == []
    word_grading, group_grading = ainfty.grading, gradegroup.assign_grading
    monkeypatch.setattr(ainfty, "grading", lambda w: _turned_grading(word_grading(w)) if w.start == 2 else word_grading(w))
    bad = _equivariance_mismatches(ops, 8)
    assert any(entry[0] == "grading" for entry in bad)
    assert not any(entry[0] == "group grading" for entry in bad)
    monkeypatch.setattr(ainfty, "grading", word_grading)
    ops = op_tables("B", n, 6)
    monkeypatch.setattr(
        gradegroup, "assign_grading", lambda w: GroupElem(group_grading(w).z + (w.start == 2), group_grading(w).word)
    )
    bad = _equivariance_mismatches(ops, 5)
    assert any(entry[0] == "group grading" for entry in bad)
    assert not any(entry[0] == "grading" for entry in bad)


# The passing windows as they were built on Word objects, before they were
# built on the table's ids: their oracle, with its own centered tuples.


def _word_centered_tuples(algebra, n):
    """All centered tuples of the higher operation, as Word tuples."""
    if algebra == "B":
        return [tuple(BWord("c", advance(i, n - k, n), "s", 1, n) for k in range(1, n + 1)) for i in range(1, n + 1)]
    # the 2N rotations of u1 s1 u2 s2 ... uN sN
    cycle = [AWord(kind, i, 1, n) for i in range(1, n + 1) for kind in ("u", "s")]
    return [tuple(cycle[k:] + cycle[:k]) for k in range(2 * n)]


def _word_passing_windows(algebra, max_total_len, n):
    centered_len = higher_arity(algebra, n)
    if centered_len > max_total_len:
        return []
    windows = set()
    for tup in _word_centered_tuples(algebra, n):
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


@pytest.mark.parametrize("algebra", ["A", "B"])
def test_centered_tuples_match_the_word_oracle(algebra):
    # The slot walk on ids gives the centered tuples built from words, once each.
    for n in range(3, 12):
        ops = op_tables(algebra, n, higher_arity(algebra, n))
        got = [tuple(ops.words[a] for a in t) for t in ainfty._centered_tuples(ops)]
        assert sorted(got, key=str) == sorted(_word_centered_tuples(algebra, n), key=str)
        assert len(set(got)) == len(got) == (2 * n if algebra == "A" else n)


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_passing_windows_match_the_word_oracle(algebra, n):
    h = higher_arity(algebra, n)
    for max_len in (h - 1, h, h + 1, 3 * n, 4 * n + 1):
        assert _word_windows(algebra, max_len, n) == _word_passing_windows(algebra, max_len, n)


# The grading checks as they ran over every nonzero operation, before they
# checked one operation per rotation orbit: their oracles.


def _full_op_grading_check(algebra, max_arity, max_len, n):
    violations = []
    for inputs, exp, word in nonzero_operations(algebra, max_arity, max_len, n):
        r = len(inputs)
        total = Grading(0, (0,) * (2 * n), 0)
        for w in inputs:
            total = total + grading(w)
        expect = Grading(total.m + r - 2, total.alexander, total.ell)
        got = ainfty._entry_grading(algebra, exp, word, n)
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


def _full_check_multiplicativity(algebra, max_arity, max_len, n):
    violations = []
    for inputs, exp, word in nonzero_operations(algebra, max_arity, max_len, n):
        expect = GroupElem(gradegroup.GP_LAMBDA.z * (len(inputs) - 2), ())  # lambda is central
        for w in inputs:
            expect = gradegroup.gp_mul(expect, gradegroup.assign_grading(w))
        got = gradegroup.gp_mul(gradegroup.mono_group_grading(exp, algebra, n), gradegroup.assign_grading(word))
        if got != expect:
            violations.append(
                {
                    "algebra": algebra,
                    "arity": len(inputs),
                    "inputs": [w.render() for w in inputs],
                    "reason": f"grading {got.render()} != {expect.render()}",
                }
            )
    return violations


@pytest.mark.parametrize("algebra, n, max_arity, max_len", [("A", 3, 8, 9), ("A", 4, 10, 10), ("B", 3, 5, 7), ("B", 4, 6, 9)])
def test_grading_checks_match_the_full_sweep_under_a_fault(algebra, n, max_arity, max_len, monkeypatch):
    # A rotation-invariant mis-grading of every value of length 2 (binary
    # products and extended windows alike), and of every coefficient in the
    # group grading: the orbit sweeps list the same violations as a sweep
    # over every operation, in the same order, at every entry node.
    assert op_grading_check(algebra, max_arity, max_len, n) == _full_op_grading_check(algebra, max_arity, max_len, n) == []
    entry_grading, mono = ainfty._entry_grading, gradegroup.mono_group_grading

    def misgraded(alg, exp, word, n):
        g = entry_grading(alg, exp, word, n)
        return Grading(g.m + 1, g.alexander, g.ell) if word.ell == 2 else g

    monkeypatch.setattr(ainfty, "_entry_grading", misgraded)
    monkeypatch.setattr(gradegroup, "mono_group_grading", lambda exp, alg, n: GroupElem(mono(exp, alg, n).z + exp + 1, ()))
    for check, oracle in ((op_grading_check, _full_op_grading_check), (check_multiplicativity, _full_check_multiplicativity)):
        got = check(algebra, max_arity, max_len, n)
        assert got == oracle(algebra, max_arity, max_len, n)
        assert {v["arity"] for v in got} == {2, higher_arity(algebra, n)}
        assert len(got) % n == 0


def test_op_grading_check_clean():
    assert op_grading_check("A", 8, 12, 3) == []
    assert op_grading_check("B", 5, 9, 3) == []
    # an empty table: no word, so no operation to check
    assert op_grading_check("A", 8, -1, 3) == []


@pytest.mark.parametrize("algebra, n, max_arity, max_len", [("A", 3, 8, 12), ("B", 4, 6, 12)])
def test_grading_laws_grade_each_word_once(algebra, n, max_arity, max_len, monkeypatch):
    # Each law grades every table word at most once, into its column, and
    # each value V^e * p once per distinct (e, p), however many operations
    # share them.
    ops = op_tables(algebra, n, max_len)
    swept = list(_nonzero(ops, max_arity, 1))
    outputs = {(e, p) for _, e, p in swept}
    assert len(swept) > len(ops.words) and len(swept) > len(outputs)
    graded, values = collections.Counter(), collections.Counter()
    word_grading, entry_grading = ainfty.grading, ainfty._entry_grading

    def counted_entry(alg, exp, word, n):
        values[exp, word] += 1
        return entry_grading(alg, exp, word, n)

    monkeypatch.setattr(ainfty, "grading", lambda w: graded.update([w]) or word_grading(w))
    monkeypatch.setattr(ainfty, "_entry_grading", counted_entry)
    assert op_grading_check(algebra, max_arity, max_len, n) == []
    assert set(values) == {(e, ops.words[p]) for e, p in outputs} and max(values.values()) == 1
    # _entry_grading grades its word too
    graded.subtract(word for _, word in values)
    assert set(graded) <= set(ops.words) and max(graded.values()) == 1

    group_graded, coefficients = collections.Counter(), collections.Counter()
    group_grading, mono = gradegroup.assign_grading, gradegroup.mono_group_grading
    monkeypatch.setattr(gradegroup, "assign_grading", lambda w: group_graded.update([w]) or group_grading(w))
    monkeypatch.setattr(gradegroup, "mono_group_grading", lambda e, alg, n: coefficients.update([e]) or mono(e, alg, n))
    assert check_multiplicativity(algebra, max_arity, max_len, n) == []
    assert set(group_graded) <= set(ops.words) and max(group_graded.values()) == 1
    assert coefficients == collections.Counter(e for e, _ in outputs)


def _materialized_relation_tuples(ops, max_arity, entry):
    """_relation_tuples as it was before it streamed the operations: every
    nonzero operation listed first, the windows read off that list."""
    ell, mul, max_len, node = ops.ell, ops.mul, ops.max_len, ops.entry
    nonzero = [(t, sum(ell[a] for a in t), p) for t, _, p in _nonzero(ops, max_arity - 1) if len(t) < max_arity]
    lefts = {i: [] for i in range(1, ops.n + 1)}
    for c in ops.by_entry[entry]:
        lefts[ops.exit[c]].append(c)
    windows_at = {}
    for window, length, _ in nonzero:
        if len(window) > 2 and node[window[0]] == entry:
            for k, a in enumerate(window):
                windows_at.setdefault(a, []).append((window, length, k))
    out = set()
    for t, length, p in nonzero:
        budget = max_len - length
        for c in lefts[node[p]]:
            if ell[c] > budget:
                break
            if p in mul[c]:
                out.add((c,) + t)
        for window, window_len, k in windows_at.get(p, ()):
            if len(window) + len(t) - 1 <= max_arity and window_len - ell[p] + length <= max_len:
                out.add(window[:k] + t + window[k + 1 :])
        if node[t[0]] == entry:
            for c in ops.by_entry[ops.exit[p]]:
                if ell[c] > budget:
                    break
                if c in mul[p]:
                    out.add(t + (c,))
    return out


@pytest.mark.parametrize("algebra, n", sorted(_EQUIVARIANCE_WINDOWS))
def test_streamed_relation_tuples_match_the_materialized_build(algebra, n):
    # At every entry node and at arity bounds below, at and past the higher
    # arity, the streamed build lists the tuples the materialized one did.
    ops = op_tables(algebra, n, _EQUIVARIANCE_WINDOWS[algebra, n])
    h = higher_arity(algebra, n)
    for max_arity in (2, 3, h, h + 1, h + 2, 2 * h):
        for entry in range(1, n + 1):
            got = _relation_tuples(ops, max_arity, entry)
            assert got == _materialized_relation_tuples(ops, max_arity, entry)
            assert got or max_arity < 3


@pytest.mark.parametrize(
    "algebra, n, max_arity, max_len",
    [("A", 3, 8, 12), ("A", 3, 11, 13), ("A", 4, 15, 16), ("B", 3, 5, 9), ("B", 4, 7, 12), ("B", 6, 8, 18)],
)
def test_relation_groups_partition_the_swept_tuples(algebra, n, max_arity, max_len):
    # At every entry node, and at arity bounds up to ones that put a window
    # in place of a window's entry (2h - 1), each group holds the tuples
    # that start with its key, the groups are disjoint (`_relation_tuples`
    # checks both), and their union is what the materialized build and the
    # sweep over every node list there.
    ops = op_tables(algebra, n, max_len)
    h = ops.higher_arity
    full = _all_relation_tuples(ops, max_arity)
    for bound in sorted({3, h, h + 1, max_arity}):
        sub = full if bound == max_arity else _all_relation_tuples(ops, bound)
        for entry in range(1, n + 1):
            got = _relation_tuples(ops, bound, entry)
            assert got == _materialized_relation_tuples(ops, bound, entry)
            assert got == {t for t in sub if ops.entry[t[0]] == entry}
    assert any(len(t) == 2 * h - 1 for t in full) == (max_arity >= 2 * h - 1)


def test_a_faulted_sweep_builds_its_tuples_once(monkeypatch):
    # The node-1 groups are built once per sweep.  Under drop-mu2N:k each
    # tuple is evaluated once per rotation k - 2j of the fault, N times in
    # all, and unfaulted once.
    n, max_arity, max_len = 3, 8, 12
    count = len(_relation_tuples(op_tables("A", n, max_len), max_arity, 1))
    builds, sums = [], collections.Counter()
    build, relation = ainfty._relation_groups, ainfty.relation_sum
    monkeypatch.setattr(ainfty, "_relation_groups", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(ainfty, "relation_sum", lambda ops, ids, d=None: sums.update([d]) or relation(ops, ids, d))
    assert check_ainfty("A", max_arity, max_len, n, ("drop-a-centered", 1))
    assert len(builds) == 1 and sums == {1: count, 5: count, 3: count}
    builds.clear()
    sums.clear()
    assert check_ainfty("A", max_arity, max_len, n) == []
    assert len(builds) == 1 and sums == {None: count}


def test_word_calls_reuse_a_covering_table(fresh_op_tables, monkeypatch):
    # mu_a and relation_value read the held table when it is of the same
    # algebra and N and covers their inputs' total length, so calls whose
    # lengths go up and down build one table per new maximum, and each value
    # is the one a table of the exact bound gives.
    n, fault = 3, ("drop-a-centered", 0)
    clean = _OpTables("A", n, 12)
    windows, tuples = {}, {}
    for t in passing_windows(clean):
        windows.setdefault(sum(clean.ell[a] for a in t), []).append([clean.words[a] for a in t])
    for t in sorted(_relation_tuples(clean, 8, 1)):
        if relation_sum(clean, t, 0):
            tuples.setdefault(sum(clean.ell[a] for a in t), []).append([clean.words[a] for a in t])
    calls = [(mu_a, windows[7][0]), (mu_a, windows[6][0]), (relation_value, tuples[9][0]), (mu_a, windows[8][0])]
    calls += [(relation_value, tuples[7][0]), (mu_a, windows[12][0]), (relation_value, tuples[11][0])]
    built = []
    init = _OpTables.__init__
    monkeypatch.setattr(_OpTables, "__init__", lambda ops, *args: built.append(args) or init(ops, *args))

    def value(f, words):
        return f(words).value if f is mu_a else f("A", words, n, fault)

    got = [value(f, words) for f, words in calls]
    assert built == [("A", n, 7), ("A", n, 9), ("A", n, 12)]
    exact = []
    for f, words in calls:
        _OpTables._held = None
        exact.append(value(f, words))
    assert [bound for _, _, bound in built[3:]] == [sum(w.ell for w in words) for _, words in calls]
    assert got == exact and not any(v.is_zero() for v in got)


def test_the_sweep_holds_one_first_word_s_tuples_at_a_time():
    # With the table built (as in `verify ainfty-a --n 5`), the sweep's
    # traced peak stays below the size of the whole node-1 tuple set, so it
    # never holds that set.  A full collection first empties the free lists,
    # so every block the sweep takes is a traced allocation.
    import gc
    import sys
    import tracemalloc

    n, max_arity, max_len = 5, 12, 20
    ops = op_tables("A", n, max_len)
    assert ops.higher
    tuples = _materialized_relation_tuples(ops, max_arity, 1)
    size = sys.getsizeof(tuples) + sum(map(sys.getsizeof, tuples))
    del tuples
    gc.collect()
    tracemalloc.start()
    try:
        assert check_ainfty("A", max_arity, max_len, n) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)


def test_tags_are_exclusive_across_windows():
    # Every nonzero higher operation reports exactly one structural case.
    for algebra in ("A", "B"):
        for win in _word_windows(algebra, 10, 3):
            res = mu_a(list(win)) if algebra == "A" else mu_b(list(win))
            assert res.tag in {"centered", "left-extended", "right-extended"}
            assert not res.value.is_zero()


def test_multilinearity_over_sums():
    from starcob.staralg import AlgElem

    x = AlgElem.from_word(_u(1)) + AlgElem.from_word(_u(1, p=2))
    rest = [_s(1), _u(2), _s(2), _u(3), _s(3)]
    combined = mu_a([x] + [AlgElem.from_word(w) for w in rest])
    separate = (
        mu_a([_u(1)] + rest).value + mu_a([_u(1, p=2)] + rest).value
    )
    assert combined.value == separate
