"""Tests for the higher operations and the relation checker."""
from __future__ import annotations

import functools
import itertools

import pytest

from starcob import ainfty
from starcob.ainfty import (
    TAG_CENTERED,
    TAG_ZERO,
    _mu_pairs,
    _relation_tuples,
    check_ainfty,
    mu_a,
    mu_b,
    op_grading_check,
    parse_fault,
    passing_windows,
    relation_sum,
    valid_higher_arities,
)
from starcob.staralg import AWord, BWord, WordIndex, enumerate_basis, letter, mul_word


def _u(i, n=3, p=1):
    return AWord("u", i, p, n)


def _s(i, n=3, length=1):
    return AWord("s", i, length, n)


def _sig(i, n=3):
    return letter("B", "s", i, n)


def _rho(i, n=3):
    return letter("B", "r", i, n)


def test_valid_higher_arities():
    assert valid_higher_arities("A", 3, 12) == [6, 10]
    assert valid_higher_arities("A", 4, 16) == [8, 14]
    assert valid_higher_arities("B", 3, 12) == [3]
    assert valid_higher_arities("B", 5, 12) == [5]


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


def test_mu_a_higher_weight():
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
    assert res.tag == "centered"
    assert res.value.render() == "V0^2*I1"


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
    assert relation_sum("A", [_u(1), _u(1), _s(1), _u(2), _s(2), _u(3), _s(3)], 3).is_zero()
    assert relation_sum("B", [_rho(1), _sig(3), _sig(2), _sig(1)], 3).is_zero()
    assert relation_sum("B", [_sig(3), _sig(2), _sig(1), _rho(1)], 3).is_zero()


def test_passing_windows_at_base_arity():
    wins = passing_windows("A", 6, 6, 3)
    assert len(wins) == 6
    for w in wins:
        res = mu_a(list(w))
        assert res.tag == "centered"
        assert not res.value.is_zero()
    wins_b = passing_windows("B", 3, 3, 3)
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


def _term_oracle(algebra, n):
    """Whether some composed term mu(.., mu(..), ..) of the relation on a
    tuple is nonzero, over every split and unfaulted operation.  Operation
    values are memoized per oracle, which meets the same sub-tuples often."""
    op = functools.cache(lambda entries: _mu_pairs(algebra, entries, n)[1])

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


def _swept(algebra, arity, max_len, n=3):
    """The tuples of one arity that check_ainfty evaluates."""
    return {t for t in _relation_tuples(algebra, arity, max_len, n) if len(t) == arity}


def test_candidate_set_complete_against_brute_force():
    # In each arity the swept tuples are exactly the chained tuples
    # (idempotents included) that have a nonzero relation term, over every
    # split and unfaulted operation.  Arity 3 has only mu_2 o mu_2 terms; A
    # arity 7 has mu_6 o mu_2 and mu_2 o mu_6; B arity 5 at N=3 has mu_3 o mu_3.
    for algebra, arity, max_len, count in (
        ("A", 3, 4, 387),
        ("B", 3, 4, 387),
        ("A", 7, 7, 145917),
        ("B", 4, 6, 3867),
        ("B", 5, 7, 21549),
    ):
        tuples = list(WordIndex(algebra, max_len, 3).forward(arity, max_len))
        assert len(tuples) == count
        swept = _swept(algebra, arity, max_len)
        assert swept
        assert swept == set(filter(_term_oracle(algebra, 3), tuples))
        if (algebra, arity) == ("A", 7):
            # A dropped centered component gives violations, and each lies
            # in the set built from the unfaulted operations.
            fault = ("drop-a-centered", 0)
            violating = {t for t in tuples if not relation_sum("A", t, 3, fault).is_zero()}
            assert violating
            assert violating <= swept


def test_relation_tuples_complete_when_relations_fail(monkeypatch):
    # Where the relations hold, every tuple with a nonzero term has a second
    # one, so the test above cannot tell if one way of building tuples is
    # lost.  With the centered B value at node 1 dropped from the operation
    # itself, tuples with a single nonzero term occur for an outer mu_2 on
    # either side and for an outer mu_3; the swept set must still equal the
    # brute-force one.
    classify = ainfty._classify_b

    def dropped(entries, n, fault=None):
        tag, value = classify(entries, n, fault)
        if tag == TAG_CENTERED and entries[-1][1].init == 1:
            return (TAG_ZERO, [])
        return (tag, value)

    monkeypatch.setattr(ainfty, "_classify_b", dropped)
    tuples = list(WordIndex("B", 6, 3).forward(4, 6))
    assert _swept("B", 4, 6) == set(filter(_term_oracle("B", 3), tuples))
    assert sum(not relation_sum("B", t, 3).is_zero() for t in tuples) == 12


def test_entry_splits_of_deep_windows_are_candidates():
    # Splitting one entry of an arity-10 (j = 2) window into two
    # non-idempotent words gives arity-11 tuples with a mu_10 o mu_2 term;
    # they first occur at A, N=3, length <= 12.
    swept = _swept("A", 11, 12)
    index = WordIndex("A", 12, 3, idempotents=False)
    splits = set()
    for window in passing_windows("A", 10, 12, 3):
        for t, w in enumerate(window):
            for c, d in index.forward(2, w.ell, entry=w.entry):
                if mul_word(c, d) == w:
                    splits.add(window[:t] + (c, d) + window[t + 1 :])
    assert splits
    assert splits <= swept


def test_parse_fault():
    assert parse_fault(None) is None
    assert parse_fault("break-h") == ("break-h",)
    assert parse_fault("drop-mu2N") == ("drop-a-centered", 0)
    assert parse_fault("drop-mu2N:3") == ("drop-a-centered", 3)
    with pytest.raises(ValueError):
        parse_fault("bogus")
    with pytest.raises(ValueError):
        parse_fault("drop-mu2N:x")


def test_op_grading_check_clean():
    assert op_grading_check("A", 8, 12, 3) == []
    assert op_grading_check("B", 5, 9, 3) == []


def test_tags_are_exclusive_across_windows():
    # Every nonzero higher operation reports exactly one structural case.
    for algebra, arity in (("A", 6), ("B", 3)):
        for win in passing_windows(algebra, arity, 10, 3):
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
