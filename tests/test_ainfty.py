"""Tests for the higher operations and the relation checker."""
from __future__ import annotations

import itertools

import pytest

from starcob.ainfty import (
    _candidate_tuples,
    _mu_pairs,
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


def _has_nonzero_term(algebra, words, n):
    """Whether some composed term mu(.., mu(..), ..) of the relation on the
    tuple is nonzero, over every split and unfaulted operation."""
    base = [(0, w) for w in words]
    size = len(words)
    for r in range(2, size):
        for k in range(size - r + 1):
            for pair in _mu_pairs(algebra, base[k : k + r], n)[1]:
                if _mu_pairs(algebra, base[:k] + [pair] + base[k + r :], n)[1]:
                    return True
    return False


def _candidate_definition(algebra, tuples, arity, max_len, n):
    """The tuples that the candidate set is defined to hold: those with a
    contiguous passing window of a valid arity r (whose outer arity
    arity - r + 1 is valid too), and those with one adjacent pair whose
    product turns the tuple into a passing window of arity - 1."""
    valid = {2, *valid_higher_arities(algebra, n, arity)}
    windows = {
        r: set(passing_windows(algebra, r, max_len, n))
        for r in valid_higher_arities(algebra, n, arity - 1)
        if arity - r + 1 in valid
    }
    merged = set()
    if arity - 1 in valid and arity - 1 > 2:
        merged = set(passing_windows(algebra, arity - 1, max_len, n))

    def belongs(t):
        for r, found in windows.items():
            if any(t[k : k + r] in found for k in range(arity - r + 1)):
                return True
        for k in range(arity - 1):
            product = mul_word(t[k], t[k + 1])
            if product is not None and t[:k] + (product,) + t[k + 2 :] in merged:
                return True
        return False

    return {t for t in tuples if belongs(t)}


def test_candidate_set_complete_against_brute_force():
    # Every chained tuple (idempotents included) whose relation sum is nonzero
    # must lie in the candidate set that check_ainfty sweeps in higher arity,
    # and every candidate must be such a chained tuple.  The candidate set
    # must also equal its definition over the same tuples, so that a dropped
    # filler position or entry split fails even where the two kinds overlap.
    # A: N=3, arity 7, length <= 7, with a dropped centered component so
    # that the sweep has violations to find.
    fault = ("drop-a-centered", 0)
    tuples = list(WordIndex("A", 7, 3).forward(7, 7))
    assert len(tuples) == 145917
    candidates = set(_candidate_tuples("A", 7, 7, 3))
    assert candidates <= set(tuples)  # chained and within the length bound
    assert candidates == _candidate_definition("A", tuples, 7, 7, 3)
    violating = [t for t in tuples if not relation_sum("A", t, 3, fault).is_zero()]
    assert violating
    assert set(violating) <= candidates
    # B: N=3, arity 4 (length <= 6) and arity 5 (length <= 7).  The relations
    # hold there, so check the stronger claim that every tuple with a nonzero
    # term is a candidate.  Arity-5 candidates come from chained fillers on
    # both sides of a window alone, with no entry splits.
    for arity, max_len, count in ((4, 6, 3867), (5, 7, 21549)):
        tuples = list(WordIndex("B", max_len, 3).forward(arity, max_len))
        assert len(tuples) == count
        candidates = set(_candidate_tuples("B", arity, max_len, 3))
        assert candidates <= set(tuples)
        assert candidates == _candidate_definition("B", tuples, arity, max_len, 3)
        assert all(relation_sum("B", t, 3).is_zero() for t in tuples)
        with_terms = {t for t in tuples if _has_nonzero_term("B", t, 3)}
        assert with_terms
        assert with_terms <= candidates


def test_entry_splits_of_deep_windows_are_candidates(monkeypatch):
    # At the windows above, every entry split is also reached by a filler or
    # by the other idempotent split.  Splits into two non-idempotent words
    # add tuples of their own first at A, N=3, arity 11, from the arity-10
    # (j = 2) windows.  The arity-6 windows with five fillers make that
    # candidate set cost about 10 s, so they are left out here.
    real = passing_windows
    monkeypatch.setattr(
        "starcob.ainfty.passing_windows",
        lambda algebra, r, max_len, n: [] if r == 6 else real(algebra, r, max_len, n),
    )
    candidates = set(_candidate_tuples("A", 11, 12, 3))
    index = WordIndex("A", 12, 3, idempotents=False)
    splits = set()
    for window in real("A", 10, 12, 3):
        for t, w in enumerate(window):
            for c, d in index.forward(2, w.ell, entry=w.entry):
                if mul_word(c, d) == w:
                    splits.add(window[:t] + (c, d) + window[t + 1 :])
    assert splits
    assert splits <= candidates


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
