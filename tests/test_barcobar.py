"""Tests for dual strings, the cobar differential, and the homotopy data."""
from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from starcob.barcobar import (
    CobElem,
    TString,
    _tables,
    _WordTables,
    bar_diff,
    cobar_diff,
    cobar_mul,
    dict_image,
    enumerate_strings,
    homotopy_h,
    phi,
    phi_psi_failures,
    psi,
    verify_homotopy,
)
from starcob.staralg import (
    AlgElem,
    AWord,
    BWord,
    chain_ok,
    enumerate_basis,
    dual_algebra,
    grading,
    idempotent,
    letter,
    mul_word,
    word_letters,
    word_splits,
)


def _ts(*factors):
    return TString(tuple(factors))


U1 = AWord("u", 1, 1, 3)
U1SQ = AWord("u", 1, 2, 3)
S1 = AWord("s", 1, 1, 3)
S2 = AWord("s", 2, 1, 3)
S13 = AWord("s", 1, 2, 3)
R1 = letter("B", "r", 1, 3)
SIG1 = letter("B", "s", 1, 3)


def test_tstring_validation():
    ts = _ts(U1, S1)
    assert ts.algebra == "A"
    assert ts.total_ell == 2
    with pytest.raises(ValueError):
        _ts()
    with pytest.raises(ValueError):
        _ts(idempotent("A", 1, 3))
    with pytest.raises(ValueError):
        _ts(U1, S2)  # seam mismatch: fin(U1)=1 but init(s2)=2
    with pytest.raises(ValueError):
        _ts(U1, R1)  # mixed algebras


def test_tstring_chaining_direction_b():
    # Dual strings over the loop algebra chain left-to-right; over the dual
    # algebra the seams run the other way.
    assert chain_ok(U1, S1)
    assert not chain_ok(S1, AWord("u", 3, 1, 3))
    assert chain_ok(SIG1, R1)
    assert not chain_ok(R1, SIG1)
    ts = _ts(SIG1, R1)
    assert ts.algebra == "B"


def test_render_and_block_marker():
    s2s3 = AWord("s", 2, 2, 3)
    ts = _ts(U1, S1, s2s3)
    assert ts.render() == "U1*.s1*.(s2s3)*"
    assert ts.render_with_block() == "U1*.s1*|(s2s3)*"
    assert _ts(U1SQ).render() == "(U1^2)*"
    assert _ts(U1SQ).render_with_block() == "|(U1^2)*"


def test_dict_image():
    assert dict_image(U1) == R1
    assert dict_image(S1) == SIG1
    assert dict_image(R1) == U1
    assert dict_image(SIG1) == S1
    with pytest.raises(ValueError):
        dict_image(U1SQ)


def test_cobar_diff_oracles():
    d = cobar_diff(_ts(S13))
    assert d.render() == "s1*.s2*"
    d2 = cobar_diff(_ts(U1SQ))
    assert d2.render() == "U1*.U1*"
    # Single letters are indecomposable.
    assert cobar_diff(_ts(U1)).is_zero()
    assert cobar_diff(_ts(S1)).is_zero()


def test_bar_cobar_are_differentials():
    for algebra in ("A", "B"):
        for ts in enumerate_strings(algebra, 6, 3):
            assert cobar_diff(cobar_diff(ts)).is_zero()
            assert bar_diff(bar_diff(ts)).is_zero()


def test_bar_diff_merges_adjacent():
    d = bar_diff(_ts(U1, U1))
    assert d.render() == "(U1^2)*"
    assert bar_diff(_ts(S1, S2)).render() == "(s1s2)*"
    # Non-composable adjacent factors contribute nothing.
    assert bar_diff(_ts(U1, S1)).is_zero()


def test_cobar_mul_concatenates():
    f = CobElem.of(_ts(U1))
    g = CobElem.of(_ts(S1))
    prod = cobar_mul(f, g)
    assert prod.render() == "U1*.s1*"
    # Seam mismatch kills the concatenation.
    assert cobar_mul(g, f).is_zero()


def test_cobar_leibniz_random():
    rng = random.Random(20240818)
    for algebra in ("A", "B"):
        strings = list(enumerate_strings(algebra, 5, 3))
        for _ in range(150):
            f = rng.choice(strings)
            g = rng.choice(strings)
            lhs = cobar_diff(cobar_mul(f, g))
            rhs = cobar_mul(cobar_diff(f), g) + cobar_mul(f, cobar_diff(g))
            assert lhs == rhs


def test_phi_oracles():
    assert phi(_ts(U1, S1)).render() == "r1.s1"
    assert phi(_ts(U1)).render() == "r1"
    # Any merged factor is outside the image dictionary: phi vanishes.
    assert phi(_ts(U1SQ)).is_zero()
    assert phi(_ts(S13)).is_zero()
    # Mixed letters never compose in the loop algebra, so this string dies.
    assert phi(_ts(SIG1, R1)).is_zero()
    # Pure loop strings survive: rho then rho lands on a squared loop.
    assert phi(_ts(R1, R1)).render() == "U1^2"


def test_psi_oracles():
    out = psi(BWord("c", 1, "r", 2, 3))
    assert out.render() == "U1*.s1*"
    assert psi(R1).render() == "U1*"
    assert psi(U1).render() == "r1*"
    with pytest.raises(ValueError):
        psi(idempotent("A", 1, 3))


def test_phi_psi_identity_small():
    for algebra in ("A", "B"):
        for w in enumerate_basis(algebra, 6, 3):
            if w.is_idempotent():
                continue
            assert phi(psi(w)) == AlgElem.from_word(w), w.render()


def test_homotopy_oracles():
    assert homotopy_h(_ts(U1, U1)).render() == "(U1^2)*"
    assert homotopy_h(_ts(U1, S1)).is_zero()
    assert homotopy_h(_ts(S13)).is_zero()
    assert homotopy_h(_ts(U1, S13)).is_zero()
    b = _ts(SIG1, R1)
    assert homotopy_h(b).render() == "(r1s1)*"


def test_homotopy_certificate():
    assert verify_homotopy(6, 3, "A")
    assert verify_homotopy(6, 3, "B")
    assert verify_homotopy(5, 4, "A")


def test_homotopy_certificate_fault():
    assert not verify_homotopy(4, 3, "A", fault=("break-h",))
    assert not verify_homotopy(4, 3, "B", fault=("break-h",))


def test_homotopy_side_conditions():
    for algebra in ("A", "B"):
        for ts in enumerate_strings(algebra, 5, 3):
            h = homotopy_h(ts)
            # The homotopy squares to zero and composes to zero with phi.
            assert homotopy_h(h).is_zero()
            assert phi(h).is_zero()
            # phi is a chain map to an algebra with zero differential.
            assert phi(cobar_diff(ts)).is_zero()
            # The homotopy raises the internal degree by one.
            for out in h.sorted_terms():
                assert out.m_degree == ts.m_degree + 1


def test_h_vanishes_after_psi():
    for algebra in ("A", "B"):
        for w in enumerate_basis(algebra, 5, 3):
            if w.is_idempotent():
                continue
            assert homotopy_h(psi(w)).is_zero()


def test_cobelem_addition_is_xor():
    x = CobElem.of(_ts(U1))
    assert (x + x).is_zero()
    y = CobElem.of(_ts(S1))
    assert (x + y) + y == x


def test_m_degree():
    # Loop-algebra words have internal degree 0, so each dual factor counts -0-1.
    assert _ts(U1, S1).m_degree == -2
    assert _ts(U1SQ).m_degree == -1
    # Dual-algebra words have internal degree -length.
    assert _ts(SIG1, R1).m_degree == 0
    w2 = BWord("c", 1, "r", 2, 3)
    assert _ts(w2).m_degree == 1


def _seam(algebra, a, b):
    # The tensor-product seam spelled out per algebra, independent of the
    # words' stored entry/exit nodes.
    return a.fin == b.init if algebra == "A" else a.init == b.fin


def _brute_strings(algebra, max_len, n):
    """Every chained tuple of non-idempotent words with total length <= max_len,
    by filtering products of basis words grouped by length."""
    by_len = {}
    for w in enumerate_basis(algebra, max_len, n):
        if not w.is_idempotent():
            by_len.setdefault(w.ell, []).append(w)
    out = set()
    for k in range(1, max_len + 1):
        for lens in itertools.product(range(1, max_len + 1), repeat=k):
            if sum(lens) > max_len:
                continue
            for tup in itertools.product(*(by_len[ell] for ell in lens)):
                if all(_seam(algebra, a, b) for a, b in zip(tup, tup[1:])):
                    out.add(tup)
    return out


def test_enumerate_strings_order():
    # test_cobar_leibniz_random samples strings by position and
    # verify_homotopy stops at the first failing string, so the enumeration
    # order is part of the behaviour; this digest pins it.
    digest = hashlib.sha256()
    for algebra in ("A", "B"):
        for n in (3, 4):
            for ts in enumerate_strings(algebra, 7, n):
                digest.update((ts.render() + "\n").encode())
    assert digest.hexdigest() == "ee16fc7868d268b7be993ba272444c1b6de06062806dc4c1feb66325cded182e"


def test_enumerate_strings_counts():
    # Against brute force, for both algebras at N = 3, 4 and every window up
    # to total length 5: the same set of strings, each exactly once.
    for algebra in ("A", "B"):
        for n in (3, 4):
            brute = _brute_strings(algebra, 5, n)
            for max_len in range(1, 6):
                strings = [ts.factors for ts in enumerate_strings(algebra, max_len, n)]
                assert len(strings) == len(set(strings))
                assert set(strings) == {t for t in brute if sum(w.ell for w in t) <= max_len}
    for ts in enumerate_strings("A", 3, 3):
        for a, b in zip(ts.factors, ts.factors[1:]):
            assert chain_ok(a, b)


# Object-level reference maps: the string maps as they were written on words
# and TStrings before they ran on interned ids.  They are the oracle of the
# table-driven kernel below.


def _ref_cobar_diff(strings):
    out = set()
    for ts in strings:
        f = ts.factors
        for k, w in enumerate(f):
            for c, d in word_splits(w):
                out ^= {TString(f[:k] + (c, d) + f[k + 1 :])}
    return out


def _ref_block_length(ts):
    f = ts.factors
    if f[0].ell != 1:
        return 0
    n_block = 1
    while n_block < len(f):
        w = f[n_block]
        if w.ell != 1 or mul_word(dict_image(w), dict_image(f[n_block - 1])) is None:
            break
        n_block += 1
    return n_block


def _ref_homotopy_h(strings):
    out = set()
    for ts in strings:
        f = ts.factors
        n_block = _ref_block_length(ts)
        if n_block == 0 or n_block == len(f):
            continue
        merged = mul_word(f[n_block - 1], f[n_block])
        if merged is not None:
            out ^= {TString(f[: n_block - 1] + (merged,) + f[n_block + 1 :])}
    return out


def _ref_phi(ts):
    """The word phi(ts) of the other algebra, or None when it is zero."""
    if any(w.ell != 1 for w in ts.factors):
        return None
    acc = dict_image(ts.factors[-1])
    for w in reversed(ts.factors[:-1]):
        acc = mul_word(acc, dict_image(w))
        if acc is None:
            return None
    return acc


def _ref_psi(word):
    return TString(tuple(dict_image(l) for l in reversed(word_letters(word))))


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_kernel_matches_object_oracle(algebra, n):
    # Every string of total length <= 6: the kernel's two sides of the
    # certificate, and each public map built on it, equal the reference.
    tables = _tables(algebra, n, 6)
    swept = 0
    for ts in enumerate_strings(algebra, 6, n):
        swept += 1
        ref_lhs = _ref_cobar_diff(_ref_homotopy_h({ts})) ^ _ref_homotopy_h(_ref_cobar_diff({ts}))
        ref_rhs = {ts}
        image = _ref_phi(ts)
        if image is not None:
            ref_rhs ^= {_ref_psi(image)}
        lhs, rhs = tables.homotopy_sides(tables.intern(ts))
        assert tables.cob(lhs).terms == ref_lhs, ts.render()
        assert tables.cob(rhs).terms == ref_rhs, ts.render()
        assert (cobar_diff(homotopy_h(ts)) + homotopy_h(cobar_diff(ts))).terms == ref_lhs
        assert cobar_diff(ts).terms == _ref_cobar_diff({ts})
        assert homotopy_h(ts).terms == _ref_homotopy_h({ts})
        expected = AlgElem.zero(dual_algebra(algebra), n) if image is None else AlgElem.from_word(image)
        assert phi(ts) == expected
        assert tables.block_length(tables.intern(ts)) == _ref_block_length(ts)
    assert swept > 0
    for w in enumerate_basis(dual_algebra(algebra), 6, n):
        if not w.is_idempotent():
            assert psi(w).terms == {_ref_psi(w)}


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_break_h_fails_the_sweep(algebra, n):
    assert verify_homotopy(6, n, algebra)
    assert not verify_homotopy(6, n, algebra, fault=("break-h",))


@pytest.mark.parametrize("base", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_phi_psi_identity_matches_object_oracle(base, n):
    # The table check fails on exactly the words on which the public maps
    # give phi(psi(w)) != w: on none, for every word of length <= 6.
    words = [w for w in enumerate_basis(dual_algebra(base), 6, n) if not w.is_idempotent()]
    assert len(words) > 2 * n
    oracle = [w for w in words if phi(psi(w)) != AlgElem.from_word(w)]
    assert phi_psi_failures(6, n, base) == oracle == []


@pytest.mark.parametrize("base", ["A", "B"])
def test_phi_psi_check_names_a_corrupted_psi_entry(base):
    # A fresh table, not the cached one, with the psi entry of its last word
    # replaced by that of the word before: the check names that word only.
    tables = _WordTables(base, 3, 4)
    other = tables.other
    last = len(other.words) - 1
    tables.psi[last] = tables.psi[last - 1]
    assert tables.phi_psi_failures() == [other.words[last]]
    assert _tables(base, 3, 4).phi_psi_failures() == []
