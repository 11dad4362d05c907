"""Tests for dual strings, the cobar differential, and the homotopy data."""
from __future__ import annotations

import hashlib
import itertools
import random
import re

import pytest
from reference import cobar_mul, dict_image, started_at, word_splits

from starcob.barcobar import (
    CobElem,
    TString,
    _tables,
    _WordTables,
    bar_diff,
    block_renderings,
    cobar_diff,
    enumerate_strings,
    homotopy_failure,
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
    words_of_length,
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
    assert _ts(U1SQ).render() == "(U1^2)*"
    # the dump of every string up to the length of ts splits off each
    # leading block with '|'
    dumped = block_renderings("A", ts.total_ell, 3)
    assert "U1*.s1*|(s2s3)*" in dumped
    assert "|(U1^2)*" in dumped


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
                assert _m_degree(out) == _m_degree(ts) + 1


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


def _m_degree(ts):
    """Maslov degree of a string: each dual factor contributes -m-1."""
    return sum(-grading(w).m - 1 for w in ts.factors)


def test_m_degree():
    # Loop-algebra words have internal degree 0, so each dual factor counts -0-1.
    assert _m_degree(_ts(U1, S1)) == -2
    assert _m_degree(_ts(U1SQ)) == -1
    # Dual-algebra words have internal degree -length.
    assert _m_degree(_ts(SIG1, R1)) == 0
    w2 = BWord("c", 1, "r", 2, 3)
    assert _m_degree(_ts(w2)) == 1


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
    # test_cobar_leibniz_random samples strings by position, and the homotopy
    # sweep checks the strings entered at node 1, which come first, and
    # reports the first that fails, so the enumeration order is part of the
    # behaviour; this digest pins it.
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


def _word_built_string_columns(tables):
    """The dictionary, block and psi columns built from Word objects, as the
    tables once built them: the oracle of the construction on slots."""
    n, dual = tables.n, dual_algebra(tables.algebra)
    letters = words_of_length(tables.algebra, 1, n)
    other_letters = {w: n + i for i, w in enumerate(words_of_length(dual, 1, n))}
    return {
        "image": [other_letters[dict_image(w)] for w in letters],
        "block_next": [
            frozenset(n + b for b, y in enumerate(letters) if mul_word(dict_image(y), dict_image(x)) is not None)
            for x in letters
        ],
        "psi": [
            tuple(tables.ids[dict_image(l)] for l in reversed(word_letters(o)))
            for o in enumerate_basis(dual, tables.max_len, n)
        ],
    }


@pytest.mark.parametrize("algebra", ["A", "B"])
def test_string_table_columns_against_word_oracle(algebra):
    # The dictionary images, the leading-block rule and psi, read off the
    # letters' weight slots, equal their construction from Word objects.
    for n in range(3, 9):
        for bound in (0, 1, 2 * n, 4 * n + 2):
            tables = _WordTables(algebra, n, bound)
            oracle = _word_built_string_columns(tables)
            # the Word product lets exactly one letter follow each letter
            assert oracle.pop("block_next") == [frozenset({b}) for b in tables.block_next], (n, bound)
            for name, want in oracle.items():
                assert getattr(tables, name) == want, (n, bound, name)


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
        # a known block prefix does not change the length
        block = _ref_block_length(ts)
        assert all(tables.block_length(tables.intern(ts), k) == block for k in range(1, block + 1))
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


# Rotation equivariance: the Z/N rotation i -> i+1 of the cyclic quiver
# commutes with every column the certificate reads, so checking the strings
# entered at node 1, one per orbit, checks them all.


def _rotation(tables):
    """The rotation i -> i+1 as a permutation of the table's ids."""
    n = tables.n
    return [tables.ids[started_at(w, w.start % n + 1)] for w in tables.words]


def _equivariance_mismatches(tables):
    """The columns and strings (up to the table's bound) on which rotating
    the input and rotating the output disagree."""
    n, other = tables.n, tables.other
    rot, rot_o = _rotation(tables), _rotation(other)

    def rotate(s):
        return tuple(rot[a] for a in s)

    bad = []
    for a in range(len(tables.words)):
        if {rot[b]: rot[m] for b, m in tables.mul[a].items()} != tables.mul[rot[a]]:
            bad.append(("mul", a))
        if tuple((rot[c], rot[d]) for c, d in tables.splits[a]) != tables.splits[rot[a]]:
            bad.append(("splits", a))
    for a in range(n, 3 * n):
        if rot_o[tables.image[a - n]] != tables.image[rot[a] - n]:
            bad.append(("image", a))
        if rot[tables.block_next[a - n]] != tables.block_next[rot[a] - n]:
            bad.append(("block_next", a))
    for o in range(n, len(other.words)):
        if rotate(tables.psi[o]) != tables.psi[rot_o[o]]:
            bad.append(("psi", o))
    for s in tables.chains(tables.max_len):
        p = tables.phi_word(s)
        if (None if p is None else rot_o[p]) != tables.phi_word(rotate(s)):
            bad.append(("phi_word", s))
        for fault in (None, ("break-h",)):
            lhs, rhs = tables.homotopy_sides(s, fault)
            if tables.homotopy_sides(rotate(s), fault) != ({rotate(t) for t in lhs}, {rotate(t) for t in rhs}):
                bad.append(("homotopy_sides", s, fault))
    return bad


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_rotation_commutes_with_the_certificate(algebra, n):
    # Every column, and phi and both sides of the certificate (with and
    # without break-h) on every string of total length <= 6.
    tables = _tables(algebra, n, 6)
    assert sum(1 for _ in tables.chains(6)) == 728 * n
    assert _equivariance_mismatches(tables) == []


@pytest.mark.parametrize("algebra", ["A", "B"])
def test_equivariance_check_names_a_column_corrupted_at_one_node(algebra):
    # A fresh table, not the cached one, whose leading-block rule points the
    # follower of a letter at node 2 only at the other letter entered where
    # the follower is: the check above must see it.
    n = 3
    tables = _WordTables(algebra, n, 4)
    a = next(a for a in range(n, 3 * n) if tables.words[a].start == 2)
    follow = tables.block_next[a - n]
    entered = tables.by_entry[tables.exit[a]]
    tables.block_next[a - n] = next(b for b in entered if tables.ell[b] == 1 and b != follow)
    assert ("block_next", a) in _equivariance_mismatches(tables)
    assert _equivariance_mismatches(_tables(algebra, n, 4)) == []


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_entry_nodes_partition_the_strings_into_rotated_copies(algebra, n):
    # The strings entered at nodes 1..N, in that order, are the full
    # enumeration, and rotation maps the node-1 strings one-to-one onto the
    # strings entered at each later node.
    tables = _tables(algebra, n, 6)
    rot = _rotation(tables)
    full = [tables.intern(ts) for ts in enumerate_strings(algebra, 6, n)]
    by_entry = [[tables.intern(ts) for ts in enumerate_strings(algebra, 6, n, i)] for i in range(1, n + 1)]
    assert [s for strings in by_entry for s in strings] == full
    orbit = by_entry[0]
    for strings in by_entry[1:]:
        orbit = [tuple(rot[a] for a in s) for s in orbit]
        assert len(set(orbit)) == len(orbit)
        assert set(orbit) == set(strings)


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_orbit_sweep_agrees_with_the_full_sweep(algebra, n):
    # The reduced sweep against homotopy_sides on every string entered at
    # node 1, at every bound <= 10 (N=3) or <= 8 (N=4), with and without
    # break-h: the same verdict and the same first failing string, with both
    # sides as the full sweep finds them.  The node-1 strings of a bound are
    # those of max_bound's table in the same order, filtered by total length.
    max_bound = {3: 10, 4: 8}[n]
    tables = _tables(algebra, n, max_bound)
    failed_somewhere = False
    for fault in (None, ("break-h",)):
        first = {}  # bound -> the first failing string and its two sides
        for s in tables.chains(max_bound, 1):
            lhs, rhs = tables.homotopy_sides(s, fault)
            if lhs != rhs:
                for bound in range(sum(tables.ell[a] for a in s), max_bound + 1):
                    first.setdefault(bound, (s, lhs, rhs))
        for bound in range(1, max_bound + 1):
            failure = homotopy_failure(bound, n, algebra, fault)
            assert verify_homotopy(bound, n, algebra, fault) == (failure is None) == (bound not in first)
            if bound not in first:
                continue
            failed_somewhere = True
            s, lhs, rhs = first[bound]
            assert failure == {
                "string": tables.cob({s}).render(),
                "lhs-sum": tables.cob(lhs).render(),
                "rhs-sum": tables.cob(rhs).render(),
            }
    assert failed_somewhere
    # Over every entry node, up to bound 6: the failing strings are a union
    # of whole rotation orbits, so the node-1 strings, which come first,
    # hold the first failure of a sweep over every string.
    small = _tables(algebra, n, 6)
    rot = _rotation(small)
    failing = set()
    for s in small.chains(6):
        lhs, rhs = small.homotopy_sides(s, ("break-h",))
        if lhs != rhs:
            failing.add(s)
    assert failing
    assert {tuple(rot[a] for a in s) for s in failing} == failing


# The prefix lemma: D(P.R) = D(P).R, where D is the sum of the two sides of
# the certificate and P the longest prefix of a string that `reduced_chains`
# yields, so checking the reduced strings checks them all.


def _corrupted(base, n, max_len, seed):
    """A fresh table, not the cached one, with one to three `mul` entries
    changed to another word or dropped, and at about a third of the seeds
    one `psi` entry reversed.  The entries are taken from the rows of the
    letters, the only rows H reads: it merges a block letter into t."""
    rng = random.Random(seed)
    tables = _WordTables(base, n, max_len)
    entries = [(a, b) for a in range(n, 3 * n) for b in tables.mul[a]]
    for a, b in rng.sample(entries, rng.randint(1, 3)):
        if rng.random() < 0.5:
            del tables.mul[a][b]
        else:
            tables.mul[a][b] = rng.randrange(n, len(tables.words))
    if rng.random() < 0.3:
        o = rng.choice([o for o, p in enumerate(tables.psi) if len(p) > 1])
        tables.psi[o] = tables.psi[o][::-1]
    return tables


@pytest.mark.parametrize("base", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_certificate_factors_through_the_reduced_prefix(base, n):
    # On every node-1 string of length <= 8, clean and under 12 seeded
    # corruptions of mul and psi: D(s) = D(P).R, the reduced strings are the
    # node-1 strings that are their own P, in the same order, and the
    # reduced sweep meets the full sweep's first failure first.
    max_len = 8
    broken = 0
    for seed in (None, *range(12)):
        tables = _tables(base, n, max_len) if seed is None else _corrupted(base, n, max_len, seed)
        reduced = list(tables.reduced_chains(max_len, 1))
        is_reduced = set(reduced)
        defect, prefix = {}, {}
        for s in tables.chains(max_len, 1):
            lhs, rhs = tables.homotopy_sides(s)
            defect[s] = lhs ^ rhs
            # P: s if reduced, else the longest reduced prefix, that of s[:-1]
            p = prefix[s] = s if s in is_reduced else s[:-1] if s[:-1] in is_reduced else prefix[s[:-1]]
            # P comes before s, so its defect is known
            assert defect[s] == {d + s[len(p) :] for d in defect[p]}, (seed, s)
        assert reduced == [s for s in defect if s in is_reduced]
        failing = [s for s in defect if defect[s]]
        assert [s for s in reduced if defect[s]][:1] == failing[:1]
        assert seed is not None or not failing
        broken += bool(failing)
    # a zero D means something only if some corruption makes it nonzero
    assert broken >= 2


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_splits_column_lists_every_split(algebra, n):
    # The differential's column of every factorization, in `split` order.
    tables = _WordTables(algebra, n, 3 * n + 1)
    assert len(tables.splits) == len(tables.words)
    for a, ell in enumerate(tables.ell):
        assert tables.splits[a] == tuple(tables.split(a, k) for k in range(1, ell))


@pytest.mark.parametrize("base", ["A", "B"])
def test_block_premise_check_names_a_split_into_a_letter_and_its_follower(base, monkeypatch):
    # A fresh table, not the cached one, where the first letter of a
    # two-letter word's split is followed by the second: the lemma's premise
    # fails, and the check names that word.  Building a table runs the check.
    n = 3
    tables = _WordTables(base, n, 4)
    tables.check_block_premise()
    a = 3 * n
    assert tables.ell[a] == 2
    ((c, d),) = tables.splits[a]
    tables.block_next[c - n] = d
    with pytest.raises(RuntimeError, match=re.escape(tables.words[a].render())):
        tables.check_block_premise()
    _tables(base, n, 4).check_block_premise()

    def fail(self):
        raise RuntimeError("checked")

    monkeypatch.setattr(_WordTables, "check_block_premise", fail)
    with pytest.raises(RuntimeError, match="checked"):
        _WordTables(base, n, 4)


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_reduced_strings_number_2l_squared(algebra, n):
    # Every table is built through the lemma's premise check.
    for max_len in (4, 10, 20):
        assert sum(1 for _ in enumerate_strings(algebra, max_len, n, 1, reduced=True)) == 2 * max_len**2
