"""Tests for the twisted two-sided complex and its cohomology."""
from __future__ import annotations

import collections
import functools
import itertools
from operator import add

import pytest
from reference import cobar_mul, dict_image

from starcob import hochschild
from starcob.barcobar import TString, cobar_diff, phi, psi
from starcob.gradegroup import assign_grading
from starcob.hochschild import (
    InsufficientTruncation,
    TwistedElem,
    TwistedMono,
    cohomology_dim,
    cohomology_table,
    diff_matrix,
    is_coboundary,
    mono_sort_key,
    slice_basis,
    slice_params,
    twisted_diff,
    witness_cocycle,
)
from starcob.staralg import (
    AWord,
    BWord,
    coeff_var,
    dual_algebra,
    grading,
    idempotent,
    letter,
    mono_grading,
    mul_word,
    var_grading,
    words_of_length,
)


def _i_a(i, n=3):
    return idempotent("A", i, n)


def _i_b(i, n=3):
    return idempotent("B", i, n)


def test_admissibility_enforced():
    # A loop-algebra left leg with a dual-algebra right leg is model A.
    tm = TwistedMono(1, _i_a(1), BWord("c", 1, "r", 6, 3))
    assert tm.algebra == "A"
    assert tm.n == 3
    # Endpoint mismatch.
    with pytest.raises(ValueError):
        TwistedMono(1, _i_a(2), BWord("c", 1, "r", 6, 3))
    # Weight balance: no power of the dual variable turns nothing into U1^3.
    with pytest.raises(ValueError):
        TwistedMono(1, _i_b(1), AWord("u", 1, 3, 3))
    # Same legs cannot pair without the twist power matching the weights.
    with pytest.raises(ValueError):
        TwistedMono(2, _i_a(1), BWord("c", 1, "r", 6, 3))
    # p = 0 demands equal weight vectors.
    zero_ok = TwistedMono(0, _i_a(1), _i_b(1))
    assert zero_ok.bidegree() == (0, 0)


def test_bidegree_formulas():
    n = 3
    tm = TwistedMono(1, _i_a(1), BWord("c", 1, "r", 6, n))
    # Row degree counts right-leg letters; column degree mixes the twist.
    assert tm.bidegree() == (6, (2 * n - 2) - 6)
    bm = TwistedMono(1, _i_b(1), AWord("s", 1, n, n))
    assert bm.algebra == "B"
    assert bm.bidegree() == (n, -2)
    # Model B: j = -2p - len(left leg).
    assert bm.bidegree()[1] == -2 * bm.p - bm.left.ell


def test_render():
    tm = TwistedMono(1, _i_a(1), BWord("c", 1, "r", 6, 3))
    assert tm.render() == "V0*I1 (x) r1.s1.r2.s2.r3.s3"
    assert TwistedMono(0, _i_a(1), _i_b(1)).render() == "I1 (x) I1"


def test_diff_oracle_on_counit():
    x = TwistedElem.of(TwistedMono(0, _i_a(1), _i_b(1)))
    d = twisted_diff(x)
    assert d.render() == "s[1,2] (x) s1 + s[3,4] (x) s3"
    # The differential raises the row degree by one and drops the column by one.
    assert x.bidegree() == (0, 0)
    assert d.bidegree() == (1, -1)


def test_diff_squares_to_zero():
    for model in ("A", "B"):
        for n_deg in range(0, 7):
            for j in range(-6, 1):
                basis = slice_basis(model, n_deg, j, 3)
                for tm in basis:
                    dd = twisted_diff(twisted_diff(TwistedElem.of(tm)))
                    assert dd.is_zero()


def test_witness_cocycles_closed():
    for big_n in (3, 4, 5):
        wa = witness_cocycle("A", big_n)
        assert twisted_diff(wa).is_zero()
        assert wa.bidegree() == (2 * big_n, -2)
        assert len(wa.sorted_terms()) == 2 * big_n
        wb = witness_cocycle("B", big_n)
        assert twisted_diff(wb).is_zero()
        assert wb.bidegree() == (big_n, -2)
        assert len(wb.sorted_terms()) == big_n


def _witness_components(model, big_n):
    """(render, refined-grading key) per witness monomial; the keys separate
    the monomials into distinct graded components."""
    out = []
    for tm in witness_cocycle(model, big_n).sorted_terms():
        gr = assign_grading(tm.right)
        out.append((tm.render(), (tm.right.init, gr.word)))
    return out


def test_witness_components_distinct():
    comps = _witness_components("A", 3)
    assert len(comps) == 6
    assert len(set(key for _, key in comps)) == 6
    comps_b = _witness_components("B", 3)
    assert len(comps_b) == 3
    assert len(set(key for _, key in comps_b)) == 3


def test_slice_params():
    # Model A at N=3: the twist power is (n + j) / 4.
    assert slice_params("A", 6, -2, 3) == (1, 0)
    assert slice_params("A", 5, -2, 3) is None
    # The twist power would fit, but the left leg would need negative length.
    assert slice_params("A", 10, -2, 3) is None
    assert slice_params("A", 12, -4, 3) == (2, 0)
    assert slice_params("A", 7, -3, 3) == (1, 1)
    # Model B at N=3: the denominator is 1.
    assert slice_params("B", 3, -2, 3) == (1, 0)
    assert slice_params("B", 4, -3, 3) == (1, 1)
    # Negative twist powers or left lengths are rejected.
    assert slice_params("A", 2, -6, 3) is None
    assert slice_params("B", 1, -4, 3) is None


def test_slices_refuse_n_at_most_2():
    # At N = 2 model B's coefficient variable has Maslov degree h - 2 = 0.
    with pytest.raises(ValueError, match="the construction needs N > 2, got N=2"):
        slice_params("B", 3, -1, 2)
    with pytest.raises(ValueError, match="the construction needs N > 2, got N=2"):
        cohomology_dim("B", 4, -2, 2)


def test_cohomology_dims_model_a():
    for n_deg in range(3, 10):
        for j in (-1, -2):
            dim, wits = cohomology_dim("A", n_deg, j, 3)
            expected = 1 if (n_deg == 6 and j == -2) else 0
            assert dim == expected, (n_deg, j, dim)
            assert len(wits) == dim


def test_cohomology_dims_model_b():
    for n_deg in range(3, 10):
        for j in (-1, -2):
            dim, wits = cohomology_dim("B", n_deg, j, 3)
            expected = 1 if (n_deg == 3 and j == -2) else 0
            assert dim == expected, (n_deg, j, dim)


def test_cohomology_witness_matches_distinguished_cocycle():
    dim, wits = cohomology_dim("A", 6, -2, 3)
    assert dim == 1
    rep = wits[0]
    target = witness_cocycle("A", 3)
    # The class of the representative equals the class of the witness:
    # their difference bounds.
    assert is_coboundary(rep + target) is not None or rep == target


def test_witness_is_not_a_coboundary():
    for model, big_n in (("A", 3), ("B", 3), ("A", 4)):
        w = witness_cocycle(model, big_n)
        assert is_coboundary(w) is None


def test_coboundary_roundtrip():
    x = TwistedElem.of(TwistedMono(0, _i_a(1), _i_b(1)))
    d = twisted_diff(x)
    pre = is_coboundary(d)
    assert pre is not None
    assert twisted_diff(pre) == d
    # Non-cocycles are rejected outright.
    basis = slice_basis("A", 1, -1, 3)
    probe = TwistedElem.of(basis[0])
    if not twisted_diff(probe).is_zero():
        with pytest.raises(ValueError):
            is_coboundary(probe)


def test_insufficient_truncation():
    with pytest.raises(InsufficientTruncation):
        slice_basis("A", 12, -4, 3, trunc=1)
    with pytest.raises(InsufficientTruncation):
        cohomology_dim("A", 12, -4, 3, trunc=1)
    # A generous cap changes nothing.
    assert cohomology_dim("A", 6, -2, 3, trunc=5)[0] == 1
    # The table reports a too-small cap in the affected cell only.
    rows = list(cohomology_table("A", 3, 12, (-4,), trunc=1))
    assert len(rows) == 10
    errored = [r for r in rows if "error" in r]
    assert [(r["n"], r["j"]) for r in errored] == [(12, -4)]
    assert "coefficient power 2 > truncation 1" in errored[0]["error"]
    assert "dim" not in errored[0] and "witnesses" not in errored[0]
    assert all(r["dim"] == 0 for r in rows if "error" not in r)


def _cohomology_dim_after_the_matrix(model, n_deg, j, big_n, trunc):
    """cohomology_dim as it was before an empty source returned early: the
    outgoing matrix, and with it the target slice, built first."""
    _, src, _ = hochschild.diff_matrix(model, n_deg, j, big_n, trunc)
    return cohomology_dim(model, n_deg, j, big_n, trunc) if src else (0, [])


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("big_n", [3, 4])
def test_empty_source_cells_raise_as_the_matrix_did(model, big_n):
    # An empty source returns before any matrix; each cell still gives the
    # dimension, witnesses or InsufficientTruncation message it gave when
    # the matrix came first, also where the source has left length -1 and
    # only its target slice needs the capped power.
    def outcome(dim_of, n_deg, j, trunc):
        try:
            dim, wits = dim_of(model, n_deg, j, big_n, trunc)
        except InsufficientTruncation as exc:
            return str(exc)
        return dim, [w.render() for w in wits]

    raised = 0
    for trunc in (None, 0, 1):
        for n_deg in range(3, 4 * big_n + 2):
            for j in range(-2 * big_n - 2, 2):
                got = outcome(cohomology_dim, n_deg, j, trunc)
                assert got == outcome(_cohomology_dim_after_the_matrix, n_deg, j, trunc), (n_deg, j, trunc)
                raised += isinstance(got, str) and not slice_basis(model, n_deg, j, big_n)
    assert raised


def _string_diff(p, left, ts):
    """String-model differential of a monomial left (x) string: split a string
    factor, or multiply by a letter on one side and concatenate its dual on
    the other."""
    out = []
    for split in cobar_diff(ts).terms:
        out.append((p, left, split))
    for xl in words_of_length(left.algebra, 1, left.n):
        dual = TString((xl,))
        merged = mul_word(xl, left)
        if merged is not None:
            for s in cobar_mul(dual, ts).terms:
                out.append((p, merged, s))
        merged = mul_word(left, xl)
        if merged is not None:
            for s in cobar_mul(ts, dual).terms:
                out.append((p, merged, s))
    return out


def _string_model_check(model, big_n, max_len):
    """Whether the twisted differential agrees with the string-model
    differential transported through psi and phi, on every admissible monomial
    whose right word has length 1..max_len."""
    var_len = var_grading(coeff_var(model, big_n), big_n).ell
    for ell_r in range(1, max_len + 1):
        # every letter carries weight one, so len(left) = ell_r - p*var_len
        for p in range(0, ell_r // var_len + 1):
            for tm in hochschild._slice(model, ell_r, p, ell_r - p * var_len, big_n):
                transported: set = set()
                for q, lw, ts in _string_diff(p, tm.left, psi(tm.right)):
                    for exp, word in phi(ts).monomial_pairs():
                        if exp != 0:
                            raise AssertionError("string fold produced a coefficient")
                        transported ^= {TwistedMono(q, lw, word)}
                if twisted_diff(tm) != TwistedElem(model, big_n, transported):
                    return False
    return True


def test_string_model_cross_check():
    assert _string_model_check("A", 3, 8)
    assert _string_model_check("B", 3, 8)
    assert _string_model_check("A", 4, 6)
    assert _string_model_check("B", 4, 6)
    # wider windows: at N = 3, length 12 reaches coefficient power 2 in A and 4 in B
    for big_n, max_len in ((3, 12), (4, 10), (5, 10)):
        assert _string_model_check("A", big_n, max_len)
        assert _string_model_check("B", big_n, max_len)


def test_cohomology_table_shape():
    rows = list(cohomology_table("A", 3, 7))
    assert len(rows) == 10  # n in 3..7, j in (-1, -2)
    hit = [r for r in rows if r["dim"] > 0]
    assert len(hit) == 1
    assert hit[0]["n"] == 6 and hit[0]["j"] == -2
    assert hit[0]["witnesses"]
    for w in hit[0]["witnesses"]:
        assert w.bidegree() == (6, -2) and twisted_diff(w).is_zero()


def test_cohomology_table_yields_each_cell_as_computed():
    # the first cell comes out before the rest of a table too large to build
    cells = cohomology_table("A", 3, 10**9)
    assert next(cells) == {"model": "A", "N": 3, "n": 3, "j": -1, "dim": 0, "witnesses": []}


def _all_letters_diff(x):
    """The twisted differential as first written: every monomial tries all 2N
    letters on both sides; the reference for the bucketed twisted_diff."""
    model, n = x.algebra, x.n
    letters = words_of_length(model, 1, n)
    out: set = set()
    for tm in x.terms:
        for xl in letters:
            xh = dict_image(xl)
            left = mul_word(xl, tm.left)
            right = mul_word(tm.right, xh)
            if left is not None and right is not None:
                out ^= {TwistedMono(tm.p, left, right)}
            left = mul_word(tm.left, xl)
            right = mul_word(xh, tm.right)
            if left is not None and right is not None:
                out ^= {TwistedMono(tm.p, left, right)}
    return TwistedElem(model, n, out)


def _nonempty_slices(model, big_n, n_max):
    """Every nonempty slice (n, j) with n <= n_max, from its (n, p) parameters."""
    den, var_len = (2 * big_n - 2, 2 * big_n) if model == "A" else (big_n - 2, big_n)
    for n_deg in range(n_max + 1):
        for p in range(n_deg // var_len + 1):
            j = p * den - n_deg
            assert slice_params(model, n_deg, j, big_n) == (p, n_deg - var_len * p)
            basis = slice_basis(model, n_deg, j, big_n)
            if basis:
                yield (n_deg, j), basis


@pytest.mark.parametrize("model", ["A", "B"])
def test_letter_buckets_pair_each_letter_with_its_dictionary_image(model):
    # The buckets read each image off the letter's weight slot; the
    # dictionary of the cobar module is their oracle.
    for big_n in range(3, 20):
        by_exit, by_entry = hochschild._letter_buckets(model, big_n)
        letters = set(words_of_length(model, 1, big_n))
        for buckets, node in ((by_exit, "exit"), (by_entry, "entry")):
            pairs = [pair for bucket in buckets for pair in bucket]
            assert {xl for xl, _ in pairs} == letters and len(pairs) == len(letters)
            for i, bucket in enumerate(buckets, 1):
                for xl, xh in bucket:
                    assert getattr(xl, node) == i
                    assert xh == dict_image(xl)


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("big_n", [3, 4, 5, 6])
def test_bucketed_diff_matches_all_letters(model, big_n):
    terms = 0
    for _, basis in _nonempty_slices(model, big_n, 3 * big_n):
        for tm in basis:
            x = TwistedElem.of(tm)
            assert twisted_diff(x) == _all_letters_diff(x), tm.render()
            terms += 1
    assert terms > 0


def _construct_and_catch_slice(model, n_deg, p, ell_left, big_n):
    """Reference: build a monomial for every pair of words with equal
    endpoints and keep those whose construction passes the weight balance,
    which must hold exactly when p*A(var) + A(left) = A(right)."""
    coeff_vec = mono_grading(p, model, big_n).alexander
    lefts = {}
    for left in words_of_length(model, ell_left, big_n):
        lefts.setdefault((left.init, left.fin), []).append(left)
    out = []
    for right in words_of_length(dual_algebra(model), n_deg, big_n):
        for left in lefts.get((right.init, right.fin), ()):
            balanced = tuple(map(add, coeff_vec, grading(left).alexander)) == grading(right).alexander
            try:
                out.append(TwistedMono(p, left, right))
            except ValueError:
                assert not balanced
                continue
            assert balanced
    out.sort(key=mono_sort_key)
    return tuple(out)


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("big_n", range(3, 11))
def test_slice_selects_by_left_weight(model, big_n):
    # The closed-form slices give the monomials that constructing every
    # endpoint-matched pair kept.
    nonempty = 0
    for n_deg in range(5 * big_n + 1):
        for j in range(2, -13, -1):
            params = slice_params(model, n_deg, j, big_n)
            if params is None:
                assert slice_basis(model, n_deg, j, big_n) == ()
                continue
            expect = _construct_and_catch_slice(model, n_deg, *params, big_n)
            assert slice_basis(model, n_deg, j, big_n) == expect, (n_deg, j)
            nonempty += bool(expect)
    assert nonempty > 0
    # The balance is still checked where a monomial is built.
    loop = letter(dual_algebra(model), "r" if model == "A" else "u", 1, big_n)
    with pytest.raises(ValueError, match="weight balance"):
        TwistedMono(0, idempotent(model, 1, big_n), loop)


def _checked(tm):
    """The monomial rebuilt through the constructor, which checks it."""
    return TwistedMono(tm.p, tm.left, tm.right)


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("big_n", range(3, 11))
def test_kernel_monomials_pass_the_checked_constructor(model, big_n):
    # The slices and the differential build their monomials unchecked; each
    # must be one the constructor accepts, with the same hash.
    built = 0
    for _, basis in _nonempty_slices(model, big_n, 5 * big_n):
        for tm in basis:
            for out in (tm, *twisted_diff(tm).terms):
                checked = _checked(out)
                assert checked == out and hash(checked) == hash(out), out.render()
                built += 1
    assert built > 0


@pytest.mark.parametrize("big_n", range(3, 17))
def test_witness_monomials_pass_the_checked_constructor(big_n):
    for model in ("A", "B"):
        for tm in witness_cocycle(model, big_n).terms:
            assert _checked(tm) == tm, tm.render()


def _counting(fn, counts):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[args] += 1
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("j_values", [(-1, -2), tuple(range(0, -9, -1))])
def test_table_builds_each_slice_once(model, j_values, monkeypatch):
    builds: collections.Counter = collections.Counter()
    fresh = functools.lru_cache(maxsize=hochschild._slice.cache_parameters()["maxsize"])(
        _counting(hochschild._slice.__wrapped__, builds)
    )
    monkeypatch.setattr(hochschild, "_slice", fresh)
    list(cohomology_table(model, 8, 24, j_values))
    assert builds and max(builds.values()) == 1


@pytest.mark.parametrize("model", ["A", "B"])
def test_mul_word_calls_per_term_do_not_grow_with_n(model, monkeypatch):
    def calls_per_term(big_n):
        calls: collections.Counter = collections.Counter()
        monkeypatch.setattr(hochschild, "mul_word", _counting(mul_word, calls))
        per_term = set()
        for _, basis in _nonempty_slices(model, big_n, 3 * big_n):
            for tm in basis:
                calls.clear()
                twisted_diff(tm)
                per_term.add(sum(calls.values()))
        return per_term

    at_8 = calls_per_term(8)
    assert len(at_8) == 1
    assert calls_per_term(32) == at_8


@pytest.mark.parametrize("model", ["A", "B"])
def test_cohomology_dim_matches_sympy_ranks(model):
    # An oracle the package did not write: dim H^(n,j) = |source| - rank d_n
    # - rank d_(n-1), with both ranks taken by sympy's DomainMatrix over GF(2)
    # on the differential's matrices.
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF

    field = GF(2)

    @functools.cache
    def rank(n_deg, j, big_n):
        # rank of the differential out of slice (n_deg, j)
        m, src, dst = diff_matrix(model, n_deg, j, big_n)
        if not src or not dst:
            return 0
        dense = [[field(row >> c & 1) for c in range(m.ncols)] for row in m.rows]
        return matrices.DomainMatrix(dense, (m.nrows, m.ncols), field).rank()

    cells = nonzero = 0
    for big_n in (*range(3, 11), 16, 32, 64):
        for n_deg in range(3, 3 * big_n + 1):  # the table's cells, n > 2
            for j in (-1, -2, -3):
                src = slice_basis(model, n_deg, j, big_n)
                want = len(src) - rank(n_deg, j, big_n) - rank(n_deg - 1, j + 1, big_n) if src else 0
                assert cohomology_dim(model, n_deg, j, big_n)[0] == want, (big_n, n_deg, j)
                cells, nonzero = cells + 1, nonzero + (want > 0)
    assert cells == 1410 and nonzero
