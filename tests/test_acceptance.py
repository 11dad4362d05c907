"""Acceptance gate: one test per shipped guarantee, with time budgets.

Each test prints a single PASS line with its elapsed time; a failure of any
assertion (or budget) fails the corresponding criterion.
"""
from __future__ import annotations

import itertools
import json
import time

from starcob.ainfty import check_ainfty, mu_a, mu_b, op_grading_check
from starcob.barcobar import (
    bar_diff,
    cobar_diff,
    enumerate_strings,
    homotopy_h,
    phi,
    psi,
    verify_homotopy,
)
from starcob.cli import main
from starcob.gradegroup import admissible_arities, check_multiplicativity
from starcob.hochschild import (
    TwistedElem,
    cohomology_dim,
    is_coboundary,
    slice_basis,
    twisted_diff,
    witness_cocycle,
)
from starcob.staralg import (
    AlgElem,
    AWord,
    enumerate_basis,
    grading,
    letter,
    mono_grading,
    mul_a,
    mul_b,
    var_grading,
)


def _node(m, big_n):
    return (m - 1) % big_n + 1


def _alternating_loop(big_n):
    seq = []
    for i in range(1, big_n + 1):
        seq.append(letter("A", "u", i, big_n))
        seq.append(letter("A", "s", i, big_n))
    return seq


def _report(num, elapsed):
    print(f"criterion {num:02d}: PASS ({elapsed:.1f}s)")


def test_criterion_01_a_relations_hold():
    t0 = time.monotonic()
    for big_n in (3, 4):
        violations = check_ainfty("A", 2 * big_n + 2, 4 * big_n, big_n)
        assert violations == [], violations[:3]
        # Past mu_{2N} o mu_{2N}, arity 4N - 1: guards against an operation
        # in arity 4N - 2, which A does not carry.
        violations = check_ainfty("A", 4 * big_n - 1, 4 * big_n + 2, big_n)
        assert violations == [], violations[:3]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(1, elapsed)


def test_criterion_02_b_relations_hold():
    t0 = time.monotonic()
    for big_n in (3, 4, 5):
        violations = check_ainfty("B", big_n + 2, 3 * big_n, big_n)
        assert violations == [], violations[:3]
    # Windows that compose two higher operations, mu_N(.., mu_N(..), ..),
    # of arity 2N - 1; the default arity N + 2 misses them for N >= 4.
    for big_n, max_arity, max_len in ((4, 7, 10), (5, 9, 12)):
        violations = check_ainfty("B", max_arity, max_len, big_n)
        assert violations == [], violations[:3]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, elapsed)


def test_criterion_03_distinguished_operations():
    t0 = time.monotonic()
    for big_n in (3, 4, 5):
        base = _alternating_loop(big_n)
        res = mu_a(base)
        assert res.value.render() == "V0*I1"
        for k in range(2 * big_n):
            rot = base[k:] + base[:k]
            out = mu_a(rot)
            assert not out.value.is_zero(), (big_n, k)
            assert out.tag == "centered"
        for i in range(1, big_n + 1):
            chain = [
                letter("B", "s", _node(m, big_n), big_n)
                for m in range(i + big_n - 1, i - 1, -1)
            ]
            out = mu_b(chain)
            assert out.value.render() == f"V{big_n + 1}*I{i}"
    elapsed = time.monotonic() - t0
    _report(3, elapsed)


def test_criterion_04_component_deletion_detected(capsys):
    t0 = time.monotonic()
    for comp in range(6):
        violations = check_ainfty("A", 8, 12, 3, fault=("drop-a-centered", comp))
        assert violations, f"dropping component {comp} went unnoticed"
    code = main(["verify", "ainfty-a", "--n", "3", "--inject-fault", "drop-mu2N:4"])
    capsys.readouterr()
    assert code == 1
    elapsed = time.monotonic() - t0
    _report(4, elapsed)


def test_criterion_05_quasi_isomorphism_certificate():
    t0 = time.monotonic()
    for big_n in (3, 4):
        for algebra in ("A", "B"):
            for w in enumerate_basis(algebra, 8, big_n):
                if w.is_idempotent():
                    continue
                assert phi(psi(w)) == AlgElem.from_word(w), w.render()
        assert verify_homotopy(8, big_n, "A")
        assert verify_homotopy(8, big_n, "B")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, elapsed)


def test_criterion_06_distinguished_cocycles_closed():
    t0 = time.monotonic()
    for big_n in (3, 4, 5):
        assert twisted_diff(witness_cocycle("A", big_n)).is_zero()
        assert twisted_diff(witness_cocycle("B", big_n)).is_zero()
    elapsed = time.monotonic() - t0
    _report(6, elapsed)


def test_criterion_07_cohomology_dimensions():
    t0 = time.monotonic()
    for big_n in (3, 4, 5):
        for n_deg in range(3, 3 * big_n + 1):
            dim_a2, wits_a = cohomology_dim("A", n_deg, -2, big_n)
            assert dim_a2 == (1 if n_deg == 2 * big_n else 0), ("A", big_n, n_deg)
            dim_a1, _ = cohomology_dim("A", n_deg, -1, big_n)
            assert dim_a1 == 0, ("A", big_n, n_deg)
            dim_b2, wits_b = cohomology_dim("B", n_deg, -2, big_n)
            assert dim_b2 == (1 if n_deg == big_n else 0), ("B", big_n, n_deg)
            dim_b1, _ = cohomology_dim("B", n_deg, -1, big_n)
            assert dim_b1 == 0, ("B", big_n, n_deg)
            if n_deg == 2 * big_n:
                rep = wits_a[0]
                diff = rep + witness_cocycle("A", big_n)
                assert diff.is_zero() or is_coboundary(diff) is not None
            if n_deg == big_n:
                rep = wits_b[0]
                diff = rep + witness_cocycle("B", big_n)
                assert diff.is_zero() or is_coboundary(diff) is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(7, elapsed)


def test_criterion_08_arity_obstruction():
    t0 = time.monotonic()
    for big_n in range(3, 9):
        assert admissible_arities("A", big_n, 3, 2 * big_n - 1) == set()
        assert admissible_arities("B", big_n, 3, big_n - 1) == set()
        assert admissible_arities("A", big_n, 3, 2 * big_n) == {2 * big_n}
        assert admissible_arities("B", big_n, 3, big_n) == {big_n}
    elapsed = time.monotonic() - t0
    _report(8, elapsed)


def test_criterion_09_grading_laws():
    t0 = time.monotonic()
    for big_n in (3, 4):
        assert op_grading_check("A", 2 * big_n + 2, 4 * big_n, big_n) == []
        assert check_multiplicativity("A", 2 * big_n + 2, 4 * big_n, big_n) == []
    for big_n in (3, 4, 5):
        assert op_grading_check("B", big_n + 2, 3 * big_n, big_n) == []
        assert check_multiplicativity("B", big_n + 2, 3 * big_n, big_n) == []
        assert var_grading(0, big_n).m == 2 * big_n - 2
        assert var_grading(big_n + 1, big_n).m == -2
    elapsed = time.monotonic() - t0
    _report(9, elapsed)


def test_criterion_10_global_sanity(capsys):
    t0 = time.monotonic()
    # The bar and cobar maps are differentials on every string of size <= 8.
    for algebra in ("A", "B"):
        for ts in enumerate_strings(algebra, 8, 3):
            assert cobar_diff(cobar_diff(ts)).is_zero()
            assert bar_diff(bar_diff(ts)).is_zero()
    # The twisted differential squares to zero on every small slice.
    for model in ("A", "B"):
        for n_deg in range(0, 9):
            for j in range(-8, 1):
                for tm in slice_basis(model, n_deg, j, 3):
                    assert twisted_diff(twisted_diff(TwistedElem.of(tm))).is_zero()
    # Associativity on all word triples of total length <= 8.
    for algebra, mul in (("A", mul_a), ("B", mul_b)):
        words = [w for w in enumerate_basis(algebra, 6, 3)]
        elems = {w: AlgElem.from_word(w) for w in words}
        for x, y, z in itertools.product(words, repeat=3):
            if x.ell + y.ell + z.ell > 8:
                continue
            ex, ey, ez = elems[x], elems[y], elems[z]
            assert mul(mul(ex, ey), ez) == mul(ex, mul(ey, ez))
    # Grading additivity on every nonzero binary product.
    for algebra, mul in (("A", mul_a), ("B", mul_b)):
        words = enumerate_basis(algebra, 8, 3)
        for x, y in itertools.product(words, repeat=2):
            prod = mul(AlgElem.from_word(x), AlgElem.from_word(y))
            if prod.is_zero():
                continue
            expected = grading(x) + grading(y)
            for mono, w in prod.monomial_pairs():
                assert mono_grading(mono, algebra, 3) + grading(w) == expected
    # Reports are byte-identical under a fixed configuration and seed.
    code1 = main(["verify", "ainfty-b", "--n", "3", "--seed", "5"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "ainfty-b", "--n", "3", "--seed", "5"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    elapsed = time.monotonic() - t0
    _report(10, elapsed)
