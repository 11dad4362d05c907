"""Tests for the GF(2)[V] coefficient ring (int bitmask polynomials)."""
from __future__ import annotations

import random

from starcob.ring import (
    POLY_ONE,
    POLY_ZERO,
    mono_mul,
    mono_str,
    poly_add,
    poly_from_monos,
    poly_monos,
    poly_mul,
    poly_str,
)


def _naive_mul(p, q):
    # Reference product: convolution of the exponent sets, counted mod 2.
    out: set = set()
    for a in poly_monos(p):
        for b in poly_monos(q):
            out ^= {a + b}
    return poly_from_monos(out)


def test_mono_mul_merges_exponents():
    assert mono_mul(1, 1) == 2
    assert mono_mul(0, 3) == 3
    assert mono_mul(2, 5) == 7


def test_poly_arithmetic_characteristic_two():
    v = poly_from_monos([1])
    assert poly_add(v, v) == POLY_ZERO
    assert poly_add(v, POLY_ZERO) == v
    assert poly_mul(v, POLY_ONE) == v
    assert poly_mul(v, v) == poly_from_monos([2])
    assert poly_add(POLY_ONE, POLY_ONE) == POLY_ZERO
    mixed = poly_add(POLY_ONE, v)
    assert poly_mul(mixed, mixed) == poly_add(POLY_ONE, poly_from_monos([2]))
    assert poly_from_monos([3, 0, 3]) == POLY_ONE
    assert poly_monos(poly_from_monos([4, 0, 9])) == [0, 4, 9]


def test_poly_ring_axioms_random():
    rng = random.Random(20240817)

    def random_poly():
        return poly_from_monos(rng.randrange(12) for _ in range(rng.randrange(6)))

    for _ in range(300):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert poly_mul(p, q) == _naive_mul(p, q)
        assert poly_add(p, q) == poly_add(q, p)
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
        assert poly_mul(p, POLY_ONE) == p
        assert poly_mul(p, POLY_ZERO) == POLY_ZERO
        assert poly_add(p, p) == POLY_ZERO


def test_rendering():
    assert mono_str(0, 0) == "1"
    assert mono_str(2, 0) == "V0^2"
    assert mono_str(1, 4) == "V4"
    assert poly_str(POLY_ZERO, 0) == "0"
    assert poly_str(POLY_ONE, 0) == "1"
    assert poly_str(poly_from_monos([0, 1]), 0) == "1 + V0"
    # Terms sort by their rendered strings, not by exponent.
    assert poly_str(poly_from_monos([0, 2, 10]), 0) == "1 + V0^10 + V0^2"
    assert poly_str(poly_from_monos([1, 3]), 4) == "V4 + V4^3"
