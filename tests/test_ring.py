"""Tests for the GF(2)[V] coefficient ring (int bitmask polynomials)."""
from __future__ import annotations

import random

from starcob.ring import POLY_ONE, mono_mul, mono_str, poly_monos, poly_mul, poly_str


def _poly(monos):
    # Reference sum of monomials over GF(2): repeated ones cancel in pairs.
    out = 0
    for e in monos:
        out ^= 1 << e
    return out


def _naive_mul(p, q):
    # Reference product: convolution of the exponent sets, counted mod 2.
    out: set = set()
    for a in poly_monos(p):
        for b in poly_monos(q):
            out ^= {a + b}
    return _poly(out)


def test_mono_mul_merges_exponents():
    assert mono_mul(1, 1) == 2
    assert mono_mul(0, 3) == 3
    assert mono_mul(2, 5) == 7


def test_poly_arithmetic_characteristic_two():
    v = 0b10
    assert v ^ v == 0
    assert poly_mul(v, POLY_ONE) == v
    assert poly_mul(v, v) == 0b100
    assert POLY_ONE ^ POLY_ONE == 0
    mixed = POLY_ONE ^ v
    assert poly_mul(mixed, mixed) == POLY_ONE ^ 0b100
    assert _poly([3, 0, 3]) == POLY_ONE
    assert poly_monos(_poly([4, 0, 9])) == [0, 4, 9]


def test_poly_ring_axioms_random():
    rng = random.Random(20240817)

    def random_poly():
        return _poly(rng.randrange(12) for _ in range(rng.randrange(6)))

    for _ in range(300):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert poly_mul(p, q) == _naive_mul(p, q)
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_mul(p, q ^ r) == poly_mul(p, q) ^ poly_mul(p, r)
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
        assert poly_mul(p, POLY_ONE) == p
        assert poly_mul(p, 0) == 0


def test_rendering():
    assert mono_str(0, 0) == "1"
    assert mono_str(2, 0) == "V0^2"
    assert mono_str(1, 4) == "V4"
    assert poly_str(0, 0) == "0"
    assert poly_str(POLY_ONE, 0) == "1"
    assert poly_str(0b11, 0) == "1 + V0"
    # Terms sort by their rendered strings, not by exponent.
    assert poly_str(0b10000000101, 0) == "1 + V0^10 + V0^2"
    assert poly_str(0b1010, 4) == "V4 + V4^3"
