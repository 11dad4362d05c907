"""Polynomials over GF(2) in the one deformation variable V of an algebra.

Each algebra is deformed over a single variable, V0 for A and V_{N+1} for B
(staralg.coeff_var says which).  A monomial V^e is its exponent e >= 0, so the
constant monomial 1 is 0 and the product of monomials adds exponents.  A
polynomial is an int bitmask whose bit e stands for V^e: over GF(2) addition
is XOR and multiplication is the carry-less product.  The variable index is
needed only to render.

The module also holds `Frozen`, the base of the package's immutable value
classes; it sits here, in the leaf module, so every other module can use it.

>>> poly_str(0b10 ^ 0b10, 0)
'0'
>>> poly_str(poly_mul(0b11, 0b11), 4)
'1 + V4^2'
"""
from __future__ import annotations

from operator import attrgetter

Monomial = int  # exponent of V
Poly = int  # bit e set <=> V^e present

POLY_ONE: Poly = 1


class Frozen:
    """Base of an immutable value class with `__slots__`.

    A subclass lists its compared fields, in constructor order, in `_fields`,
    and its `__init__` sets every slot through `object.__setattr__`.  Equality
    holds between instances of the same class with equal fields, the hash is
    that of the field tuple, the repr lists the fields by name, and any
    assignment or deletion after `__init__` raises AttributeError.  Slots not
    in `_fields` (values derived from the fields) take no part in any of it.
    The hash is computed on first use and kept in the `_hash` slot.
    """

    __slots__ = ("_hash",)
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuild through the constructor, which sets the derived slots
        return (self.__class__, self._key(self))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of monomials: V^a * V^b = V^(a+b)."""
    return a + b


def poly_monos(p: Poly) -> list[Monomial]:
    """Exponents of the monomials of p, ascending.

    >>> poly_monos(0b1101)
    [0, 2, 3]
    """
    return [e for e in range(p.bit_length()) if (p >> e) & 1]


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Carry-less product: shifted copies of p combined by XOR."""
    out = 0
    while q:
        if q & 1:
            out ^= p
        p <<= 1
        q >>= 1
    return out


def mono_str(e: Monomial, var: int) -> str:
    """Rendering of V^e in the variable V{var}.

    >>> mono_str(0, 4), mono_str(1, 4), mono_str(2, 0)
    ('1', 'V4', 'V0^2')
    """
    if e == 0:
        return "1"
    return f"V{var}" if e == 1 else f"V{var}^{e}"


def poly_str(p: Poly, var: int) -> str:
    """Canonical rendering with terms sorted by their rendered strings.

    >>> poly_str(0b10000000101, 0)
    '1 + V0^10 + V0^2'
    >>> poly_str(0, 0)
    '0'
    """
    if not p:
        return "0"
    return " + ".join(sorted(mono_str(e, var) for e in poly_monos(p)))


__all__ = [
    "Frozen",
    "Monomial",
    "Poly",
    "POLY_ONE",
    "mono_mul",
    "poly_monos",
    "poly_mul",
    "mono_str",
    "poly_str",
]
