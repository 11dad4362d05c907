"""Value semantics of the seven immutable value classes: repr, equality and
hash over the compared fields only, same class only, no assignment, and the
constructors' validation messages.  Every expected value here was recorded
from the frozen-dataclass versions of these classes.  That a word's derived
fields take no part in equality, hash or repr is checked in test_staralg
(`_assert_derived_slot_inert`)."""
from __future__ import annotations

import copy
import pickle

import pytest

from starcob.ainfty import OpResult
from starcob.barcobar import TString
from starcob.gradegroup import GroupElem
from starcob.hochschild import TwistedMono
from starcob.staralg import AlgElem, AWord, BWord, Grading

N = 3

# (value, compared fields in order, repr)
CASES = [
    (AWord("s", 2, 3, N), ("s", 2, 3, N), "AWord(kind='s', start=2, length=3, n=3)"),
    (AWord("u", 1, 2, N), ("u", 1, 2, N), "AWord(kind='u', start=1, length=2, n=3)"),
    (AWord("i", 3, 0, N), ("i", 3, 0, N), "AWord(kind='i', start=3, length=0, n=3)"),
    (BWord("c", 1, "r", 3, N), ("c", 1, "r", 3, N), "BWord(kind='c', start=1, first='r', length=3, n=3)"),
    (BWord("c", 2, "s", 1, N), ("c", 2, "s", 1, N), "BWord(kind='c', start=2, first='s', length=1, n=3)"),
    (BWord("i", 2, "", 0, N), ("i", 2, "", 0, N), "BWord(kind='i', start=2, first='', length=0, n=3)"),
    (
        Grading(-2, (0, 1, 0, 1, 0, 1), 3),
        (-2, (0, 1, 0, 1, 0, 1), 3),
        "Grading(m=-2, alexander=(0, 1, 0, 1, 0, 1), ell=3)",
    ),
    (
        OpResult(AlgElem.from_word(AWord("s", 1, 1, N), 0b101), "centered"),
        (AlgElem.from_word(AWord("s", 1, 1, N), 0b101), "centered"),
        "OpResult(value=AlgElem('A', 3, '(1 + V0^2)*s[1,2]'), tag='centered')",
    ),
    (OpResult(AlgElem("B", N), "mixed"), (AlgElem("B", N), "mixed"), "OpResult(value=AlgElem('B', 3, '0'), tag='mixed')"),
    (
        TString((AWord("u", 1, 1, N), AWord("u", 1, 2, N))),
        ((AWord("u", 1, 1, N), AWord("u", 1, 2, N)),),
        "TString(factors=(AWord(kind='u', start=1, length=1, n=3), AWord(kind='u', start=1, length=2, n=3)))",
    ),
    (
        TString((BWord("c", 1, "r", 2, N),)),
        ((BWord("c", 1, "r", 2, N),),),
        "TString(factors=(BWord(kind='c', start=1, first='r', length=2, n=3),))",
    ),
    (
        TwistedMono(1, AWord("i", 1, 0, N), BWord("c", 1, "r", 6, N)),
        (1, AWord("i", 1, 0, N), BWord("c", 1, "r", 6, N)),
        "TwistedMono(p=1, left=AWord(kind='i', start=1, length=0, n=3), "
        "right=BWord(kind='c', start=1, first='r', length=6, n=3))",
    ),
    (
        TwistedMono(0, AWord("s", 1, 1, N), BWord("c", 1, "s", 1, N)),
        (0, AWord("s", 1, 1, N), BWord("c", 1, "s", 1, N)),
        "TwistedMono(p=0, left=AWord(kind='s', start=1, length=1, n=3), "
        "right=BWord(kind='c', start=1, first='s', length=1, n=3))",
    ),
    (GroupElem(-2, ((1, 1),)), (-2, ((1, 1),)), "GroupElem(z=-2, word=((1, 1),))"),
    (GroupElem(0, ()), (0, ()), "GroupElem(z=0, word=())"),
]
CASE_IDS = [f"{type(c[0]).__name__}-{i}" for i, c in enumerate(CASES)]

FIELD_NAMES = {
    AWord: ("kind", "start", "length", "n"),
    BWord: ("kind", "start", "first", "length", "n"),
    Grading: ("m", "alexander", "ell"),
    OpResult: ("value", "tag"),
    TString: ("factors",),
    TwistedMono: ("p", "left", "right"),
    GroupElem: ("z", "word"),
}

# the fields each word derives from the compared ones
DERIVED = {AWord: ("entry", "exit"), BWord: ("first_slot", "entry", "exit")}


def _rebuilt(x):
    """A second, separately constructed value equal to x."""
    return type(x)(*(getattr(x, f) for f in FIELD_NAMES[type(x)]))


def test_every_class_has_cases():
    assert {type(x) for x, _, _ in CASES} == set(FIELD_NAMES)


@pytest.mark.parametrize("x, fields, text", CASES, ids=CASE_IDS)
def test_repr_eq_and_hash(x, fields, text):
    assert repr(x) == text
    assert tuple(getattr(x, f) for f in FIELD_NAMES[type(x)]) == fields
    assert hash(x) == hash(fields)
    y = _rebuilt(x)
    assert y == x and not (y != x) and y is not x and hash(y) == hash(x)
    # equality is by class, not by the field tuple
    assert x != fields and fields != x
    assert x.__eq__(fields) is NotImplemented


def test_unequal_on_any_compared_field():
    assert AWord("s", 2, 3, N) != AWord("s", 2, 2, N)
    assert AWord("s", 2, 3, N) != AWord("s", 1, 3, N)
    assert AWord("s", 2, 3, N) != AWord("u", 2, 3, N)
    assert AWord("s", 2, 3, N) != AWord("s", 2, 3, 4)
    assert BWord("c", 1, "r", 3, N) != BWord("c", 1, "s", 3, N)
    assert Grading(0, (1, 0), 1) != Grading(0, (0, 1), 1)
    assert OpResult(AlgElem("A", N), "mixed") != OpResult(AlgElem("A", N), "centered")
    assert GroupElem(1, ()) != GroupElem(0, ())
    assert TwistedMono(0, AWord("s", 1, 1, N), BWord("c", 1, "s", 1, N)) != TwistedMono(
        0, AWord("s", 2, 1, N), BWord("c", 2, "s", 1, N)
    )


def test_words_of_the_two_algebras_never_equal():
    for i in range(1, N + 1):
        a, b = AWord("i", i, 0, N), BWord("i", i, "", 0, N)
        assert a != b and b != a
        assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
        assert len({a, b}) == 2
    assert AWord("s", 1, 1, N) != BWord("c", 1, "s", 1, N)


@pytest.mark.parametrize("x", [c[0] for c in CASES], ids=CASE_IDS)
def test_immutable(x):
    before = repr(x)
    for name in FIELD_NAMES[type(x)] + DERIVED.get(type(x), ()):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


@pytest.mark.parametrize("x", [c[0] for c in CASES], ids=CASE_IDS)
def test_no_new_attributes(x):
    # (the frozen slots dataclasses raised TypeError here, a Python 3.11 quirk)
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("x", [c[0] for c in CASES], ids=CASE_IDS)
def test_copy_and_pickle_round_trip(x):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and repr(y) == repr(x) and hash(y) == hash(x)
    if type(x) in DERIVED:
        y = pickle.loads(pickle.dumps(x))
        assert all(getattr(y, f) == getattr(x, f) for f in DERIVED[type(x)])


A_i, B_i = AWord("i", 1, 0, N), BWord("i", 1, "", 0, N)

CONSTRUCTOR_ERRORS = [
    (lambda: AWord("i", 1, 1, N), "idempotents have length 0"),
    (lambda: AWord("u", 1, 0, N), "U-powers and s-chains need length >= 1"),
    (lambda: AWord("x", 1, 1, N), "unknown A-word kind 'x'"),
    (lambda: AWord("s", 4, 1, N), "node index 4 out of range 1..3"),
    (lambda: AWord("s", 0, 1, N), "node index 0 out of range 1..3"),
    (lambda: AWord("x", 4, 1, N), "node index 4 out of range 1..3"),
    (lambda: BWord("i", 1, "r", 0, N), "idempotents have length 0 and no letters"),
    (lambda: BWord("i", 1, "", 1, N), "idempotents have length 0 and no letters"),
    (lambda: BWord("c", 1, "r", 0, N), "chains need length >= 1"),
    (lambda: BWord("c", 1, "u", 1, N), "first letter type must be 'r' or 's'"),
    (lambda: BWord("x", 1, "r", 1, N), "unknown B-word kind 'x'"),
    (lambda: BWord("c", 4, "r", 1, N), "node index 4 out of range 1..3"),
    (lambda: TString(()), "tensor strings have at least one factor"),
    (lambda: TString((AWord("u", 1, 1, N), BWord("c", 1, "r", 1, N))), "mixed factors in a tensor string"),
    (lambda: TString((AWord("u", 1, 1, N), AWord("u", 1, 1, 4))), "mixed factors in a tensor string"),
    (lambda: TString((A_i,)), "idempotent factors are excluded"),
    (lambda: TString((AWord("s", 1, 1, N), AWord("s", 1, 1, N))), "factors s[1,2] and s[1,2] are not chained"),
    (lambda: TwistedMono(0, A_i, A_i), "left and right words must come from dual algebras"),
    (lambda: TwistedMono(0, A_i, BWord("i", 1, "", 0, 4)), "mixed parameters"),
    (lambda: TwistedMono(-1, A_i, B_i), "coefficient power must be >= 0"),
    (lambda: TwistedMono(0, A_i, BWord("i", 2, "", 0, N)), "left and right words must share both endpoints"),
    (
        lambda: TwistedMono(0, AWord("u", 1, 1, N), B_i),
        "weight balance fails: A(left) = (1, 0, 0, 0, 0, 0), A(right) - p*A(var) = (0, 0, 0, 0, 0, 0)",
    ),
    (lambda: GroupElem(0, ((1, 0),)), "word is not freely reduced"),
    (lambda: GroupElem(0, ((1, 1), (1, 2))), "word is not freely reduced"),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_ERRORS, ids=[f"error-{i}" for i in range(len(CONSTRUCTOR_ERRORS))])
def test_constructor_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message
