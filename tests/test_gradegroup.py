"""Tests for the noncommutative grading group and arity admissibility."""
from __future__ import annotations

import random

import pytest

from starcob.gradegroup import (
    GP_E,
    GP_LAMBDA,
    GroupElem,
    admissible_arities,
    assign_grading,
    check_multiplicativity,
    free_reduce,
    gp_mul,
    mono_group_grading,
    render_word,
    var_group_grading,
)
from starcob.staralg import BWord, letter, mul_b, AlgElem


def test_free_reduction():
    assert free_reduce(((1, 2), (1, -2))) == ()
    assert free_reduce(((1, 1), (2, 1), (2, -1), (1, 1))) == ((1, 2),)
    assert free_reduce(((1, 1), (2, 1))) == ((1, 1), (2, 1))
    assert free_reduce(((1, 0), (2, 1))) == ((2, 1),)


def test_free_reduction_random_confluence():
    # Inserting a cancelling pair anywhere never changes the reduced word.
    rng = random.Random(7)
    for _ in range(300):
        runs = tuple(
            (rng.randrange(1, 4), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randrange(5))
        )
        base = free_reduce(runs)
        g = rng.randrange(1, 4)
        e = rng.choice([-2, -1, 1, 2])
        pos = rng.randrange(len(runs) + 1)
        padded = runs[:pos] + ((g, e), (g, -e)) + runs[pos:]
        assert free_reduce(padded) == base
        # Reduction is idempotent.
        assert free_reduce(base) == base


def test_group_elem_rejects_unreduced_words():
    for word in (((1, 1), (1, -1)), ((1, 0),), ((2, 1), (2, 1))):
        with pytest.raises(ValueError):
            GroupElem(0, word)
    # The validator accepts exactly the words that free reduction leaves alone.
    rng = random.Random(11)
    for _ in range(500):
        word = tuple((rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 5)))
        if word == free_reduce(word):
            assert GroupElem(0, word).word == word
        else:
            with pytest.raises(ValueError):
                GroupElem(0, word)


def test_group_laws_random():
    rng = random.Random(13)

    def rand_elem():
        runs = tuple((rng.randrange(1, 4), rng.choice([-1, 1])) for _ in range(rng.randrange(4)))
        return GroupElem(rng.randrange(-3, 4), free_reduce(runs))

    for _ in range(200):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert gp_mul(gp_mul(x, y), z) == gp_mul(x, gp_mul(y, z))
        assert gp_mul(x, GP_E) == x
        assert gp_mul(GP_E, x) == x
        # coefficient gradings are central
        for c in (GP_LAMBDA, mono_group_grading(rng.randrange(4), rng.choice("AB"), rng.randrange(3, 6))):
            assert gp_mul(c, x) == gp_mul(x, c)


def test_coefficient_gradings_are_powers_of_the_variable():
    # The closed form equals the repeated product of the variable's grading.
    for algebra in ("A", "B"):
        for n in (3, 4, 7):
            var = var_group_grading(0 if algebra == "A" else n + 1, n)
            power = GP_E
            for e in range(6):
                assert mono_group_grading(e, algebra, n) == power
                power = gp_mul(power, var)


def test_rendering():
    assert render_word(()) == "e"
    assert render_word(((1, 1), (2, -1))) == "g1.g2^-1"
    assert render_word(((1, 2),)) == "g1^2"
    assert GP_E.render() == "(0; e)"
    assert GroupElem(-2, ((1, 1),)).render() == "(-2; g1)"


def test_letter_gradings():
    n = 3
    assert assign_grading(letter("B", "r", 2, n)).render() == "(-1; g2)"
    assert assign_grading(letter("B", "s", 1, n)).render() == "(-1; e)"
    # Loop-algebra words are concentrated at the identity.
    assert assign_grading(letter("A", "u", 1, n)) == GP_E
    assert assign_grading(letter("A", "s", 1, n)) == GP_E
    # Words multiply gradings right-to-left through the written order.
    w = BWord("c", 1, "r", 2, n)  # rho_1 applied first, then sigma_1
    assert assign_grading(w).render() == "(-2; g1)"


def test_word_grading_is_homomorphism():
    # For every nonzero written product x*y, gr(xy) = gr(x) * gr(y).
    n = 3
    from starcob.staralg import enumerate_basis

    basis = enumerate_basis("B", 5, n)
    for x in basis:
        for y in basis:
            prod = mul_b(AlgElem.from_word(x), AlgElem.from_word(y))
            if prod.is_zero():
                continue
            for mono, w in prod.monomial_pairs():
                expected = gp_mul(assign_grading(x), assign_grading(y))
                got = gp_mul(mono_group_grading(mono, "B", n), assign_grading(w))
                assert got == expected


def test_variable_gradings():
    assert var_group_grading(0, 3) == GroupElem(4, ())
    assert var_group_grading(4, 3) == GroupElem(-2, ())
    assert var_group_grading(0, 5) == GroupElem(8, ())
    assert var_group_grading(6, 5) == GroupElem(-2, ())
    with pytest.raises(ValueError):
        var_group_grading(2, 3)
    assert mono_group_grading(2, "A", 3) == GroupElem(8, ())
    assert GP_LAMBDA == GroupElem(1, ())


def test_check_multiplicativity_clean():
    assert check_multiplicativity("A", 8, 12, 3) == []
    assert check_multiplicativity("B", 5, 9, 3) == []


def test_admissible_arities_empty_below_boundary():
    for big_n in range(3, 9):
        assert admissible_arities("A", big_n, 3, 2 * big_n - 1) == set()
        assert admissible_arities("B", big_n, 3, big_n - 1) == set()


def test_admissible_arities_boundary_and_ranges():
    for big_n in range(3, 9):
        assert admissible_arities("A", big_n, 3, 2 * big_n) == {2 * big_n}
        assert admissible_arities("B", big_n, 3, big_n) == {big_n}
    # Inclusive wide windows collect every admissible arity.
    assert admissible_arities("A", 3, 3, 12) == {6, 10}
    assert admissible_arities("B", 3, 3, 10) == {3, 4, 5, 6, 7, 8, 9, 10}
    assert admissible_arities("B", 4, 3, 10) == {4, 6, 8, 10}
    assert admissible_arities("B", 5, 3, 12) == {5, 8, 11}


def test_admissible_arities_guards():
    # The question only makes sense above the binary range.
    with pytest.raises(ValueError):
        admissible_arities("A", 3, 2, 6)
    # An empty window is legal and empty (the N=3 dual case bottoms out at 2).
    assert admissible_arities("B", 3, 3, 2) == set()
