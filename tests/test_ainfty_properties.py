"""Property tests for the op table, beyond the exhaustive windows.

The equivariance tests in tests/test_ainfty.py sweep N <= 4, while the
frontier sweeps run at N = 16 to 32 and read only the node-1 orbit, trusting
rotation for the rest.  These draw the algebra, N in 5..12 and a bound L
from the higher arity h to h + 3 (A needs L >= 2N before any window
exists), and check that a turn of the quiver commutes with the product,
moves every packed weight and drop-mu2N component two slots on and maps the
higher operation's windows and values onto themselves, and that the product
is associative on drawn triples whose inner products are nonzero.  The
draws are derandomized, so the suite stays deterministic.
"""
from __future__ import annotations

import pytest

from starcob.ainfty import op_tables
from starcob.staralg import higher_arity

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@st.composite
def tables(draw):
    """The op table of a drawn algebra, N in 5..12 and bound h..h+3."""
    algebra, n = draw(st.sampled_from("AB")), draw(st.integers(5, 12))
    h = higher_arity(algebra, n)
    return op_tables(algebra, n, draw(st.integers(h, h + 3)))


def _slots(ops, packed):
    """The per-slot counts of a packed weight: slot k in bits [k*width,
    (k+1)*width), width holding max_len (see `_OpTables`)."""
    width = max(ops.max_len, 1).bit_length()
    return [(packed >> (width * k)) & ((1 << width) - 1) for k in range(2 * ops.n)]


@DRAWS
@given(tables())
def test_rotation_commutes_with_the_product(ops):
    products = {(a, b, p) for a, row in enumerate(ops.mul) for b, p in row.items()}
    for turn in ops.rotations:
        assert {(turn[a], turn[b], turn[p]) for a, b, p in products} == products


@DRAWS
@given(tables())
def test_a_turn_moves_weights_and_components_two_slots_on(ops):
    two_n = 2 * ops.n
    turn = ops.rotations[1]
    for a in range(len(ops.words)):
        slots = _slots(ops, ops.weight[a])
        assert _slots(ops, ops.weight[turn[a]]) == slots[-2:] + slots[:-2]
        k = ops.component[a]
        assert ops.component[turn[a]] == (None if k is None else (k + 2) % two_n)


@DRAWS
@given(tables())
def test_the_higher_operation_is_closed_under_rotation(ops):
    # each window's turn is a window, with the turned output and component
    two_n = 2 * ops.n
    assert ops.higher
    for j, turn in enumerate(ops.rotations):
        turned = {
            tuple(turn[a] for a in t): (e, turn[p], None if k is None else (k + 2 * j) % two_n)
            for t, (e, p, k) in ops.higher.items()
        }
        assert turned == ops.higher


@st.composite
def triples(draw):
    """Drawn tables and an id triple (a, b, c) within their bound with a*b
    and b*c nonzero, so that both sides of the law are products of words."""
    ops = draw(tables())
    budget = ops.max_len
    t = (draw(st.sampled_from([a for a in range(len(ops.words)) if ops.ell[a] <= budget])),)
    for _ in range(2):
        budget -= ops.ell[t[-1]]
        t += (draw(st.sampled_from([b for b in ops.mul[t[-1]] if ops.ell[b] <= budget])),)
    return ops, t


@DRAWS
@given(triples())
def test_the_product_is_associative(drawn):
    ops, (a, b, c) = drawn
    ab, bc = ops.mul[a].get(b), ops.mul[b].get(c)
    left = None if ab is None else ops.mul[ab].get(c)
    right = None if bc is None else ops.mul[a].get(bc)
    assert left == right
