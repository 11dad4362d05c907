"""Property tests for the duality tables, beyond the exhaustive windows.

The exhaustive tests in tests/test_barcobar.py sweep N <= 5 at small bounds.
These draw the algebra, N in 5..32 and the bound L in 1..6, and check that
every table column commutes with the rotation of the quiver, that the two
sides of the homotopy certificate agree on the reduced strings entered at
every node, and, on drawn strings and words, that delta^2 = 0, that the
two sides agree, and that phi(psi(w)) = w.  The draws are derandomized,
so the suite stays deterministic.
"""
from __future__ import annotations

import pytest
from test_barcobar import _equivariance_mismatches

from starcob.barcobar import CobElem, TString, _tables, cobar_diff, homotopy_h, phi, psi
from starcob.staralg import AlgElem

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def tables(draw):
    """The string tables of a drawn algebra, N in 5..32 and bound L in 1..6."""
    return _tables(draw(st.sampled_from("AB")), draw(st.integers(5, 32)), draw(st.integers(1, 6)))


@st.composite
def strings(draw):
    """Drawn tables and a chained id string within their bound: a first
    factor entered at a drawn node, then factors entered where the last one
    exits, up to a drawn number of factors or until the bound is spent.
    After a letter, a drawn coin may take its block follower, so that long
    leading blocks, where the homotopy acts, are drawn too."""
    t = draw(tables())
    node, budget, s = draw(st.integers(1, t.n)), t.max_len, ()
    factors = draw(st.integers(1, t.max_len))
    while True:
        fits = [a for a in t.by_entry[node][1:] if t.ell[a] <= budget]  # past the idempotent
        if not fits or len(s) == factors:
            return t, s
        if s and t.ell[s[-1]] == 1 and draw(st.booleans()):
            a = t.block_next[s[-1] - t.n]
        else:
            a = draw(st.sampled_from(fits))
        s, budget, node = s + (a,), budget - t.ell[a], t.exit[a]


@DRAWS
@given(tables())
def test_every_column_commutes_with_the_rotation(t):
    assert _equivariance_mismatches(t) == []


@DRAWS
@given(strings())
def test_cobar_differential_squares_to_zero(drawn):
    t, s = drawn
    assert cobar_diff(cobar_diff(TString(tuple(t.words[a] for a in s)))).is_zero()


@DRAWS
@given(strings())
def test_homotopy_certificate_holds_on_drawn_strings(drawn):
    # On the ids, and through the public maps: dH + Hd = id + psi phi.
    t, s = drawn
    lhs, rhs = t.homotopy_sides(s)
    assert lhs == rhs
    ts = TString(tuple(t.words[a] for a in s))
    assert cobar_diff(homotopy_h(ts)) + homotopy_h(cobar_diff(ts)) == CobElem(ts.algebra, ts.n, [ts]) + psi(phi(ts))


@DRAWS
@given(tables())
def test_homotopy_certificate_holds_on_the_reduced_strings_at_every_node(t):
    # The sweep checks node 1 only, relying on rotation; check every node.
    for s in t.reduced_chains(t.max_len):
        lhs, rhs = t.homotopy_sides(s)
        assert lhs == rhs, [t.words[a].render() for a in s]


@DRAWS
@given(tables(), st.data())
def test_phi_after_psi_is_the_identity(t, data):
    words = t.other.words
    w = words[data.draw(st.integers(t.n, len(words) - 1))]  # past the idempotents
    assert phi(psi(w)) == AlgElem.from_word(w)
