"""Property tests for the duality tables, beyond the exhaustive windows.

The exhaustive tests in tests/test_barcobar.py sweep N <= 5 at small bounds.
These draw the algebra, N in 5..32 and the bound L in 1..6, and check that
every table column commutes with the rotation of the quiver, that the two
sides of the homotopy certificate agree on the reduced strings entered at
every node, and, on drawn strings and words, that delta^2 = 0, that the
two sides agree, and that phi(psi(w)) = w.  On drawn chained pairs s, t
they check the Leibniz rule: the cobar differential of s.t is d(s).t +
s.d(t), and the bar differential adds the merge across the seam.  The
draws are derandomized, so the suite stays deterministic.
"""
from __future__ import annotations

import pytest
from test_barcobar import _equivariance_mismatches

from starcob.barcobar import CobElem, TString, _WordTables, cobar_diff, homotopy_h, phi, psi
from starcob.staralg import AlgElem

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def tables(draw):
    """The string tables of a drawn algebra, N in 5..32 and bound L in 1..6."""
    return _WordTables.held(draw(st.sampled_from("AB")), draw(st.integers(5, 32)), draw(st.integers(1, 6)))


def _chain(draw, t, node: int) -> tuple:
    """A chained id string within the bound of tables t: a first factor
    entered at `node`, then factors entered where the last one exits, up to
    a drawn number of factors or until the bound is spent.  After a letter,
    a drawn coin may take its block follower, so that long leading blocks,
    where the homotopy acts, are drawn too."""
    budget, s = t.max_len, ()
    factors = draw(st.integers(1, t.max_len))
    while True:
        fits = [a for a in t.by_entry[node][1:] if t.ell[a] <= budget]  # past the idempotent
        if not fits or len(s) == factors:
            return s
        if s and t.ell[s[-1]] == 1 and draw(st.booleans()):
            a = t.block_next[s[-1] - t.n]
        else:
            a = draw(st.sampled_from(fits))
        s, budget, node = s + (a,), budget - t.ell[a], t.exit[a]


@st.composite
def strings(draw):
    """Drawn tables and a chained id string within their bound, its first
    factor entered at a drawn node."""
    t = draw(tables())
    return t, _chain(draw, t, draw(st.integers(1, t.n)))


@st.composite
def chained_pairs(draw):
    """Drawn tables and two chained id strings s, t, each within their
    bound, t entered where s leaves, so that s + t is chained."""
    tab, s = draw(strings())
    return tab, s, _chain(draw, tab, tab.exit[s[-1]])


def _sum(strings) -> set:
    """The GF(2) sum of the id strings: those that occur an odd number of times."""
    out: set = set()
    for s in strings:
        out ^= {s}
    return out


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
@given(chained_pairs())
def test_cobar_differential_is_a_derivation(drawn):
    # d(s.t) = d(s).t + s.d(t): each term splits one factor of s or of t.
    tab, s, t = drawn
    assert _sum(tab.d_terms(s + t)) == _sum(x + t for x in tab.d_terms(s)) ^ _sum(s + y for y in tab.d_terms(t))


@DRAWS
@given(chained_pairs())
def test_bar_differential_is_a_derivation_plus_the_seam_merge(drawn):
    # The bar differential merges adjacent factors: within s, within t, and
    # s's last factor with t's first when that product is nonzero.
    tab, s, t = drawn
    want = _sum(x + t for x in tab.merge_terms(s)) ^ _sum(s + y for y in tab.merge_terms(t))
    seam = tab.mul[s[-1]].get(t[0])
    if seam is not None:
        want ^= {s[:-1] + (seam,) + t[1:]}
    assert _sum(tab.merge_terms(s + t)) == want


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
