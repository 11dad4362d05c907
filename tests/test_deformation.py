"""Why algebra A carries no operation in arity 4N - 2.

The grading admits an A operation in every arity (2N-2)j + 2, but only
mu_{2N} (j = 1) is basic.  The next candidate, mu_{4N-2}, is settled by the
obstruction theory of A-infinity deformations (Keller, "Introduction to
A-infinity algebras and modules", arXiv:math/9910179, section 3):

* The arity-(4N-1) A-infinity relations are a GF(2) linear system in the
  values of mu_{4N-2}, with the mu_{2N} o mu_{2N} terms as the constant side.
* An A-infinity isomorphism id + f_{4N-3} fixes mu_2 and mu_{2N} and changes
  mu_{4N-2} by the Hochschild coboundary of f_{4N-3} (the gauge).

If the gauge image fills the solution space of the homogeneous system,
mu_{4N-2} is unique up to gauge, and the shipped value, zero, is right as soon
as it solves the system.
"""
from __future__ import annotations

from reference import rank
from test_gf2la import mul_vec

from starcob.ainfty import _classify, _entry_grading, op_tables
from starcob.gf2la import SparseMatF2
from starcob.staralg import Grading, grading


def _full_weight_tuples(ops, arity, turns):
    """Chained tuples of non-idempotent ids of one arity that use every
    letter `turns` times, that is of weight (turns, ..., turns)."""
    weights = [grading(w).alexander for w in ops.words]
    out = []

    def rec(prefix, node, left):
        if len(prefix) == arity:
            if not any(left):
                out.append(prefix)
            return
        for a in ops.by_entry[node][1:]:  # past the bucket's idempotent
            rest = [x - y for x, y in zip(left, weights[a])]
            if min(rest) >= 0:
                rec(prefix + (a,), ops.exit[a], rest)

    for node in range(1, ops.n + 1):
        rec((), node, [turns] * (2 * ops.n))
    return out


def _allowed_outputs(ops, t, degree):
    """The outputs V0^e*q of a map of Maslov degree `degree` on the tuple t
    that the grading allows, running from t's first node to its last."""
    total = grading(ops.words[t[0]])
    for a in t[1:]:
        total = total + grading(ops.words[a])
    return [
        (e, q)
        for e in range(total.ell // (2 * ops.n) + 1)
        for q, w in enumerate(ops.words)
        if ops.entry[q] == ops.entry[t[0]]
        and ops.exit[q] == ops.exit[t[-1]]
        and _entry_grading("A", e, w, ops.n) == Grading(total.m + degree, total.alexander, total.ell)
    ]


def _merge_rows(ops, tuples, columns):
    """For each tuple, the bitmask of the columns of the shorter tuples it
    gives when one neighbouring pair is multiplied together."""
    rows = []
    for t in tuples:
        row = 0
        for k in range(len(t) - 1):
            p = ops.mul[t[k]].get(t[k + 1])
            col = None if p is None else columns.get(t[:k] + (p,) + t[k + 2 :])
            if col is not None:
                row ^= 1 << col
        rows.append(row)
    return rows


def test_mu_4n_minus_2_is_zero_up_to_gauge():
    # N = 3, length <= 4N.  Every A word has Maslov degree 0 and V0 has
    # 2N - 2, so mu_{4N-2} and f_{4N-3} (Maslov degree 4N - 4) take values
    # V0^2 * word, and so do the mu_{2N} o mu_{2N} terms.  V0^2 has length 4N,
    # so within the bound that word is an idempotent and the inputs have
    # weight (2, ..., 2): the whole system lives on the full-weight tuples.
    # The operations are strictly unital, so no input is an idempotent.
    n, max_len = 3, 12
    ops = op_tables("A", n, max_len)
    degree = 4 * n - 4
    rows_t = _full_weight_tuples(ops, 4 * n - 1, 2)
    windows = _full_weight_tuples(ops, 4 * n - 2, 2)
    gauge_t = _full_weight_tuples(ops, 4 * n - 3, 2)
    # one unknown per window (and per f_{4N-3} input), for V0^2 times the
    # idempotent at its first node
    for t in windows + gauge_t:
        assert _allowed_outputs(ops, t, degree) == [(2, ops.entry[t[0]] - 1)]
    unknowns = {t: c for c, t in enumerate(windows)}

    # The terms mu_2(mu_{4N-2}(..), x) and mu_2(x, mu_{4N-2}(..)) need a
    # window of length 4N and one more word, past the bound; so each relation
    # row sums mu_{4N-2} over the merges of neighbouring inputs, and each
    # gauge vector sums f_{4N-3} over the merges of a window's inputs.
    relations = SparseMatF2(_merge_rows(ops, rows_t, unknowns), len(windows))
    gauge = SparseMatF2(_merge_rows(ops, windows, {t: c for c, t in enumerate(gauge_t)}), len(gauge_t)).transpose()
    relation_rank, gauge_rank = rank(relations), rank(gauge)
    assert (len(windows), relation_rank, gauge_rank) == (990, 438, 552)
    # The gauge solves the homogeneous system (the coboundary of a coboundary
    # is zero), and fills its solution space: mu_{4N-2} is unique up to gauge.
    assert all(mul_vec(relations, v) == 0 for v in gauge.rows)
    assert relation_rank + gauge_rank == len(windows)

    # The constant side: the mu_{2N} o mu_{2N} terms of each relation, under
    # the shipped operations.
    constant = 0
    for row, t in enumerate(rows_t):
        base = [(0, a) for a in t]
        for k in range(len(t) - 2 * n + 1):
            inner = _classify(ops, base[k : k + 2 * n])
            if inner is not None and _classify(ops, base[:k] + [inner[1:]] + base[k + 2 * n :]) is not None:
                constant ^= 1 << row
    # The shipped mu_{4N-2} is zero on every window, and zero solves the system.
    assert all(_classify(ops, [(0, a) for a in t]) is None for t in windows)
    shipped = 0
    assert mul_vec(relations, shipped) == constant
