"""Fixed-arity chained tuples over a word table, and words moved along the
cycle, for the test oracles."""
from __future__ import annotations

from starcob.staralg import AWord, BWord


def started_at(w, start):
    """The word w with its start node replaced by `start`, every other field kept."""
    if isinstance(w, AWord):
        return AWord(w.kind, start, w.length, w.n)
    return BWord(w.kind, start, w.first, w.length, w.n)


def chained_tuples(table, k, budget, entry=None, units=None):
    """Chained k-tuples of the table's word ids, idempotents included (at
    most `units` of them, if given), with total length <= budget and the
    first word entered at `entry` (any node if None)."""
    if k == 0:
        yield ()
        return
    for i in range(1, table.n + 1) if entry is None else (entry,):
        for a in table.by_entry[i]:
            left = units if units is None or a >= table.n else units - 1
            if table.ell[a] <= budget and (left is None or left >= 0):
                for rest in chained_tuples(table, k - 1, budget - table.ell[a], table.exit[a], left):
                    yield (a,) + rest
