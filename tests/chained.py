"""Fixed-arity chained tuples over a word table, for the test oracles."""
from __future__ import annotations


def chained_tuples(table, k, budget, entry=None):
    """Chained k-tuples of the table's word ids, idempotents included, with
    total length <= budget and the first word entered at `entry` (any node if
    None)."""
    if k == 0:
        yield ()
        return
    for i in range(1, table.n + 1) if entry is None else (entry,):
        for a in table.by_entry[i]:
            if table.ell[a] <= budget:
                for rest in chained_tuples(table, k - 1, budget - table.ell[a], table.exit[a]):
                    yield (a,) + rest
