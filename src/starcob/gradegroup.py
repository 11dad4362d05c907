"""Arithmetic in the grading group Z x F_{N+1} and arity obstructions.

Elements carry a central integer component and a freely reduced word in
generators g0..gN.  Loop letters of algebra B are graded (-1, g_i), edge
letters (-1, e); words of algebra A are graded (0, e).  Every nonzero arity-n
operation must multiply gradings up to the central element lambda = (1, e)
raised to n - 2, which pins the coefficient gradings to (2N-2, e) for V0 and
(-2, e) for V_{N+1} and obstructs all other arities: the admissible ones are
n = k(2N-2)+2 on the A side and n = j(N-2)+2 on the B side.  Admissible is
not carried: A has a higher operation in arity 2N only (see ainfty).

Coefficient gradings are central, as lambda is: V^k is graded (k(2N-2), e)
or (-2k, e) in closed form, and multiplying by one moves only the central
component.
"""
from __future__ import annotations

from .ainfty import op_tables, operation_violations
from .ring import Frozen, Monomial
from .staralg import AWord, BWord, Word, coeff_var


def free_reduce(runs) -> tuple:
    """Merge adjacent runs of the same generator and drop zero exponents.

    >>> free_reduce([(1, 1), (1, -1), (2, 3)])
    ((2, 3),)
    """
    stack: list[list[int]] = []
    for gen, exp in runs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


class GroupElem(Frozen):
    """An element (z, w) with central integer z and reduced free-group word w.

    >>> GroupElem(-2, ((1, 1),)).render()
    '(-2; g1)'
    """

    __slots__ = _fields = ("z", "word")

    def __init__(self, z: int, word: tuple) -> None:
        # Reduced means no zero exponent and no two adjacent runs of one generator.
        prev = None
        for gen, exp in word:
            if exp == 0 or gen == prev:
                raise ValueError("word is not freely reduced")
            prev = gen
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "word", word)

    def render(self) -> str:
        return f"({self.z}; {render_word(self.word)})"


GP_E = GroupElem(0, ())
GP_LAMBDA = GroupElem(1, ())


def render_word(word: tuple) -> str:
    if not word:
        return "e"
    parts = []
    for gen, exp in word:
        if exp == 1:
            parts.append(f"g{gen}")
        else:
            parts.append(f"g{gen}^{exp}")
    return ".".join(parts)


def gp_mul(x: GroupElem, y: GroupElem) -> GroupElem:
    """Product: central components add, words concatenate and reduce.

    >>> gp_mul(GroupElem(1, ((1, 1),)), GroupElem(0, ((1, -1),)))
    GroupElem(z=1, word=())
    """
    return GroupElem(x.z + y.z, free_reduce(x.word + y.word))


def assign_grading(w: Word) -> GroupElem:
    """Grading of a basis word: the product of letter gradings in written
    order; words of algebra A carry the identity grading.

    On a B-word that product is -1 per letter times the g_i of its loop
    letters r_i, last-applied first, read off the word's run of slots.

    >>> n = 3
    >>> assign_grading(BWord("c", 2, "r", 1, n)).render()
    '(-1; g2)'
    >>> assign_grading(BWord("c", 1, "r", 2, n)).render()
    '(-2; g1)'
    """
    if isinstance(w, AWord):
        return GP_E
    return GroupElem(-w.length, free_reduce((i, 1) for t, i in reversed(w.letters()) if t == "r"))


def var_group_grading(var: int, n: int) -> GroupElem:
    """Grading of a coefficient variable, central in the free-group factor."""
    if var == 0:
        return GroupElem(2 * n - 2, ())
    if var == n + 1:
        return GroupElem(-2, ())
    raise ValueError(f"variable V{var} carries no grading")


def mono_group_grading(exp: Monomial, algebra: str, n: int) -> GroupElem:
    """Grading of the coefficient monomial V^exp in the algebra's own variable:
    the variable's grading is central, so its power is exp times its central
    degree, with the empty free word."""
    return GroupElem(exp * var_group_grading(coeff_var(algebra, n), n).z, ())


def _group_sides(algebra: str, n: int, inputs: tuple, exp: Monomial, word: Word, grade) -> tuple[GroupElem, GroupElem]:
    """gr(V^exp * word) of an operation's value, and lambda^(arity-2) times
    the product of its input gradings, with words graded by `grade`.  The
    product free-reduces the runs of all inputs at once: free reduction is
    confluent, so that equals reducing after each factor, and lambda is
    central."""
    gs = [grade(w) for w in inputs]
    z = GP_LAMBDA.z * (len(inputs) - 2) + sum(g.z for g in gs)
    expect = GroupElem(z, free_reduce(run for g in gs for run in g.word))
    return gp_mul(mono_group_grading(exp, algebra, n), grade(word)), expect


class _FreeWords:
    """Reduced free-group words interned as indices, the empty word at 0,
    with the index of each product memoized by the pair of indices."""

    def __init__(self) -> None:
        self.words: list[tuple] = [()]
        self.ids: dict[tuple, int] = {(): 0}
        self.products: dict[tuple[int, int], int] = {}

    def index(self, word: tuple) -> int:
        i = self.ids.get(word)
        if i is None:
            i = self.ids[word] = len(self.words)
            self.words.append(word)
        return i

    def times(self, x: int, y: int) -> int:
        xy = self.products.get((x, y))
        if xy is None:
            xy = self.products[x, y] = self.index(free_reduce(self.words[x] + self.words[y]))
        return xy


def check_multiplicativity(algebra: str, max_arity: int, max_total_len: int, n: int) -> list[dict]:
    """Violations of gr(output) = lambda^(arity-2) * product of input gradings
    over all nonzero binary products and higher-operation windows in range,
    checked one operation per rotation orbit (see ainfty).

    Each table word is graded once, into columns of its central degree and
    of its free-group word's index.  Free reduction is confluent and lambda
    central, so the inputs' product adds their central degrees and
    multiplies their free words in order.
    """
    ops = op_tables(algebra, n, max_total_len)
    free = _FreeWords()
    central, letters = [], []
    for w in ops.words:
        g = assign_grading(w)
        central.append(g.z)
        letters.append(free.index(g.word))

    def value(e: int, p: int) -> tuple[int, int]:
        # a coefficient's grading is central: its free word is empty
        return mono_group_grading(e, algebra, n).z + central[p], letters[p]

    def inputs(t: tuple) -> tuple[int, int]:
        z, x = GP_LAMBDA.z * (len(t) - 2), 0
        for a in t:
            z += central[a]
            x = free.times(x, letters[a])
        return z, x

    def reason(t: tuple, e: int, p: int) -> str:
        words = ops.words
        got, expect = _group_sides(algebra, n, tuple(words[a] for a in t), e, words[p], assign_grading)
        return f"grading {got.render()} != {expect.render()}"

    return operation_violations(ops, max_arity, value, inputs, reason)


def admissible_arities(side: str, big_n: int, n_lo: int, n_hi: int) -> set[int]:
    """Arities in [n_lo, n_hi] at which a nonzero higher operation is not
    obstructed by the grading: n = k(2N-2)+2 on side A, n = j(N-2)+2 on side B
    (k, j >= 1).

    >>> sorted(admissible_arities("A", 3, 6, 6))
    [6]
    >>> sorted(admissible_arities("B", 5, 3, 4))
    []
    """
    if side not in ("A", "B"):
        raise ValueError(f"unknown side {side!r}")
    if n_lo <= 2:
        raise ValueError("need n_lo > 2 (binary products are always admissible)")
    if n_lo > n_hi:
        return set()
    step = 2 * big_n - 2 if side == "A" else big_n - 2
    out = set()
    k = 1
    while step * k + 2 <= n_hi:
        if step * k + 2 >= n_lo:
            out.add(step * k + 2)
        k += 1
    return out


__all__ = [
    "GroupElem",
    "GP_E",
    "GP_LAMBDA",
    "free_reduce",
    "render_word",
    "gp_mul",
    "assign_grading",
    "var_group_grading",
    "mono_group_grading",
    "check_multiplicativity",
    "admissible_arities",
]
