"""Shared presentations and small semigroups used across the tests."""

import random

from soficsemi import FiniteSemigroup, Presentation, format_semigroup, parse_semigroup
from soficsemi.finsemi import PartialTransformation


def full_shift(k=2):
    letters = [chr(97 + i) for i in range(k)]
    return Presentation(1, [(0, a, 0) for a in letters], letters)


def golden_mean():
    return Presentation(2, [(0, "a", 0), (0, "b", 1), (1, "a", 0)])


def even_shift():
    return Presentation(2, [(0, "a", 0), (0, "b", 1), (1, "b", 0)])


def period_shift(k):
    """Orbit of (a_1 ... a_k)^infinity with distinct letters."""
    letters = [chr(97 + i) for i in range(k)]
    edges = [(i, letters[i], (i + 1) % k) for i in range(k)]
    return Presentation(k, edges, letters)


def random_presentation(seed, n_states, alphabet="ab"):
    """Random strongly connected presentation with every letter used."""
    rng = random.Random(seed)
    while True:
        edges = set()
        for s in range(n_states):
            for _ in range(rng.randint(1, 2)):
                edges.add((s, rng.choice(alphabet), rng.randrange(n_states)))
        edges = sorted(edges)
        if {a for _, a, _ in edges} != set(alphabet):
            continue
        P = Presentation(n_states, edges, sorted(set(alphabet)))
        if P.irreducible:
            return P


def corpus_presentations():
    """The shift corpus: named irreducible presentations for acceptance runs."""
    return [
        ("full2", full_shift(2)),
        ("full3", full_shift(3)),
        ("golden_mean", golden_mean()),
        ("even", even_shift()),
        ("period1", period_shift(1)),
        ("period2", period_shift(2)),
        ("period3", period_shift(3)),
        ("period4", period_shift(4)),
        ("random3", random_presentation(11, 3)),
        ("random4", random_presentation(23, 4)),
    ]


def letter_actions(dfa):
    """The letters of a DFA as partial maps on its states."""
    return [PartialTransformation([dfa.trans[q][j] for q in range(dfa.n_states)])
            for j in range(len(dfa.alphabet))]


def cyclic_group(k):
    return FiniteSemigroup(
        [[(i + j) % k for j in range(k)] for i in range(k)], [1 % k], check=False
    )


def trivial_semigroup():
    return FiniteSemigroup([[0]], [0], check=False)


def chain_semilattice():
    """Two-element semilattice 0 > 1 (1 absorbing)."""
    return FiniteSemigroup([[0, 1], [1, 1]], [0, 1], check=False)


def period2_syntactic_table():
    """Elements a, b, ab, ba, 0 with a^2 = b^2 = 0, aba = a, bab = b."""
    return FiniteSemigroup(
        [
            [4, 2, 4, 0, 4],
            [3, 4, 1, 4, 4],
            [0, 4, 2, 4, 4],
            [4, 1, 4, 3, 4],
            [4, 4, 4, 4, 4],
        ],
        [0, 1],
    )


def golden_mean_syntactic_table():
    """Elements a, b, ab, ba, 0 with a^2 = a, b^2 = 0, aba = a, bab = b."""
    return FiniteSemigroup(
        [
            [0, 2, 2, 0, 4],
            [3, 4, 1, 4, 4],
            [0, 4, 2, 4, 4],
            [3, 1, 1, 3, 4],
            [4, 4, 4, 4, 4],
        ],
        [0, 1],
    )


def group_with_zero(k):
    """Cyclic group of order k with an adjoined zero (not AGGM for k > 1)."""
    n = k + 1
    table = [[(i + j) % k if i < k and j < k else k for j in range(n)] for i in range(n)]
    return FiniteSemigroup(table, [1 % k, k], check=False)


def random_transformation_semigroup(seed, points, n_gens, cap=200):
    rng = random.Random(seed)
    from soficsemi import close_generators

    while True:
        gens = [
            PartialTransformation(tuple(rng.randrange(points) for _ in range(points)))
            for _ in range(n_gens)
        ]
        try:
            S = close_generators(gens, cap=cap)
        except Exception:
            continue
        if S.n >= 3:
            return S


def renumbered_table(S, seed, generators=True):
    """S with its elements shuffled, written as a `.sg` table and read back:
    a table semigroup whose witness order is not its index order."""
    perm = list(range(S.n))
    random.Random(seed).shuffle(perm)
    table = [[0] * S.n for _ in range(S.n)]
    for x in range(S.n):
        for y in range(S.n):
            table[perm[x]][perm[y]] = perm[S.mul(x, y)]
    gens = [perm[g] for g in S.generators] if generators else None
    return parse_semigroup(format_semigroup(FiniteSemigroup(table, gens, check=False)))
