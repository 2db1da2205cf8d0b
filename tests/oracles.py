"""Brute-force oracles and test-only helpers.

The package answers these questions from the J-order, the factor DFA or the
cover's closure; the versions here work element by element, pair by pair or
path by path, so the tests can compare the two.
"""

import math

from soficsemi.errors import (
    CapExceeded,
    DimensionMismatch,
    HypothesisViolated,
    NotFactorial,
    NotIrreducible,
    check,
)
from soficsemi.finsemi import DEFAULT_CAP, FiniteSemigroup
from soficsemi.wreath import RowMonomialMatrix, _kernel_tuples


def close_by_products(gens, cap=DEFAULT_CAP):
    """Close carriers of any type under `*`, one carrier object per product.

    The same BFS by shortlex generator words as `close_generators`, with a
    carrier dict in place of the packed points: each product makes its
    carrier and looks it up through its `__hash__` and `__eq__`.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    dim = getattr(gens[0], "dim", None)
    for g in gens:
        if getattr(g, "dim", None) != dim:
            raise DimensionMismatch("generators have mixed dimensions")
    index = {}
    elems = []
    witness = []
    parent = []
    lastgen = []
    gen_elts = []
    for j, g in enumerate(gens):
        if g in index:
            gen_elts.append(index[g])
            continue
        idx = len(elems)
        index[g] = idx
        elems.append(g)
        witness.append((j,))
        parent.append(None)
        lastgen.append(j)
        gen_elts.append(idx)
    cayley = []
    head = 0
    while head < len(elems):
        x = elems[head]
        row = []
        for j, g in enumerate(gens):
            y = x * g
            at = index.get(y)
            if at is None:
                at = len(elems)
                if at >= cap:
                    raise CapExceeded(cap, "element closure")
                index[y] = at
                elems.append(y)
                witness.append(witness[head] + (j,))
                parent.append(head)
                lastgen.append(j)
            row.append(at)
        cayley.append(row)
        head += 1
    return FiniteSemigroup._from_closure(elems, cayley, gen_elts, witness, parent, lastgen)


def apex_pairwise(S, A):
    """Unique minimal J-class inside a factorial irreducible subset A of S,
    by |A|*|S| J-order lookups and an |A|^2 * |S| search for each u*w*v."""
    A = set(A)
    if not A:
        raise ValueError("A is empty")
    g = S.green()
    # factorial: every factor (J-above element) of a member is a member
    for a in A:
        ca = g.j_class[a]
        for b in range(S.n):
            if b not in A and g.leq_j(ca, g.j_class[b]):
                raise NotFactorial((a, b))
    # irreducible: for all u, v in A there is w in S with u*w*v in A
    for u in A:
        for v in A:
            if not any(S.mul(S.mul(u, w), v) in A for w in range(S.n)):
                raise NotIrreducible((u, v))
    inside = {g.j_class[a] for a in A}
    minimal = [c for c in inside if all(not g.leq_j(d, c) for d in inside if d != c)]
    check(len(minimal) == 1, "apex is not unique", minimal)
    top = minimal[0]
    check(g.regular[top], "apex must be regular", top)
    check(all(g.leq_j(top, c) for c in inside), "apex lies below every class of A", top)
    fact = {b for b in range(S.n) if g.leq_j(top, g.j_class[b])}
    check(fact == A, "Fact(apex) differs from A", sorted(fact ^ A)[:2])
    return top


def minimal_ideal_of_subset(S, subset):
    """Kernel of the subsemigroup of S on `subset` (must be closed), from
    the Green structure of its own multiplication table."""
    subset = sorted(subset)
    pos = {s: i for i, s in enumerate(subset)}
    table = [[pos[S.mul(x, y)] for y in subset] for x in subset]
    sub = FiniteSemigroup(table, names=subset, check=False)
    g = sub.green()
    bottoms = [c for c in range(len(g.j_classes)) if g.j_below[c] == {c}]
    check(len(bottoms) == 1, "a finite semigroup has a unique kernel", bottoms)
    return frozenset(subset[i] for i in g.j_classes[bottoms[0]])


def out_edges(P, state, letter=None):
    """The edges of P leaving state, optionally only those with the letter."""
    for s, a, t in P.edges:
        if s == state and (letter is None or a == letter):
            yield (s, a, t)


def in_language(D, w):
    """Whether the word w is a factor, read off its syntactic image."""
    return D.image(w) != D.zero if D.zero is not None else True


def word_length(term):
    """Length of the word w_n that a ZiminTerm names, as an exact integer."""
    leaf, *rest = term._chain()
    length = len(leaf.v)
    for t in rest:
        length = (2 * length + len(t.v)) * math.factorial(t.exponent)
    return length


def context_profile_classes(P, max_word_len, max_context_len):
    """Brute-force syntactic classes of words by two-sided context profiles.

    Membership goes through the presentation directly (path existence), so
    this is independent of the DFA pipeline.  Contexts include the empty
    word on either side.
    """
    alphabet = P.alphabet
    succ = {}
    for s, a, t in P.edges:
        succ.setdefault((s, a), set()).add(t)

    def members(w):
        cur = set(range(P.n_states))
        for a in w:
            cur = {t for s in cur for t in succ.get((s, a), ())}
            if not cur:
                return False
        return True

    def upto(n):
        acc = [()]
        frontier = [()]
        for _ in range(n):
            frontier = [w + (a,) for w in frontier for a in alphabet]
            acc.extend(frontier)
        return acc

    contexts = upto(max_context_len)
    profile = {}
    for x in upto(max_word_len):
        if not x:
            continue
        key = frozenset(
            (u, v) for u in contexts for v in contexts if members(u + x + v)
        )
        profile.setdefault(key, []).append(x)
    return list(profile.values())


def eta(result, w):
    """Evaluate a word (tuple of letters) in the cover's S'."""
    w, pos = tuple(w), {a: i for i, a in enumerate(result.alphabet)}
    for a in w:
        if a not in pos:
            raise HypothesisViolated("w", f"letter {a!r} is not in the cover's alphabet")
    return result.s_prime.eval_word([pos[a] for a in w])


def preimage_completeness_check(result, w):
    """Compare the block entries of eta(w) with the full set of preimages of
    the matrix of w under entrywise alpha.

    Returns (blocks, preimages).  Equality holds whenever every letter read
    before the first x_n acts injectively on the L-classes; a left factor of
    rank 1 collapses the row twists, so the blocks can be a proper subset.
    """
    w = tuple(w)
    mat = result.s_prime.names[eta(result, w)]
    if mat.is_zero():
        raise HypothesisViolated("w", "the word maps to zero")
    blocks = {mat.entries.names[r[1]] for r in mat.rows if r is not None}
    some = next(iter(blocks))
    twists = [
        RowMonomialMatrix.diagonal(some.entries, values)
        for values in _kernel_tuples(result.kernel, len(some.rows), result.group_h)
    ]
    preimages = {t * some for t in twists}
    return blocks, preimages
