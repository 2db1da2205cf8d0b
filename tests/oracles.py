"""Brute-force oracles and test-only helpers.

The package answers these questions from the J-order, the factor DFA or the
cover's closure; the versions here work element by element, pair by pair or
path by path, so the tests can compare the two.
"""

import math

from soficsemi.errors import (
    CapExceeded,
    CheckFailed,
    DimensionMismatch,
    HypothesisViolated,
    NotFactorial,
    NotIrreducible,
    check,
)
from soficsemi.finsemi import DEFAULT_CAP, FiniteSemigroup
from soficsemi.shiftspace import Dfa
from soficsemi.wreath import RowMonomialMatrix, _kernel_tuples


def close_by_products(gens, cap=DEFAULT_CAP):
    """Close carriers of any type under `*`, one carrier object per product.

    The same BFS by shortlex generator words as `close_generators`, with a
    carrier dict in place of the packed points: each product makes its
    carrier and looks it up through its `__hash__` and `__eq__`. Carriers
    without packed points (`_b`) give the semigroup of their multiplication
    table.
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
    parent = []
    lastgen = []
    gen_elts = []
    for j, g in enumerate(gens):
        if g in index:
            gen_elts.append(index[g])
            continue
        idx = len(elems)
        if idx >= cap:
            raise CapExceeded(cap, "element closure")
        index[g] = idx
        elems.append(g)
        parent.append(None)
        lastgen.append(j)
        gen_elts.append(idx)
    cols = [[] for _ in gens]
    head = 0
    while head < len(elems):
        x = elems[head]
        for j, g in enumerate(gens):
            y = x * g
            at = index.get(y)
            if at is None:
                at = len(elems)
                if at >= cap:
                    raise CapExceeded(cap, "element closure")
                index[y] = at
                elems.append(y)
                parent.append(head)
                lastgen.append(j)
            cols[j].append(at)
        head += 1
    if not hasattr(gens[0], "_b"):  # no packed points to gather: a table semigroup
        return FiniteSemigroup(table_from_cayley(cols, parent, lastgen), gen_elts,
                               names=elems, check=False)
    keys = [x._b for x in elems]
    packed = {b: i for i, b in enumerate(keys)}
    return FiniteSemigroup._from_closure(keys, elems[0]._wrap, cols, gen_elts, parent, lastgen,
                                         packed)


def table_from_cayley(cols, parent, lastgen):
    """The multiplication table of a closure from its right Cayley columns:
    column y of the table is column parent[y] moved by generator lastgen[y]
    (a parent is numbered before its children)."""
    columns = []
    for p, j in zip(parent, lastgen):
        columns.append(cols[j] if p is None else [cols[j][v] for v in columns[p]])
    return [list(row) for row in zip(*columns)]


def walk_mul(S, x, y):
    """x*y by walking the witness word of y from x along the right Cayley
    graph: no table and no carrier."""
    for j in S.word(y):
        x = S._cols[j][x]
    return x


def walk_idempotents(S):
    """The idempotents of S, ascending, each found by one witness walk."""
    return [x for x in range(S.n) if walk_mul(S, x, x) == x]


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
    bottoms = [c for c in range(len(g.j_classes)) if j_below_set(g, c) == {c}]
    check(len(bottoms) == 1, "a finite semigroup has a unique kernel", bottoms)
    return frozenset(subset[i] for i in g.j_classes[bottoms[0]])


def j_below_set(g, c):
    """The set of J-class ids <=_J c, read off the bitmask `g.j_below[c]`."""
    return {d for d in range(len(g.j_classes)) if g.leq_j(d, c)}


def minimize_hopcroft(d):
    """The minimal DFA of d by Hopcroft partition refinement (Hopcroft, 1971)
    with set worklists and predecessor lists, numbered by the same BFS from
    the initial block in letter order as `Dfa.minimize`."""
    reach = sorted(d.reachable())
    idx = {q: i for i, q in enumerate(reach)}
    n = len(reach)
    k = len(d.alphabet)
    trans = [[idx[d.trans[q][a]] for a in range(k)] for q in reach]
    accepting = {idx[q] for q in d.accepting if q in idx}

    pre = [[[] for _ in range(n)] for _ in range(k)]
    for q in range(n):
        for a in range(k):
            pre[a][trans[q][a]].append(q)

    part = []
    block_of = [0] * n
    fin = sorted(accepting)
    nonfin = [q for q in range(n) if q not in accepting]
    for blk in (fin, nonfin):
        if blk:
            bid = len(part)
            part.append(set(blk))
            for q in blk:
                block_of[q] = bid
    work = {(b, a) for b in range(len(part)) for a in range(k)}
    while work:
        b, a = work.pop()
        splitter = part[b]
        movers = {}
        for t in splitter:
            for q in pre[a][t]:
                movers.setdefault(block_of[q], set()).add(q)
        for src, hit in movers.items():
            if len(hit) == len(part[src]):
                continue
            new_id = len(part)
            part[src] -= hit
            part.append(hit)
            for q in hit:
                block_of[q] = new_id
            for c in range(k):
                if (src, c) in work:
                    work.add((new_id, c))
                else:
                    small = src if len(part[src]) <= len(hit) else new_id
                    work.add((small, c))

    init_b = block_of[idx[d.initial]]
    renum = {init_b: 0}
    order = [init_b]
    head = 0
    while head < len(order):
        b = order[head]
        head += 1
        q = min(part[b])
        for a in range(k):
            nb = block_of[trans[q][a]]
            if nb not in renum:
                renum[nb] = len(order)
                order.append(nb)
    m = len(order)
    new_trans = [[0] * k for _ in range(m)]
    new_acc = set()
    for b, nb in renum.items():
        q = min(part[b])
        for a in range(k):
            new_trans[nb][a] = renum[block_of[trans[q][a]]]
        if q in accepting:
            new_acc.add(nb)
    return Dfa(new_trans, d.alphabet, 0, new_acc)


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


def rho_loop(s_prime, block_rho, phi_w, zero, letters):
    """`wreath.rho_check` as five tests per element, in the order the
    gather's fallback repeats them; reads every point's entry index."""
    _, entry_of = s_prime.names[0].point_tables()
    zero_prime = s_prime.zero
    rho = []
    for x in range(s_prime.n):
        entries = [entry_of[q] for q in s_prime.names[x].points]
        if x == zero_prime:
            if phi_w[x] != zero:
                raise CheckFailed("eta(u) = 0 must force phi(u) = 0", s_prime.word_letters(x, letters))
            rho.append(zero)
            continue
        if phi_w[x] == zero:
            raise CheckFailed("phi(u) = 0 must force eta(u) = 0", s_prime.word_letters(x, letters))
        if None in entries:
            raise CheckFailed("non-zero elements are total on [p]", s_prime.word_letters(x, letters))
        images = {block_rho[t] for t in entries}
        if len(images) != 1:
            raise CheckFailed("block entries must agree under alpha", s_prime.word_letters(x, letters))
        if images != {phi_w[x]}:
            raise CheckFailed("rho . eta must equal phi", s_prime.word_letters(x, letters))
        rho.append(phi_w[x])
    return tuple(rho)


def j_support_loop(s_prime, members, twists, t_index, letters):
    """`wreath.j_support_check` with the twist preimages of every block of T
    built up front and each member's columns and entries collected as sets."""
    col_of, entry_of = s_prime.names[0].point_tables()
    preimages = [{t_index.get(t * blk) for t in twists} for blk in s_prime.names[0].entries.names]
    for x in members:
        points = s_prime.names[x].points
        if len({col_of[q] for q in points}) != 1:
            raise CheckFailed("blocks of J' lie in one column", s_prime.word_letters(x, letters))
        entries = {entry_of[q] for q in points}
        if not entries <= preimages[entry_of[points[0]]]:
            raise CheckFailed(
                "block entries must be preimages of one matrix", s_prime.word_letters(x, letters)
            )


def eggbox_by_buckets(S):
    """The text of `cli._print_eggbox` built J-class by J-class: each class's
    H-classes bucketed and sorted by cell, then cut into rows of one cell per
    L-class."""
    g = S.green()
    cells = [",".join(map(str, h)) for h in g.h_classes]
    width = len(g.l_classes)
    place = [g.r_class[h[0]] * width + g.l_class[h[0]] for h in g.h_classes]  # row-major
    order = sorted(range(len(g.j_classes)),
                   key=lambda c: (g.j_below[c].bit_count(), g.j_classes[c][0]))
    out = []
    for c in order:
        elems = g.j_classes[c]
        hs = sorted(set(map(g.h_class.__getitem__, elems)), key=place.__getitem__)
        grid = [cells[h] for h in hs]
        cols = len(set(map(g.l_class.__getitem__, elems)))
        regular = "true" if g.regular[c] else "false"
        out.append(f"jclass {c} regular={regular} size={len(elems)}\n" + "".join(
            f"  row {' | '.join(grid[i:i + cols])}\n" for i in range(0, len(grid), cols)))
    return "".join(out)
