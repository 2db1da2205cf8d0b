"""Brute-force oracles and test-only helpers.

The package answers these questions from the J-order, the factor DFA or the
cover's closure; the versions here work element by element, pair by pair or
path by path, so the tests can compare the two.
"""

import functools
import math

from soficsemi.errors import (
    CapExceeded,
    CheckFailed,
    DimensionMismatch,
    HypothesisViolated,
    NotFactorial,
    NotIdempotent,
    NotIrreducible,
    check,
)
from soficsemi.finsemi import (
    DEFAULT_CAP,
    FiniteSemigroup,
    PartialTransformation,
    close_generators,
    gatherer,
    group_inverse,
    maximal_subgroup,
)
from soficsemi.shiftspace import Dfa, Presentation, _split_block, block_label, factor_dfa
from soficsemi.syntactic import is_aggm
from soficsemi.wreath import ReesCoordinates, RowMonomialMatrix, _kernel_tuples


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


def in_minimal_ideal(S, subset, x):
    """Is x in the minimal ideal of the subsemigroup `subset` of S?
    Equivalently: every element of the subset is a factor of x inside it."""
    subset = sorted(subset)
    sub1 = subset + [None]
    for t in subset:
        found = False
        for u in sub1:
            ut = t if u is None else S.mul(u, t)
            for v in sub1:
                w = ut if v is None else S.mul(ut, v)
                if w == x:
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


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


def higher_block_by_copies(P, N):
    """`shiftspace.higher_block` with its states grown one edge per round,
    each round copying every path, and sorted afterwards (quadratic in N)."""
    if N == 1:
        return Presentation(P.n_states, P.edges, P.alphabet)
    out = [[e for e, (s, _, _) in enumerate(P.edges) if s == q] for q in range(P.n_states)]
    paths = [(e,) for e in range(len(P.edges))]
    for _ in range(N - 2):
        paths = [p + (f,) for p in paths for f in out[P.edges[p[-1]][2]]]
    paths.sort()
    state_of = {p: i for i, p in enumerate(paths)}
    edges = [(state_of[p], block_label(tuple(P.edges[e][1] for e in p + (f,))),
              state_of[p[1:] + (f,)]) for p in paths for f in out[P.edges[p[-1]][2]]]
    pos = {a: i for i, a in enumerate(P.alphabet)}
    labels = sorted({lab for _, lab, _ in edges},
                    key=lambda lab: tuple(pos[a] for a in _split_block(lab, P.alphabet)))
    return Presentation(len(paths), edges, labels)


def image_by_products(D, w):
    """The syntactic image of a non-empty word as a fold of `S.mul` over its
    letters."""
    return functools.reduce(D.semigroup.mul, (D.letter_map[a] for a in w))


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
    """The rho part of `wreath.s_prime_check` as five tests per element, in
    the order its fallback repeats them; reads every point's entry index."""
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
    """The J' part of `wreath.s_prime_check` by block products: the twist
    preimages of every block of T built up front, and each member's columns
    and entries collected as sets."""
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


def action_by_scan(S, emb):
    """The first pair (x, s), s over all of S and x over R(e0), at which the
    matrix of s does not act as right multiplication by s in Rees
    coordinates: (b, g) -> (column of row b, g * entry of row b) against the
    coordinates (0, g', b') of x*s, or a zero row when x*s leaves R(e0).
    None when every pair agrees."""
    g, rees, K = S.green(), emb.rees, emb.group
    r_id = g.r_class[rees.e0]
    for s, mat in enumerate(emb.matrices):
        rows = mat.rows
        for x in g.r_classes[r_id]:
            y = S.mul(x, s)
            _, gx, bx = rees.coord[x]
            row = rows[bx]
            if g.r_class[y] != r_id:
                ok = row is None
            else:
                _, gy, by = rees.coord[y]
                ok = row is not None and (by, gy) == (row[0], K.mul(gx, row[1]))
            if not ok:
                return x, s
    return None


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


def dfa_state_closure(P, extra_letters=(), cap=DEFAULT_CAP):
    """The syntactic semigroup as the letters' total maps on every state of
    the minimal complete DFA of L(X), and its zero: the constant map to the
    dead state, None when there is none."""
    d = factor_dfa(P)
    if extra_letters:
        d = d.extend_alphabet(tuple(extra_letters))
    maps = [PartialTransformation([d.trans[q][j] for q in range(d.n_states)])
            for j in range(len(d.alphabet))]
    S = close_generators(maps, cap=cap)
    sink = d.dead_state()
    if sink is None:
        return S, None
    check(S.zero is not None and S.names[S.zero] == PartialTransformation([sink] * d.n_states),
          "the zero is the constant map to the dead state", sink)
    return S, S.zero


def schutzenberger_cover(D):
    """The Fischer cover as the right-action graph of the letters on the
    R-class of the least idempotent of the distinguished J-class, states
    numbered by element index, from Green's structure and the AGGM test."""
    S = D.semigroup
    if S.n == 1:
        return Presentation(1, [(0, a, 0) for a in D.alphabet], D.alphabet)
    ok, j = is_aggm(S)
    check(ok, "syntactic semigroup is AGGM")
    g = S.green()
    e0 = g.anchor(g.j_class[j[0]])
    members = g.r_classes[g.r_class[e0]]
    pos = {x: i for i, x in enumerate(members)}
    edges = [(pos[x], a, pos[S.mul(x, s)]) for x in members
             for a, s in sorted(D.letter_map.items()) if S.mul(x, s) in pos]
    check(len({(s, a) for s, a, _ in edges}) == len(edges), "the graph is right-resolving")
    cover = Presentation(len(members), edges)
    check(cover.irreducible, "the graph is strongly connected", e0)
    return cover


def separated(S, m, n):
    """Whether some context (r, s) in S^1 has exactly one of r*m*s, r*n*s
    zero: |S|^2 products per pair."""
    ids = list(range(S.n)) + [None]  # None stands for the adjoined identity
    for r in ids:
        rm = m if r is None else S.mul(r, m)
        rn = n if r is None else S.mul(r, n)
        for s in ids:
            rms = rm if s is None else S.mul(rm, s)
            rns = rn if s is None else S.mul(rn, s)
            if (rms == S.zero) != (rns == S.zero):
                return True
    return False


def first_unseparated_by_scan(S):
    """The first pair (m, n), m < n, that `separated` rejects, m running
    over the non-zero elements ascending and then the zero."""
    order = [x for x in range(S.n) if x != S.zero] + [S.zero]
    return next(((m, n) for m in order for n in range(m + 1, S.n) if not separated(S, m, n)),
                None)


def right_action_tuples(S, points):
    """Per element s, the tuple (x*s for x in points): one fold along the
    witness tree, where x*(p*g) = (x*p)*g is one Cayley lookup."""
    cols, parent, lastgen = S._cols, S._parent, S._lastgen
    acts = [None] * S.n
    for s in S._order:
        p = parent[s]
        acts[s] = tuple(map(cols[lastgen[s]].__getitem__, points if p is None else acts[p]))
    return acts


def left_action_tuples(S, points):
    """Per element s, the positions in points of s*x for x in points, which
    must be closed under left multiplication; s*x = p*(g*x), so the action of
    s is one gather of the action of p."""
    pos = {x: i for i, x in enumerate(points)}
    gens = [tuple(pos[S.mul(g, x)] for x in points) for g in S.generators]
    gathers = [gatherer(gen) for gen in gens]
    acts = [None] * S.n
    for s in S._order:
        p, j = S._parent[s], S._lastgen[s]
        acts[s] = gens[j] if p is None else gathers[j](acts[p])
    return acts


def faithful_both_sides_by_tuples(S, j_elems):
    """Faithfulness on R0 and on L0 u {0} of a (0-)minimal J-class, whose
    products all stay in them, from per-element tuples."""
    g = S.green()
    x = j_elems[0]
    l0 = g.l_classes[g.l_class[x]] + (() if S.zero is None else (S.zero,))
    return (len(set(right_action_tuples(S, g.r_classes[g.r_class[x]]))) == S.n
            and len(set(left_action_tuples(S, l0))) == S.n)


def separating_contexts_by_tuples(S, j_elems):
    """The separating-context partition keyed, per element s, by the tuple
    over one r in R0 per L-class of the R-classes of the idempotents in
    L(r*s), or None where there are none or r*s leaves J."""
    g = S.green()
    lsig = {
        l: frozenset(g.r_class[e] for e in g.l_classes[l] if S.is_idempotent(e)) or None
        for l in {g.l_class[x] for x in j_elems}
    }
    reps = {g.l_class[r]: r for r in g.r_classes[g.r_class[j_elems[0]]]}
    profiles = {}
    for s, act in enumerate(right_action_tuples(S, tuple(reps.values()))):
        profiles.setdefault(tuple(lsig.get(g.l_class[v]) for v in act), []).append(s)
    return profiles


def rees_coordinates_by_scan(S, j_id, idempotent=None):
    """Normalized Rees coordinates found by scans: each cell's least member
    by a pass over J, u* and v* by a search over all of S, and the Rees law
    checked on all |J|^2 pairs of J, read from the left rows of J (the Cayley
    graph along the witness tree, not `S.mul`)."""
    g = S.green()
    j_elems = g.j_classes[j_id]
    e0 = g.anchor(j_id)
    if idempotent is not None:
        e0 = idempotent
        if not (0 <= e0 < S.n and S.is_idempotent(e0) and g.j_class[e0] == j_id):
            raise NotIdempotent(f"element {e0} is not an idempotent of J-class {j_id}")
    group = maximal_subgroup(S, e0)
    gpos = {s: i for i, s in enumerate(group.names)}

    a_ids = sorted(
        {g.r_class[x] for x in j_elems},
        key=lambda c: (c != g.r_class[e0], min(g.r_classes[c])),
    )
    b_ids = sorted(
        {g.l_class[x] for x in j_elems},
        key=lambda c: (c != g.l_class[e0], min(g.l_classes[c])),
    )
    jset = set(j_elems)

    def pick(r_id, l_id):
        hits = [x for x in j_elems if g.r_class[x] == r_id and g.l_class[x] == l_id]
        check(hits, "every eggbox cell of a regular J-class is non-empty", (r_id, l_id))
        return min(hits)

    u = [e0 if a == a_ids[0] else pick(a, b_ids[0]) for a in a_ids]
    v = [e0 if b == b_ids[0] else pick(a_ids[0], b) for b in b_ids]

    def as_group(x):
        return gpos.get(x)

    # normalize row b0 and column a0 of the sandwich matrix to identities
    for i in range(1, len(u)):
        c = S.mul(e0, u[i])
        gi = as_group(c)
        if gi is not None:
            inv = group.names[group_inverse(group, gi)]
            u[i] = S.mul(u[i], inv)
    for i in range(1, len(v)):
        c = S.mul(v[i], e0)
        gi = as_group(c)
        if gi is not None:
            inv = group.names[group_inverse(group, gi)]
            v[i] = S.mul(inv, v[i])

    sandwich = []
    for b in range(len(v)):
        row = []
        for a in range(len(u)):
            row.append(as_group(S.mul(v[b], u[a])))
        sandwich.append(tuple(row))
    sandwich = tuple(sandwich)
    check(all(c in (None, group.identity) for c in sandwich[0]),
          "row b0 of the sandwich matrix is normalized", sandwich[0])
    check(all(row[0] in (None, group.identity) for row in sandwich),
          "column a0 of the sandwich matrix is normalized", sandwich)
    check(sandwich[0][0] == group.identity, "the sandwich corner is the identity", sandwich[0][0])

    ustar = [e0]
    for i in range(1, len(u)):
        s = min(s for s in range(S.n) if S.mul(s, u[i]) == e0)
        ustar.append(S.mul(e0, s))
    vstar = [e0]
    for i in range(1, len(v)):
        t = min(t for t in range(S.n) if S.mul(v[i], t) == e0)
        vstar.append(S.mul(t, e0))

    coord = {}
    decoord = {}
    for x in j_elems:
        a = a_ids.index(g.r_class[x])
        b = b_ids.index(g.l_class[x])
        gi = as_group(S.mul(S.mul(ustar[a], x), vstar[b]))
        check(gi is not None, "coordinate fell outside the maximal subgroup", x)
        key = (a, gi, b)
        check(key not in decoord, "coordinates are injective", x)
        coord[x] = key
        decoord[key] = x
    check(len(decoord) == len(j_elems) == len(a_ids) * group.n * len(b_ids),
          "coordinates cover A x G x B", len(decoord))
    for key, x in decoord.items():
        a, gi, b = key
        rebuilt = S.mul(S.mul(u[a], group.names[gi]), v[b])
        check(rebuilt == x, "decoordinatize(coordinatize) is the identity", x)
    # multiplication agrees with the Rees product, the group's read from its table
    gmul = [[group.mul(h, k) for k in range(group.n)] for h in range(group.n)]
    for x in j_elems:
        ax, gx, bx = coord[x]
        products = S.left_row(x)
        for y in j_elems:
            ay, gy, by = coord[y]
            z = products[y]
            link = sandwich[bx][ay]
            if link is None:
                ok = z not in jset
            else:
                ok = z in jset and coord[z] == (ax, gmul[gmul[gx][link]][gy], by)
            if not ok:
                raise CheckFailed("multiplication in J agrees with the Rees product", (x, y))
    return ReesCoordinates(
        group=group,
        a_ids=tuple(a_ids),
        b_ids=tuple(b_ids),
        sandwich=sandwich,
        e0=e0,
        coord=coord,
        v=tuple(v),
    )
