"""Finite semigroups given by generators or by multiplication tables.

Elements are canonical indices 0..n-1.  A semigroup built from generators
carries per element a shortlex generator-word witness; element numbering
follows the deterministic BFS discovery order (words compared by length
first, ties broken by generator position as listed in the input).
Every semigroup keeps that order as `_order` (a table's own numbering may
differ from it), so each element comes after its witness-tree `_parent`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    DimensionMismatch,
    NotFactorial,
    NotIdempotent,
    NotIrreducible,
    NotRegular,
    NotSurjective,
)
from .graph import reach, sccs

TABLE_LIMIT = 2000  # above this, the full n x n table is not materialized eagerly


class PartialTransformation:
    """Partial self-map of {0..dim-1}; the product x*y applies x first, then y."""

    __slots__ = ("dim", "mapping", "_hash")

    def __init__(self, mapping, dim=None):
        mapping = tuple(mapping)
        if dim is None:
            dim = len(mapping)
        if len(mapping) != dim:
            raise DimensionMismatch(f"mapping has {len(mapping)} entries, dim is {dim}")
        for v in mapping:
            if v is not None and not (0 <= v < dim):
                raise DimensionMismatch(f"image {v} outside 0..{dim - 1}")
        self.dim = dim
        self.mapping = mapping
        self._hash = hash(mapping)

    @classmethod
    def identity(cls, dim):
        return cls(range(dim))

    @classmethod
    def constant(cls, dim, target):
        return cls([target] * dim)

    @classmethod
    def empty(cls, dim):
        return cls([None] * dim)

    def __call__(self, i):
        return self.mapping[i]

    def __mul__(self, other):
        if not isinstance(other, PartialTransformation):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("composing maps of different dimensions")
        om = other.mapping
        return PartialTransformation(
            tuple(None if v is None else om[v] for v in self.mapping), self.dim
        )

    def __eq__(self, other):
        return (
            isinstance(other, PartialTransformation)
            and self.dim == other.dim
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ",".join("-" if v is None else str(v) for v in self.mapping)
        return f"PT[{body}]"

    @property
    def rank(self):
        return len({v for v in self.mapping if v is not None})

    def is_total(self):
        return all(v is not None for v in self.mapping)

    def image(self):
        return {v for v in self.mapping if v is not None}

    def domain(self):
        return {i for i, v in enumerate(self.mapping) if v is not None}


class FiniteSemigroup:
    """Finite semigroup on indices 0..n-1 with generator-word witnesses.

    `names` optionally carries a payload per element (the carrier object the
    index stands for: a transformation, a matrix, an element of a larger
    semigroup, ...).
    """

    def __init__(self, table, generators=None, *, names=None, zero="auto",
                 identity="auto", check=True, seed=0):
        table = [list(row) for row in table]
        n = len(table)
        for row in table:
            if len(row) != n:
                raise ValueError("table is not square")
            for v in row:
                if not (0 <= v < n):
                    raise ValueError("table entry out of range")
        if generators is None:
            generators = list(range(n))
        if not all(0 <= g < n for g in generators):
            raise ValueError("generator out of range")
        self.n = n
        self._table = table
        self.generators = list(generators)
        self.names = list(names) if names is not None else None
        if check:
            self._check_associative(seed)
        self._cayley = [[table[x][g] for g in self.generators] for x in range(n)]
        self._derive_witnesses()
        self.zero = self._find_zero() if zero == "auto" else zero
        self.identity = self._find_identity() if identity == "auto" else identity
        if zero != "auto" and zero is not None:
            assert all(self.mul(zero, s) == zero == self.mul(s, zero) for s in range(n))
        self._green = None
        self._aggm = None

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_closure(cls, names, cayley, gen_elts, witness, parent, lastgen):
        self = object.__new__(cls)
        self.n = len(names)
        self.names = list(names)
        self.generators = list(gen_elts)
        self._cayley = cayley
        self.witness = witness
        self._parent = parent
        self._lastgen = lastgen
        self._order = range(self.n)
        self._table = None
        if self.n <= TABLE_LIMIT:
            self._materialize_table()
        self.zero = self._find_zero()
        self.identity = self._find_identity()
        self._green = None
        self._aggm = None
        return self

    def _check_associative(self, seed):
        t = self._table
        n = self.n
        if n <= 200:
            for x in range(n):
                tx = t[x]
                for y in range(n):
                    xy = tx[y]
                    ty = t[y]
                    for z in range(n):
                        if t[xy][z] != tx[ty[z]]:
                            raise ValueError(f"table not associative at ({x},{y},{z})")
        else:
            rng = random.Random(seed)
            for _ in range(10 * n * n):
                x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    raise ValueError(f"table not associative at ({x},{y},{z})")

    def _derive_witnesses(self):
        # BFS over right multiplication by generators; shortlex witnesses.
        n = self.n
        witness = [None] * n
        parent = [None] * n
        lastgen = [None] * n
        order = []
        for j, g in enumerate(self.generators):
            if witness[g] is None:
                witness[g] = (j,)
                lastgen[g] = j
                order.append(g)
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for j in range(len(self.generators)):
                y = self._cayley[x][j]
                if witness[y] is None:
                    witness[y] = witness[x] + (j,)
                    parent[y] = x
                    lastgen[y] = j
                    order.append(y)
        if len(order) != n:
            raise ValueError("generators do not generate the semigroup")
        self.witness = witness
        self._parent = parent
        self._lastgen = lastgen
        self._order = order

    def _materialize_table(self):
        # Fill the table column by column in discovery order:
        # x*(z*g) = (x*z)*g needs only Cayley lookups.
        n = self.n
        table = [[0] * n for _ in range(n)]
        cay = self._cayley
        for y in self._order:
            if self._parent[y] is None:
                j = self._lastgen[y]
                for x in range(n):
                    table[x][y] = cay[x][j]
            else:
                z, j = self._parent[y], self._lastgen[y]
                for x in range(n):
                    table[x][y] = cay[table[x][z]][j]
        self._table = table

    # -- basic operations -------------------------------------------------

    def __len__(self):
        return self.n

    @property
    def table(self):
        if self._table is None:
            if self.n > TABLE_LIMIT:
                raise MemoryError(f"refusing to materialize {self.n}x{self.n} table")
            self._materialize_table()
        return self._table

    def mul(self, x, y):
        if self._table is not None:
            return self._table[x][y]
        cur = x
        for j in self.witness[y]:
            cur = self._cayley[cur][j]
        return cur

    def left_row(self, g):
        """Row of left multiplication by element g: [g*x for x in S]."""
        if self._table is not None:
            return self._table[g]
        n = self.n
        row = [None] * n
        for y in self._order:
            if self._parent[y] is None:
                row[y] = self._cayley[g][self._lastgen[y]]
            else:
                row[y] = self._cayley[row[self._parent[y]]][self._lastgen[y]]
        return row

    def eval_word(self, word):
        """Evaluate a word of generator positions."""
        word = list(word)
        if not word:
            raise ValueError("empty word")
        cur = self.generators[word[0]]
        for j in word[1:]:
            cur = self._cayley[cur][j]
        return cur

    def power(self, s, k):
        assert k >= 1
        acc = None
        base = s
        while k:
            if k & 1:
                acc = base if acc is None else self.mul(acc, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return acc

    def index_period(self, s):
        """Smallest (i, q) with s^i = s^(i+q)."""
        seen = {}
        cur = s
        e = 1
        while cur not in seen:
            seen[cur] = e
            cur = self.mul(cur, s)
            e += 1
        first = seen[cur]
        return first, e - first

    def is_idempotent(self, x):
        return self.mul(x, x) == x

    def idempotent_list(self):
        return [x for x in range(self.n) if self.is_idempotent(x)]

    def _find_zero(self):
        for z in range(self.n):
            if all(self._cayley[z][j] == z for j in range(len(self.generators))):
                lz = {self.mul(g, z) for g in self.generators}
                if lz == {z}:
                    return z
        return None

    def _find_identity(self):
        gelts = self.generators
        for e in range(self.n):
            if all(self._cayley[e][j] == gelts[j] for j in range(len(gelts))) and all(
                self.mul(g, e) == g for g in gelts
            ):
                return e
        return None

    def green(self):
        if self._green is None:
            self._green = green_structure(self)
        return self._green

    def word_letters(self, x, letters):
        """Witness word of x spelled with the given generator labels."""
        return tuple(letters[j] for j in self.witness[x])

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n}, gens={len(self.generators)})"


def close_generators(gens, cap=100000):
    """Close a list of carriers (transformations, matrices, ...) under *.

    Deterministic BFS by shortlex generator words; returns a FiniteSemigroup
    whose `names` are the carrier objects.
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


# -- Green's relations --------------------------------------------------


@dataclass
class GreenStructure:
    """R/L/J/H partitions, the J-order, and per-J-class regularity."""

    r_class: tuple
    l_class: tuple
    j_class: tuple
    h_class: tuple
    r_classes: tuple
    l_classes: tuple
    j_classes: tuple
    h_classes: tuple
    j_below: tuple  # per J-class id, frozenset of class ids <=_J it (incl. itself)
    regular: tuple

    def leq_j(self, a, b):
        """a <=_J b on J-class ids."""
        return a in self.j_below[b]

    def minimal_j_classes(self):
        ids = range(len(self.j_classes))
        return [c for c in ids if self.j_below[c] == frozenset([c])]


def green_structure(S):
    """Green partitions via SCC condensation of the Cayley reachability graphs."""
    n = S.n
    k = len(S.generators)
    right = S._cayley
    left = [S.left_row(g) for g in S.generators]

    r_class, r_classes = sccs(n, right.__getitem__)
    l_class, l_classes = sccs(n, lambda v: [left[j][v] for j in range(k)])
    j_class, j_classes = sccs(n, lambda v: right[v] + [left[j][v] for j in range(k)])

    pair_ids = {}
    h_class = []
    for x in range(n):
        p = (r_class[x], l_class[x])
        if p not in pair_ids:
            pair_ids[p] = len(pair_ids)
        h_class.append(pair_ids[p])
    buckets = [[] for _ in range(len(pair_ids))]
    for x in range(n):
        buckets[h_class[x]].append(x)
    order = sorted(range(len(buckets)), key=lambda c: min(buckets[c]))
    renum = {old: new for new, old in enumerate(order)}
    h_class = tuple(renum[c] for c in h_class)
    h_classes = tuple(tuple(sorted(buckets[old])) for old in order)

    # condensation reachability gives the J-order
    nc = len(j_classes)
    succ = [set() for _ in range(nc)]
    for x in range(n):
        cx = j_class[x]
        for j in range(k):
            succ[cx].add(j_class[right[x][j]])
            succ[cx].add(j_class[left[j][x]])
    j_below = [frozenset(reach([c], succ.__getitem__)) for c in range(nc)]

    regular = []
    idem = set(S.idempotent_list())
    for c in range(nc):
        regular.append(any(x in idem for x in j_classes[c]))

    return GreenStructure(
        r_class=tuple(r_class),
        l_class=tuple(l_class),
        j_class=tuple(j_class),
        h_class=h_class,
        r_classes=r_classes,
        l_classes=l_classes,
        j_classes=j_classes,
        h_classes=h_classes,
        j_below=tuple(j_below),
        regular=tuple(regular),
    )


def maximal_subgroup(S, e):
    """The H-class of an idempotent e as a group; `names` are S-element ids."""
    if not S.is_idempotent(e):
        raise NotIdempotent(f"element {e} is not idempotent")
    g = S.green()
    members = sorted(x for x in range(S.n) if g.h_class[x] == g.h_class[e])
    pos = {x: i for i, x in enumerate(members)}
    table = [[pos[S.mul(x, y)] for y in members] for x in members]
    group = FiniteSemigroup(table, generators=list(range(len(members))),
                            names=members, check=False)
    assert group.identity == pos[e]
    # group axioms: identity plus two-sided inverses, checked exhaustively
    for i in range(len(members)):
        assert any(
            table[i][j] == group.identity and table[j][i] == group.identity
            for j in range(len(members))
        ), "H-class of idempotent failed to be a group"
    return group


def group_inverse(G, x):
    e = G.identity
    for y in range(G.n):
        if G.mul(x, y) == e and G.mul(y, x) == e:
            return y
    raise ValueError("no inverse; not a group")


def apex(S, A):
    """Unique minimal J-class inside a factorial irreducible subset A of S."""
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
    assert len(minimal) == 1, "apex is not unique"
    top = minimal[0]
    assert g.regular[top], "apex must be regular"
    assert all(g.leq_j(top, c) for c in inside)
    fact = {b for b in range(S.n) if g.leq_j(top, g.j_class[b])}
    assert fact == A, "Fact(apex) differs from A"
    return top


@dataclass
class SemigroupMorphism:
    source: FiniteSemigroup
    target: FiniteSemigroup
    mapping: tuple

    def __post_init__(self):
        self.mapping = tuple(self.mapping)
        assert len(self.mapping) == self.source.n

    @classmethod
    def from_generator_map(cls, source, target, gen_images, check=True):
        """Extend generator images along witnesses; fails if not a morphism."""
        assert len(gen_images) == len(source.generators)
        mapping = [None] * source.n
        for y in source._order:
            z, g = source._parent[y], gen_images[source._lastgen[y]]
            mapping[y] = g if z is None else target.mul(mapping[z], g)
        m = cls(source, target, tuple(mapping))
        if check:
            m.validate()
        return m

    def validate(self):
        s, t, m = self.source, self.target, self.mapping
        for x in range(s.n):
            for y in range(s.n):
                if m[s.mul(x, y)] != t.mul(m[x], m[y]):
                    raise ValueError(f"not a morphism at ({x},{y})")

    def is_surjective(self):
        return len(set(self.mapping)) == self.target.n

    def __call__(self, x):
        return self.mapping[x]


def lift_jclass(phi, j_target):
    """Lift a regular J-class of the target through a surjective morphism.

    Returns the unique minimal J-class J' of the source with phi(J') inside
    the given class, and asserts the four conclusions: J' regular,
    phi(J') = J, classwise-onto R/L/H images, phi(E(J')) = E(J).
    """
    if not phi.is_surjective():
        raise NotSurjective("morphism is not surjective")
    S, T = phi.source, phi.target
    gt = T.green()
    if not gt.regular[j_target]:
        raise NotRegular(f"target J-class {j_target} is not regular")
    fact_t = {t for t in range(T.n) if gt.leq_j(j_target, gt.j_class[t])}
    pullback = {s for s in range(S.n) if phi(s) in fact_t}
    j_prime = apex(S, pullback)
    gs = S.green()

    # (1) unique minimal among source classes mapping into j_target
    into = {
        gs.j_class[s]
        for s in range(S.n)
        if all(gt.j_class[phi(x)] == j_target for x in gs.j_classes[gs.j_class[s]])
    }
    assert j_prime in into
    assert all(gs.leq_j(j_prime, c) for c in into)
    # (2) regular with exact image
    assert gs.regular[j_prime]
    image = {phi(s) for s in gs.j_classes[j_prime]}
    assert image == set(gt.j_classes[j_target])
    # (3) each R/L/H-class of J' maps onto a class of J, covering all of them
    for cls_of, classes_of, t_cls_of in (
        (gs.r_class, gs.r_classes, gt.r_class),
        (gs.l_class, gs.l_classes, gt.l_class),
        (gs.h_class, gs.h_classes, gt.h_class),
    ):
        source_ids = {cls_of[s] for s in gs.j_classes[j_prime]}
        covered = set()
        for cid in source_ids:
            img = {phi(x) for x in classes_of[cid]}
            tids = {t_cls_of[t] for t in img}
            assert len(tids) == 1
            tid = tids.pop()
            full = {t for t in range(T.n) if t_cls_of[t] == tid and t in set(gt.j_classes[j_target])}
            assert img == full
            covered.add(tid)
        expected = {t_cls_of[t] for t in gt.j_classes[j_target]}
        assert covered == expected
    # (4) idempotents map onto idempotents
    e_src = {phi(s) for s in gs.j_classes[j_prime] if S.is_idempotent(s)}
    e_tgt = {t for t in gt.j_classes[j_target] if T.is_idempotent(t)}
    assert e_src == e_tgt
    # maximal subgroups map onto maximal subgroups
    for s in gs.j_classes[j_prime]:
        if S.is_idempotent(s):
            hs = {phi(x) for x in gs.h_classes[gs.h_class[s]]}
            ht = set(gt.h_classes[gt.h_class[phi(s)]])
            assert hs == ht
    return j_prime


def omega_exponent(S, s):
    """Least k >= 1 with s^k idempotent: the least multiple of the period
    that is at least the index."""
    i, q = S.index_period(s)
    return q * ((i + q - 1) // q)


def omega_power(S, s):
    """The unique idempotent in the cyclic subsemigroup generated by s."""
    return S.power(s, omega_exponent(S, s))


# -- file format ---------------------------------------------------------


def parse_semigroup(text, seed=0):
    """Parse the textual semigroup format (header, table rows, generators)."""
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0][0] != "semigroup" or len(lines[0]) < 3:
        raise ValueError("expected 'semigroup n k' header")
    n, k = int(lines[0][1]), int(lines[0][2])
    if len(lines) < n + 2:
        raise ValueError("truncated semigroup file")
    table = []
    for i in range(1, n + 1):
        row = [int(v) for v in lines[i]]
        if len(row) != n:
            raise ValueError(f"table row {i - 1} has {len(row)} entries")
        table.append(row)
    zero = None
    identity = None
    generators = None
    for parts in lines[n + 1:]:
        if parts[0] == "generators":
            generators = [int(v) for v in parts[1:]]
            if len(generators) != k:
                raise ValueError("generator count does not match header")
        elif parts[0] in ("zero", "identity") and len(parts) != 2:
            raise ValueError(f"expected '{parts[0]} <element>'")
        elif parts[0] == "zero":
            zero = int(parts[1])
        elif parts[0] == "identity":
            identity = int(parts[1])
        else:
            raise ValueError(f"unknown line {' '.join(parts)}")
    if generators is None:
        raise ValueError("missing generators line")
    S = FiniteSemigroup(table, generators, seed=seed)
    if zero is not None and S.zero != zero:
        raise ValueError("declared zero is not a zero")
    if identity is not None and S.identity != identity:
        raise ValueError("declared identity is not an identity")
    return S


def format_semigroup(S):
    out = [f"semigroup {S.n} {len(S.generators)}"]
    for row in S.table:
        out.append(" ".join(str(v) for v in row))
    out.append("generators " + " ".join(str(g) for g in S.generators))
    if S.zero is not None:
        out.append(f"zero {S.zero}")
    if S.identity is not None:
        out.append(f"identity {S.identity}")
    return "\n".join(out) + "\n"
