"""Finite semigroups given by generators or by multiplication tables.

Elements are canonical indices 0..n-1.  A semigroup built from generators
carries per element a shortlex generator-word witness; element numbering
follows the deterministic BFS discovery order (words compared by length
first, ties broken by generator position as listed in the input).
Every semigroup keeps that order as `_order` (a table's own numbering may
differ from it), so each element comes after its witness-tree `_parent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    CapExceeded,
    DimensionMismatch,
    NotFactorial,
    NotIdempotent,
    NotIrreducible,
    NotRegular,
    NotSurjective,
    check,
)
from .graph import sccs

TABLE_LIMIT = 2000  # above this, `.table` refuses to materialize the n x n table
DEFAULT_CAP = 2_000_000  # element cap of a closure unless the caller passes one


class PartialTransformation:
    """Partial self-map of {0..dim-1}; the product x*y applies x first, then y.

    Stored packed in `_b`, one entry per point with the value dim standing
    for "undefined": `bytes` when dim <= 255, else a tuple.  x*y is then one
    C-level gather through y's `_pad` (y's entries followed by dim, padded to
    256 for `bytes.translate`), built once per right factor.  The tuple path
    alone would serve every dim, but on the benchmark's `large` workload it
    took about a quarter more time and a fifth more memory than `bytes`.
    """

    __slots__ = ("dim", "_b", "_pad", "_hash")

    def __init__(self, mapping, dim=None):
        mapping = tuple(mapping)
        if dim is None:
            dim = len(mapping)
        if len(mapping) != dim:
            raise DimensionMismatch(f"mapping has {len(mapping)} entries, dim is {dim}")
        for v in mapping:
            if v is not None and not (0 <= v < dim):
                raise DimensionMismatch(f"image {v} outside 0..{dim - 1}")
        packed = tuple(dim if v is None else v for v in mapping)
        self.dim = dim
        self._b = bytes(packed) if dim <= 255 else packed
        self._pad = None
        self._hash = hash(self._b)

    @classmethod
    def _packed(cls, b, dim):
        """Wrap packed entries without validation (products of valid maps)."""
        self = object.__new__(cls)
        self.dim = dim
        self._b = b
        self._pad = None
        self._hash = hash(b)
        return self

    @property
    def mapping(self):
        dim = self.dim
        return tuple(None if v == dim else v for v in self._b)

    @classmethod
    def identity(cls, dim):
        return cls(range(dim))

    @classmethod
    def constant(cls, dim, target):
        return cls([target] * dim)

    def __call__(self, i):
        v = self._b[i]
        return None if v == self.dim else v

    def __mul__(self, other):
        if not isinstance(other, PartialTransformation):
            return NotImplemented
        dim = self.dim
        if other.dim != dim:
            raise DimensionMismatch("composing maps of different dimensions")
        pad = other._pad
        if dim <= 255:
            if pad is None:
                pad = other._pad = other._b + bytes([dim]) * (256 - dim)
            return PartialTransformation._packed(self._b.translate(pad), dim)
        if pad is None:
            pad = other._pad = other._b + (dim,)
        return PartialTransformation._packed(itemgetter(*self._b)(pad), dim)

    def __eq__(self, other):
        # the packed entries have length dim, so equal entries mean equal dim
        return isinstance(other, PartialTransformation) and self._b == other._b

    def __hash__(self):
        return self._hash

    def __repr__(self):
        dim = self.dim
        body = ",".join("-" if v == dim else str(v) for v in self._b)
        return f"PT[{body}]"

    @property
    def rank(self):
        return len(self.image())

    def is_total(self):
        return self.dim not in self._b

    def image(self):
        return set(self._b) - {self.dim}

    def domain(self):
        dim = self.dim
        return {i for i, v in enumerate(self._b) if v != dim}


class FiniteSemigroup:
    """Finite semigroup on indices 0..n-1 with generator-word witnesses.

    `names` optionally carries a payload per element (the carrier object the
    index stands for: a transformation, a matrix, an element of a larger
    semigroup, ...).
    """

    def __init__(self, table, generators=None, *, names=None, zero="auto",
                 identity="auto", check=True):
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
        self._cayley = [[table[x][g] for g in self.generators] for x in range(n)]
        self._derive_witnesses()
        if check:
            self._check_associative()
        self.zero = self._find_zero() if zero == "auto" else zero
        self.identity = self._find_identity() if identity == "auto" else identity
        if zero != "auto" and zero is not None:
            for s in range(n):
                if not self.mul(zero, s) == zero == self.mul(s, zero):
                    raise ValueError(f"declared zero {zero} is not a zero, witness {s}")
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
        self.zero = self._find_zero()
        self.identity = self._find_identity()
        self._green = None
        self._aggm = None
        return self

    def _check_associative(self):
        """Light's test: (x*a)*y = x*(a*y) for every generator a and all x, y.

        The elements a for which it holds are closed under products, so once
        the generators are known to generate, it holds for every a.
        """
        t = self._table
        for a in self.generators:
            ta = t[a]
            for x, tx in enumerate(t):
                if [tx[v] for v in ta] != t[tx[a]]:
                    y = next(y for y, v in enumerate(ta) if tx[v] != t[tx[a]][y])
                    raise ValueError(f"table not associative at ({x},{a},{y})")

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

    def right_action(self, points):
        """Per element s, the tuple (x*s for x in points): one fold along the
        witness tree, where x*(p*g) = (x*p)*g is one Cayley lookup."""
        cay, parent, lastgen = self._cayley, self._parent, self._lastgen
        acts = [None] * self.n
        for s in self._order:
            p, j = parent[s], lastgen[s]
            acts[s] = tuple(cay[x][j] for x in (points if p is None else acts[p]))
        return acts

    def left_action(self, points):
        """Per element s, the positions in points of s*x for x in points,
        which must be closed under left multiplication; s*x = p*(g*x) is one
        lookup in the action of p."""
        pos = {x: i for i, x in enumerate(points)}
        gens = [tuple(pos[self.mul(g, x)] for x in points) for g in self.generators]
        acts = [None] * self.n
        for s in self._order:
            p, gen = self._parent[s], gens[self._lastgen[s]]
            acts[s] = gen if p is None else tuple(acts[p][i] for i in gen)
        return acts

    def same_table(self, other):
        """Whether other has this multiplication table, read off the
        generators and the right Cayley graph (they determine every product)
        in O(|S| * k), so no table is materialized."""
        return self is other or (
            self.generators == other.generators and self._cayley == other._cayley
        )

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
        if k < 1:
            raise ValueError(f"power needs k >= 1, got {k}")
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
        k = len(self.generators)
        for z, row in enumerate(self._cayley):
            # one C-level scan of the right Cayley row first, then the left side
            if row.count(z) == k and {self.mul(g, z) for g in self.generators} == {z}:
                return z
        return None

    def _find_identity(self):
        gelts = self.generators
        for e, row in enumerate(self._cayley):
            if row == gelts and all(self.mul(g, e) == g for g in gelts):
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


def close_generators(gens, cap=DEFAULT_CAP):
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
    anchors: tuple  # per J-class id, its least idempotent, None when not regular

    def leq_j(self, a, b):
        """a <=_J b on J-class ids."""
        return a in self.j_below[b]

    def minimal_among(self, ids):
        """The <=_J-minimal class ids among the given class ids, ascending."""
        ids = set(ids)
        return sorted(c for c in ids if len(self.j_below[c] & ids) == 1)

    def zero_minimal_j_classes(self, zero):
        """The J-classes whose only class strictly below is the zero's."""
        return self.minimal_among(set(range(len(self.j_classes))) - {self.j_class[zero]})

    def anchor(self, c):
        """The least idempotent of J-class c, the base point of its actions."""
        if self.anchors[c] is None:
            raise NotRegular(f"J-class {c} is not regular")
        return self.anchors[c]


def _classes_within(rows, j_class):
    """R-classes (rows = right Cayley graph) or L-classes (left columns).

    By stability, the R-class of x is what x reaches along right Cayley
    edges inside its J-class (dually for L). Walking from each unlabelled
    node in increasing order starts every class at its least member, so the
    numbering is the one `sccs` gives.
    """
    cls = [None] * len(rows)
    classes = []
    for x in range(len(rows)):
        if cls[x] is not None:
            continue
        c, jx = len(classes), j_class[x]
        cls[x] = c
        members = [x]
        for v in members:  # grows while it is walked
            for w in rows[v]:
                if cls[w] is None and j_class[w] == jx:
                    cls[w] = c
                    members.append(w)
        members.sort()
        classes.append(tuple(members))
    return tuple(cls), tuple(classes)


def green_structure(S):
    """Green's relations from one Tarjan pass on the two-sided Cayley graph:
    J-classes and the J-order from its condensation, R and L by stability."""
    n = S.n
    right = S._cayley
    cols = list(zip(*(S.left_row(g) for g in S.generators)))
    adj = [(*r, *c) for r, c in zip(right, cols)]
    j_class, j_classes, done = sccs(n, adj.__getitem__)
    r_class, r_classes = _classes_within(right, j_class)
    l_class, l_classes = _classes_within(cols, j_class)

    # (R, L) pairs first met in increasing x are numbered by least member
    pair_ids = {}
    h_class = tuple(pair_ids.setdefault(p, len(pair_ids)) for p in zip(r_class, l_class))
    h_classes = [[] for _ in pair_ids]
    for x, h in enumerate(h_class):
        h_classes[h].append(x)

    # the J-order, folded over the condensation sinks first
    nc = len(j_classes)
    succ = [set() for _ in range(nc)]
    for v in range(n):
        succ[j_class[v]].update(map(j_class.__getitem__, adj[v]))
    j_below = [None] * nc
    for c in done:
        # copied through a set: frozenset.union would keep the union's slack
        j_below[c] = frozenset(set((c,)).union(*(j_below[d] for d in succ[c] if d != c)))

    anchors = [None] * nc
    for e in reversed(S.idempotent_list()):  # the least one per class is set last
        anchors[j_class[e]] = e

    return GreenStructure(
        r_class=r_class,
        l_class=l_class,
        j_class=j_class,
        h_class=h_class,
        r_classes=r_classes,
        l_classes=l_classes,
        j_classes=j_classes,
        h_classes=tuple(map(tuple, h_classes)),
        j_below=tuple(j_below),
        regular=tuple(a is not None for a in anchors),
        anchors=tuple(anchors),
    )


def maximal_subgroup(S, e):
    """The H-class of an idempotent e as a group; `names` are S-element ids."""
    if not S.is_idempotent(e):
        raise NotIdempotent(f"element {e} is not idempotent")
    g = S.green()
    members = g.h_classes[g.h_class[e]]
    pos = {x: i for i, x in enumerate(members)}
    table = [[pos[S.mul(x, y)] for y in members] for x in members]
    group = FiniteSemigroup(table, generators=list(range(len(members))),
                            names=members, check=False)
    check(group.identity == pos[e], "idempotent is the identity of its H-class", e)
    # group axioms: identity plus two-sided inverses, checked exhaustively
    for i in range(len(members)):
        check(any(
            table[i][j] == group.identity and table[j][i] == group.identity
            for j in range(len(members))
        ), "H-class of idempotent failed to be a group", members[i])
    return group


def group_inverse(G, x):
    e = G.identity
    for y in range(G.n):
        if G.mul(x, y) == e and G.mul(y, x) == e:
            return y
    raise ValueError("no inverse; not a group")


def apex(S, A):
    """Unique minimal J-class inside a factorial irreducible subset A of S.

    Read off the J-order (Rhodes and Steinberg, The q-theory of Finite
    Semigroups, ch. 1): A is factorial when every class with a class of A
    below it lies wholly in A; then A is irreducible exactly when its classes
    have one <=_J-minimal class and that class is regular.
    """
    A = set(A)
    if not A:
        raise ValueError("A is empty")
    g = S.green()
    inside = {g.j_class[a] for a in A}
    # factorial: every factor (J-above element) of a member is a member
    for c, below in enumerate(g.j_below):
        if not below.isdisjoint(inside):
            b = next((b for b in g.j_classes[c] if b not in A), None)
            if b is not None:
                raise NotFactorial((min(a for a in A if g.j_class[a] in below), b))
    # irreducible: for all u, v in A some u*w*v lies in A; it has a class
    # below both, so u, v from two minimal classes fail, and so does u = v
    # in a non-regular least class, since u*w*u J u makes it regular
    minimal = g.minimal_among(inside)
    if len(minimal) > 1 or not g.regular[minimal[0]]:
        raise NotIrreducible((g.j_classes[minimal[0]][0], g.j_classes[minimal[-1]][0]))
    top = minimal[0]
    fact = {b for b in range(S.n) if g.leq_j(top, g.j_class[b])}
    check(fact == A, "Fact(apex) differs from A", sorted(fact ^ A)[:2])
    return top


@dataclass
class SemigroupMorphism:
    source: FiniteSemigroup
    target: FiniteSemigroup
    mapping: tuple

    def __post_init__(self):
        self.mapping = tuple(self.mapping)
        if len(self.mapping) != self.source.n:
            raise ValueError(f"{len(self.mapping)} images for {self.source.n} elements")

    @classmethod
    def from_generator_map(cls, source, target, gen_images, check=True):
        """Extend generator images along witnesses; fails if not a morphism."""
        if len(gen_images) != len(source.generators):
            raise ValueError(f"{len(gen_images)} images for {len(source.generators)} generators")
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
    the given class, and checks the four conclusions: J' regular,
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
    target = set(gt.j_classes[j_target])

    # (1) unique minimal among source classes mapping into j_target
    into = {
        c for c, members in enumerate(gs.j_classes)
        if all(gt.j_class[phi(x)] == j_target for x in members)
    }
    check(j_prime in into, "lifted class maps into the target class", j_prime)
    check(all(gs.leq_j(j_prime, c) for c in into), "lifted class is the minimal one", j_prime)
    # (2) regular with exact image
    check(gs.regular[j_prime], "lifted class is regular", j_prime)
    image = {phi(s) for s in gs.j_classes[j_prime]}
    check(image == target, "lifted class maps onto the target class", j_prime)
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
            check(len(tids) == 1, "a class of J' maps into one class of J", cid)
            tid = tids.pop()
            full = {t for t in target if t_cls_of[t] == tid}
            check(img == full, "a class of J' maps onto a class of J", cid)
            covered.add(tid)
        expected = {t_cls_of[t] for t in gt.j_classes[j_target]}
        check(covered == expected, "the classes of J' cover those of J",
              sorted(expected - covered))
    # (4) idempotents map onto idempotents
    e_src = {phi(s) for s in gs.j_classes[j_prime] if S.is_idempotent(s)}
    e_tgt = {t for t in gt.j_classes[j_target] if T.is_idempotent(t)}
    check(e_src == e_tgt, "idempotents of J' map onto those of J", sorted(e_src ^ e_tgt)[:2])
    # maximal subgroups map onto maximal subgroups
    for s in gs.j_classes[j_prime]:
        if S.is_idempotent(s):
            hs = {phi(x) for x in gs.h_classes[gs.h_class[s]]}
            ht = set(gt.h_classes[gt.h_class[phi(s)]])
            check(hs == ht, "maximal subgroups map onto maximal subgroups", s)
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


def parse_semigroup(text):
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
    S = FiniteSemigroup(table, generators)
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
