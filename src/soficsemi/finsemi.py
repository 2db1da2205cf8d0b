"""Finite semigroups given by generators or by multiplication tables.

Elements are canonical indices 0..n-1.  Every semigroup is a closure of
packed carriers under Froidure-Pin's BFS (words compared by length first,
ties broken by generator position as listed in the input); a table is read
as its right regular representation and keeps its own numbering.  A
semigroup keeps the right Cayley graph as one column per generator plus the
BFS tree, from which an element's shortlex generator-word witness is spelled
on demand, and the BFS order as `_order` (a table's numbering may differ
from it), so each element comes after its witness-tree `_parent`.  Products
are gathers on the carriers' packed points; no |S|^2 table is kept.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial, reduce
from itertools import chain, compress, count, repeat
from operator import add, eq, itemgetter, or_

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

TABLE_LIMIT = 2000  # `format_semigroup` writes no larger table; bench/layers.py reads it
DEFAULT_CAP = 2_000_000  # element cap of a closure unless the caller passes one


# -- packed carriers ------------------------------------------------------


def pack_points(points, sentinel):
    """Packed points: `bytes` when the sentinel fits a byte, else a tuple.
    The tuple path alone would serve every size, but on the benchmark's
    `large` workload it took about a quarter more time and a fifth more
    memory than `bytes`."""
    return bytes(points) if sentinel <= 255 else tuple(points)


def right_table(images, sentinel):
    """A right table from the images of the points 0..sentinel-1, padded to
    the 256 entries of `bytes.translate` on the bytes path."""
    if sentinel <= 255:
        return bytes(images) + bytes([sentinel]) * (256 - sentinel)
    return (*images, sentinel)


def gatherer(b):
    """The product rule: packed points b times a right table is one C-level
    gather, `bytes.translate` or one `itemgetter` (which returns a lone
    item, not a 1-tuple, when it has a single index)."""
    if isinstance(b, bytes):
        return b.translate
    if len(b) == 1:
        (q,) = b
        return lambda table: (table[q],)
    return itemgetter(*b)


class PackedCarrier:
    """A carrier (a PartialTransformation here, a RowMonomialMatrix in
    `wreath`): a packed tuple `_b` of dim points in [0, N), N standing for
    "no point", over a context `_ctx` that fixes N with dim (None for a map,
    the entry semigroup for a matrix).

    Each kind gives `_right_table()`: the point of q*carrier for each point
    q, and N for N; and `_MISMATCH`, the message of a product whose factors
    differ in dim or context.  `_right()` builds the table on first use and
    keeps it in `_pad`, so x*y is one gather of x's points through y's
    table; `_square()` gives the packed points of x*x without keeping a
    table, and `_wrap(b)` makes a carrier of x's kind and context from
    packed points without validation (products of valid carriers are
    valid).  Carriers of different kinds are never equal, and their product
    is not defined.
    """

    __slots__ = ("_b", "_pad", "_ctx")

    def _wrap(self, b):
        new = object.__new__(type(self))
        new._b = b
        new._pad = None
        new._ctx = self._ctx
        return new

    def _right(self):
        if self._pad is None:
            self._pad = self._right_table()
        return self._pad

    def _square(self):
        return gatherer(self._b)(self._right_table())

    @property
    def dim(self):
        return len(self._b)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other._ctx is not self._ctx or len(other._b) != len(self._b):
            raise DimensionMismatch(self._MISMATCH)
        return self._wrap(gatherer(self._b)(other._right()))

    def __eq__(self, other):
        return type(other) is type(self) and other._ctx is self._ctx and other._b == self._b

    def __hash__(self):
        return hash(self._b)


class PartialTransformation(PackedCarrier):
    """Partial self-map of {0..dim-1}; the product x*y applies x first, then y.

    Point i is stored as its image, with dim standing for "undefined", so
    the right table is the images followed by dim.
    """

    __slots__ = ()
    _MISMATCH = "composing maps of different dimensions"

    def __init__(self, mapping, dim=None):
        mapping = tuple(mapping)
        if dim is None:
            dim = len(mapping)
        if len(mapping) != dim:
            raise DimensionMismatch(f"mapping has {len(mapping)} entries, dim is {dim}")
        for v in mapping:
            if v is not None and not (0 <= v < dim):
                raise DimensionMismatch(f"image {v} outside 0..{dim - 1}")
        self._b = pack_points((dim if v is None else v for v in mapping), dim)
        self._pad = None
        self._ctx = None

    def _right_table(self):
        return right_table(self._b, self.dim)

    @property
    def mapping(self):
        dim = self.dim
        return tuple(None if v == dim else v for v in self._b)

    def __call__(self, i):
        v = self._b[i]
        return None if v == self.dim else v

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


class Carriers:
    """The carriers of a closure as a read-only list: each is wrapped from
    its packed points when it is read, so the closure holds no carrier
    object per element.  Equal carriers have equal packed points, so
    `index` is one lookup in the closure's key index."""

    __slots__ = ("_keys", "_wrap", "_index")

    def __init__(self, keys, wrap, index):
        self._keys = keys
        self._wrap = wrap
        self._index = index

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._wrap, self._keys[i]))
        return self._wrap(self._keys[i])

    def __iter__(self):
        return map(self._wrap, self._keys)

    def __eq__(self, other):
        return list(self) == other

    def points(self, i):
        """Carrier i's packed points as a tuple, read without making the
        carrier (for a matrix, its `points`)."""
        return tuple(self._keys[i])

    def index(self, carrier):
        at = self._index.get(getattr(carrier, "_b", None))
        if at is None or self[at] != carrier:
            raise ValueError(f"{carrier!r} is not in the closure")
        return at


def _check_associative(table, generators):
    """Light's test: (x*a)*y = x*(a*y) for every generator a and all x, y.

    The elements a for which it holds are closed under products, so once
    the generators are known to generate, it holds for every a.
    """
    for a in generators:
        ta = table[a]
        for x, tx in enumerate(table):
            if [tx[v] for v in ta] != table[tx[a]]:
                y = next(y for y, v in enumerate(ta) if tx[v] != table[tx[a]][y])
                raise ValueError(f"table not associative at ({x},{a},{y})")


class FiniteSemigroup:
    """Finite semigroup on indices 0..n-1 with generator-word witnesses.

    One representation: a closure of packed carriers, kept as `_keys` and
    `_index` (packed points to index), whose products are gathers of keys
    looked up in the index.  A table given to the constructor is closed as
    its right regular representation (element s is its right translation)
    and keeps the table's numbering.  `names` optionally carries a payload
    per element (the carrier object the index stands for: a transformation,
    a matrix, an element of a larger semigroup, ...); a closure's `names`
    are `Carriers` over its keys, a table's are as given.  The right Cayley
    graph is kept as one column per generator, `_cols[j][x]` being x times
    generator j, and the witness tree as `_parent` and `_lastgen`: x is
    `_parent[x]` (None for a generator) times generator `_lastgen[x]`.
    """

    def __init__(self, table, generators=None, *, names=None, check=True):
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
        if check:
            _check_associative(table, generators)
        # element s is its right translation y -> y*s of S^1 on n + 1
        # points, point n standing for the identity: 1*s = s makes the action
        # faithful and point n of a packed key the element's own index
        closure = close_generators(
            [PartialTransformation([*(row[g] for row in table), g]) for g in generators])
        if closure.n != n:
            raise ValueError("generators do not generate the semigroup")
        # renumber the closure's BFS order to the table's numbering
        at = [key[n] for key in closure._keys]
        keys, parent, lastgen = [None] * n, [None] * n, [None] * n
        for x, key, p, j in zip(at, closure._keys, closure._parent, closure._lastgen):
            keys[x] = key
            parent[x] = None if p is None else at[p]
            lastgen[x] = j
        cols = [[row[g] for row in table] for g in generators]
        self._set_fields(keys, closure._wrap, dict(zip(closure._keys, at)), generators, cols,
                         parent, lastgen, at, list(names) if names is not None else None)

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_closure(cls, keys, wrap, cols, gen_elts, parent, lastgen, index):
        """A closure from its elements' packed points in BFS order, the
        carrier wrapper `wrap` of their kind, and its Cayley graph."""
        self = object.__new__(cls)
        self._set_fields(keys, wrap, index, gen_elts, cols, parent, lastgen,
                         range(len(keys)), Carriers(keys, wrap, index))
        return self

    def _set_fields(self, keys, wrap, index, generators, cols, parent, lastgen, order, names):
        self.n = len(keys)
        self.names = names
        self._keys = keys
        self._wrap = wrap
        self._index = index
        self._rights = {}
        self.generators = list(generators)
        self._cols = cols
        self._parent = parent
        self._lastgen = lastgen
        self._order = order
        self.zero = self._find_zero()
        self.identity = self._find_identity()
        self._green = None
        self._aggm = None
        self._r0_action = None  # (R-class id, its right action), for the AGGM test

    # -- basic operations -------------------------------------------------

    def __len__(self):
        return self.n

    def mul(self, x, y):
        """x*y: one gather of x's packed points through y's right table
        (kept per right factor), looked up in the key index."""
        table = self._rights.get(y)
        if table is None:
            table = self._rights[y] = self._wrap(self._keys[y])._right_table()
        return self._index[gatherer(self._keys[x])(table)]

    def is_idempotent(self, x):
        """Whether x*x = x: whether the square of x's packed points, in
        O(points) and with no right table, is those points."""
        b = self._keys[x]
        return self._wrap(b)._square() == b

    def _fold(self, starts, steps):
        """Per element x, a value folded along the witness tree: starts[j]
        for generator j, and steps[j](v) for x = p * generator j, v being
        p's value.  The one walk over `_order`."""
        parent, lastgen = self._parent, self._lastgen
        out = [None] * self.n
        for x in self._order:
            p = parent[x]
            out[x] = starts[lastgen[x]] if p is None else steps[lastgen[x]](out[p])
        return out

    def left_row(self, g):
        """Row of left multiplication by element g: [g*x for x in S], one
        Cayley lookup per element along the witness tree."""
        return self._fold([col[g] for col in self._cols], [col.__getitem__ for col in self._cols])

    # The actions on a point set: per element s, the packed positions
    # (`pack_points`) in points of x*s or s*x for x in points, the sentinel
    # len(points) standing for a product outside points.  A product that
    # leaves points must never come back: so it is for all of S, for an
    # R-class on the right and for an L-class on the left (by stability).

    def right_action(self, points):
        """The right action on points: x*(p*g) = (x*p)*g, so the positions
        of s are one gather of p's through g's fixed position table."""
        m, pos = len(points), {x: i for i, x in enumerate(points)}
        images = [[pos.get(col[x], m) for x in points] for col in self._cols]
        return self._fold([pack_points(im, m) for im in images],
                          [lambda b, t=right_table(im, m): gatherer(b)(t) for im in images])

    def left_action(self, points):
        """The left action on points: (p*g)*x = p*(g*x), so the positions of
        s are g's positions gathered through p's."""
        m, pos = len(points), {x: i for i, x in enumerate(points)}
        images = [pack_points([pos.get(self.mul(g, x), m) for x in points], m)
                  for g in self.generators]
        return self._fold(images, [lambda b, gather=gatherer(im): gather(right_table(b, m))
                                   for im in images])

    def same_table(self, other):
        """Whether other has this multiplication table, read off the
        generators and the right Cayley graph (they determine every product)
        in O(|S| * k)."""
        return self is other or (
            self.generators == other.generators and self._cols == other._cols
        )

    def eval_word(self, word):
        """Evaluate a word of generator positions."""
        word = list(word)
        if not word:
            raise ValueError("empty word")
        cur = self.generators[word[0]]
        for j in word[1:]:
            cur = self._cols[j][cur]
        return cur

    def word(self, x):
        """The shortlex witness word of x, as generator positions, spelled
        from the witness tree."""
        word = []
        while x is not None:
            word.append(self._lastgen[x])
            x = self._parent[x]
        return tuple(reversed(word))

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

    def _right_solutions(self, images):
        """The elements x, ascending, with x*g = images[j][x] for each
        generator g at position j: one C-level comparison per column."""
        n = self.n
        hits = [set(compress(range(n), map(eq, col, want)))
                for col, want in zip(self._cols, images)]
        return sorted(set.intersection(*hits)) if hits else []

    def _find_zero(self):
        # a zero is the only left zero (z*s = z for all s), and a lone left
        # zero z is a zero, since every s*z is again a left zero
        left_zeros = self._right_solutions([range(self.n)] * len(self.generators))
        return left_zeros[0] if len(left_zeros) == 1 else None

    def _find_identity(self):
        gelts = self.generators
        return next((e for e in self._right_solutions([repeat(g) for g in gelts])
                     if all(self.mul(g, e) == g for g in gelts)), None)

    def green(self):
        if self._green is None:
            self._green = green_structure(self)
        return self._green

    def word_letters(self, x, letters):
        """Witness word of x spelled with the given generator labels."""
        return tuple(letters[j] for j in self.word(x))

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n}, gens={len(self.generators)})"


def close_generators(gens, cap=DEFAULT_CAP):
    """Close a list of packed carriers (transformations, matrices) under *.

    Froidure-Pin's right-Cayley BFS by shortlex generator words, run on the
    packed points: an element's successors are one gather of its points
    through each generator's right table, looked up as `bytes` or tuples in
    the key index and appended to that generator's Cayley column.  Every
    element, generators included, counts against `cap`.  A zero generator
    (its right table sends every point to the sentinel, and so does its own
    key: the empty map, the zero matrix) sends every element to itself, so
    its column is filled after the BFS with no gather and no lookup.
    Returns a FiniteSemigroup that keeps the packed points and wraps a
    carrier only when `names` is read.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    for g in gens:  # what a product checks, checked once
        if (type(g), g._ctx, g.dim) != (type(first), first._ctx, first.dim):
            raise DimensionMismatch("generators differ in kind, dimension or entries")
    tables = [g._right() for g in gens]
    index = {}
    keys = []
    parent = []
    lastgen = []
    gen_elts = []
    for j, g in enumerate(gens):
        at = index.get(g._b)
        if at is None:
            at = len(keys)
            if at >= cap:
                raise CapExceeded(cap, "element closure")
            index[g._b] = at
            keys.append(g._b)
            parent.append(None)
            lastgen.append(j)
        gen_elts.append(at)
    cols = [[] for _ in gens]
    zeros = [j for j, (g, table) in enumerate(zip(gens, tables))
             if set(table) == {table[-1]} == set(g._b)]  # the last entry is the sentinel's
    steps = [(j, step) for j, step in enumerate(zip(tables, cols)) if j not in zeros]
    for head, x in enumerate(keys):  # keys grows while it is walked
        gather = gatherer(x)
        for j, (table, col) in steps:
            y = gather(table)
            at = index.get(y)
            if at is None:
                at = len(keys)
                if at >= cap:
                    raise CapExceeded(cap, "element closure")
                index[y] = at
                keys.append(y)
                parent.append(head)
                lastgen.append(j)
            col.append(at)
    for j in zeros:
        cols[j] = [gen_elts[j]] * len(keys)
    return FiniteSemigroup._from_closure(keys, first._wrap, cols, gen_elts, parent, lastgen, index)


# -- Green's relations --------------------------------------------------


class GreenStructure:
    """R/L/J/H partitions, the J-order, and per-J-class regularity.  H, which
    the eggbox and the AGGM check do not read, is derived on first read."""

    _FIELDS = ("r_class", "l_class", "j_class", "r_classes", "l_classes", "j_classes",
               "j_below", "regular", "anchors", "h_class", "h_classes")  # compared by __eq__

    def __init__(self, r_class, l_class, j_class, r_classes, l_classes, j_classes,
                 j_below, regular, anchors):
        self.r_class = r_class
        self.l_class = l_class
        self.j_class = j_class
        self.r_classes = r_classes
        self.l_classes = l_classes
        self.j_classes = j_classes
        self.j_below = j_below  # per J-class id c, the bitmask of the class ids <=_J c (bit c set)
        self.regular = regular
        self.anchors = anchors  # per J-class id, its least idempotent, None when not regular

    @cached_property
    def h_class(self):
        """H = R meet L: the (R, L) pairs, as one int each, numbered by
        least member."""
        pairs = list(map(add, map(len(self.l_classes).__mul__, self.r_class), self.l_class))
        ids = dict.fromkeys(pairs)
        ids.update(zip(ids, count()))
        return tuple(map(ids.__getitem__, pairs))

    @cached_property
    def h_classes(self):
        """Per H-class id its members, ascending: one stable sort of the
        elements by id, cut into one slice per class where the ids change."""
        order = tuple(sorted(range(len(self.h_class)), key=self.h_class.__getitem__))
        ids = list(map(self.h_class.__getitem__, order))
        bounds = list(map(partial(bisect_left, ids), range(ids[-1] + 2)))
        return tuple(map(order.__getitem__, map(slice, bounds, bounds[1:])))

    def h_members(self, x):
        """The H-class of x, ascending: R_x meet L_x, with no H-class built
        for the other elements."""
        return tuple(sorted(set(self.r_classes[self.r_class[x]])
                            .intersection(self.l_classes[self.l_class[x]])))

    def __eq__(self, other):
        return (isinstance(other, GreenStructure)
                and all(getattr(self, name) == getattr(other, name) for name in self._FIELDS))

    def leq_j(self, a, b):
        """a <=_J b on J-class ids."""
        return (self.j_below[b] >> a) & 1 == 1

    def minimal_among(self, ids):
        """The <=_J-minimal class ids among the given class ids, ascending."""
        ids = sorted(set(ids))
        mask = sum(1 << c for c in ids)
        return [c for c in ids if (self.j_below[c] & mask) == 1 << c]

    def zero_minimal_j_classes(self, zero):
        """The J-classes whose only class strictly below is the zero's."""
        return self.minimal_among(set(range(len(self.j_classes))) - {self.j_class[zero]})

    def anchor(self, c):
        """The least idempotent of J-class c, the base point of its actions."""
        if self.anchors[c] is None:
            raise NotRegular(f"J-class {c} is not regular")
        return self.anchors[c]


def _classes_within(cols, labels):
    """The classes of the walk along `cols` that never leaves a label; it
    walks any labelling: image components on the right Cayley columns give
    the R-classes, J-classes on the left rows the L-classes (by stability).
    Walking from each unlabelled node in increasing order starts every class
    at its least member, so the numbering is the one `sccs` gives.
    """
    n = len(labels)
    cls = [None] * n
    classes = []
    for x in range(n):
        if cls[x] is not None:
            continue
        c, label = len(classes), labels[x]
        cls[x] = c
        members = [x]
        for v in members:  # grows while it is walked
            for col in cols:
                w = col[v]
                if cls[w] is None and labels[w] == label:
                    cls[w] = c
                    members.append(w)
        members.sort()
        classes.append(tuple(members))
    return tuple(cls), tuple(classes)


def green_structure(S):
    """Green's relations with no search over all elements.  R: with im(x)
    the set of x's packed points without the sentinel, x R x*g exactly when
    im(x)*g lies in the strongly connected component of im(x) in the orbit
    of images under the generators' right tables (if im(x)*g*t = im(x),
    then g*t permutes im(x) and a power of it fixes x).  J = D: R is a left
    congruence, so J-classes are the components of the R-quotient under the
    left edges of one member per R-class.  L by stability inside J; the
    J-order and regularity are passes over class representatives."""
    right = S._cols
    left = [S.left_row(g) for g in S.generators]

    tables = [S._wrap(S._keys[g])._right_table() for g in S.generators]
    sentinel = (tables[0][-1],)
    starts = [frozenset(S._keys[g]).difference(sentinel) for g in S.generators]
    orbit = list(dict.fromkeys(starts))
    at = {im: i for i, im in enumerate(orbit)}
    moves = [[] for _ in tables]
    for im in orbit:  # grows while it is walked
        for table, move in zip(tables, moves):
            im_g = frozenset(map(table.__getitem__, im)).difference(sentinel)
            if im_g not in at:
                at[im_g] = len(orbit)
                orbit.append(im_g)
            move.append(at[im_g])
    comp = sccs(len(orbit), list(zip(*moves)).__getitem__)[0]
    image = S._fold(list(map(at.__getitem__, starts)), [move.__getitem__ for move in moves])
    r_class, r_classes = _classes_within(right, list(map(comp.__getitem__, image)))

    r_reps = list(map(itemgetter(0), r_classes))
    heads = [list(map(r_class.__getitem__, map(row.__getitem__, r_reps))) for row in left]
    j_of_r, j_r_classes, _ = sccs(len(r_reps), list(zip(*heads)).__getitem__)
    j_class = tuple(map(j_of_r.__getitem__, r_class))
    j_classes = tuple(tuple(sorted(chain.from_iterable(map(r_classes.__getitem__, ids))))
                      for ids in j_r_classes)
    l_class, l_classes = _classes_within(left, j_class)

    # the J-order as bitmasks, folded over the J-quotient sinks first.  L is
    # a right congruence, so the right edges of one member per L-class and
    # the left edges of the R-quotient reach every class that the edges of
    # all members reach
    to_class = j_class.__getitem__
    edges = set(chain.from_iterable(zip(j_of_r, map(j_of_r.__getitem__, head)) for head in heads))
    reps = list(map(itemgetter(0), l_classes))
    tails = list(map(to_class, reps))
    for col in right:
        edges.update(zip(tails, map(to_class, map(col.__getitem__, reps))))
    succ = [[] for _ in j_classes]
    for c, d in edges:
        succ[c].append(d)
    j_below = [0] * len(j_classes)
    for c in sccs(len(j_classes), succ.__getitem__)[2]:
        j_below[c] = reduce(or_, map(j_below.__getitem__, succ[c]), 1 << c)

    # a J-class with least member a is regular iff b*a stays in it for some b,
    # one per L-class: by Clifford-Miller and stability b*a lies in J iff
    # L_b n R_a holds an idempotent, and R_a holds one iff J is regular.  Every
    # probe of a class multiplies by a, so it needs one right table.  A
    # regular class's anchor is its least idempotent, found by scanning its
    # members in ascending order
    l_reps = [[] for _ in j_classes]
    for b, c in zip(reps, tails):
        l_reps[c].append(b)
    regular = tuple(any(j_class[S.mul(b, members[0])] == c for b in bs)
                    for c, (members, bs) in enumerate(zip(j_classes, l_reps)))
    anchors = tuple(next(filter(S.is_idempotent, members)) if reg else None
                    for members, reg in zip(j_classes, regular))

    return GreenStructure(
        r_class=r_class,
        l_class=l_class,
        j_class=j_class,
        r_classes=r_classes,
        l_classes=l_classes,
        j_classes=j_classes,
        j_below=tuple(j_below),
        regular=regular,
        anchors=anchors,
    )


def maximal_subgroup(S, e):
    """The H-class of an idempotent e as a group; `names` are S-element ids."""
    if not S.is_idempotent(e):
        raise NotIdempotent(f"element {e} is not idempotent")
    g = S.green()
    members = g.h_members(e)
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
    inside_mask = sum(1 << c for c in inside)
    # factorial: every factor (J-above element) of a member is a member
    for c, below in enumerate(g.j_below):
        if below & inside_mask:
            b = next((b for b in g.j_classes[c] if b not in A), None)
            if b is not None:
                raise NotFactorial((min(a for a in A if g.leq_j(g.j_class[a], c)), b))
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


class SemigroupMorphism:
    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.n:
            raise ValueError(f"{len(self.mapping)} images for {source.n} elements")

    @classmethod
    def from_generator_map(cls, source, target, gen_images, check=True):
        """Extend generator images along witnesses; fails if not a morphism.
        Where an image is a generator of the target, the step reads the
        target's Cayley column instead of multiplying."""
        if len(gen_images) != len(source.generators):
            raise ValueError(f"{len(gen_images)} images for {len(source.generators)} generators")
        col_of = dict(zip(target.generators, target._cols))
        steps = [col_of[g].__getitem__ if g in col_of else partial(target.mul, y=g)
                 for g in gen_images]
        m = cls(source, target, source._fold(list(gen_images), steps))
        if check:
            m.validate()
        return m

    def validate(self):
        """m is a morphism iff m(x*g) = m(x)*m(g) for every x and generator g,
        by induction on y's witness word (x*(p*g) = (x*p)*g), so the Cayley
        columns decide it in O(|S| * k).  A failure names its pair (x, g)."""
        s, t, m = self.source, self.target, self.mapping
        for g, col in zip(s.generators, s._cols):
            for x, xg in enumerate(col):
                if m[xg] != t.mul(m[x], m[g]):
                    raise ValueError(f"not a morphism at ({x},{g})")

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
    target = gt.j_classes[j_target]

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
    check(image == set(target), "lifted class maps onto the target class", j_prime)
    # (3) each R/L/H-class of J' maps onto a class of J, covering all of them
    for cls_of, classes_of, t_cls_of in (
        (gs.r_class, gs.r_classes, gt.r_class),
        (gs.l_class, gs.l_classes, gt.l_class),
        (gs.h_class, gs.h_classes, gt.h_class),
    ):
        full = {}  # class id -> its members in J
        for t in target:
            full.setdefault(t_cls_of[t], set()).add(t)
        source_ids = {cls_of[s] for s in gs.j_classes[j_prime]}
        covered = set()
        for cid in source_ids:
            img = {phi(x) for x in classes_of[cid]}
            tids = {t_cls_of[t] for t in img}
            check(len(tids) == 1, "a class of J' maps into one class of J", cid)
            tid = tids.pop()
            check(img == full.get(tid), "a class of J' maps onto a class of J", cid)
            covered.add(tid)
        check(covered == full.keys(), "the classes of J' cover those of J",
              sorted(full.keys() - covered))
    # (4) idempotents map onto idempotents
    e_src = {phi(s) for s in gs.j_classes[j_prime] if S.is_idempotent(s)}
    e_tgt = {t for t in gt.j_classes[j_target] if T.is_idempotent(t)}
    check(e_src == e_tgt, "idempotents of J' map onto those of J", sorted(e_src ^ e_tgt)[:2])
    # maximal subgroups map onto maximal subgroups
    for s in gs.j_classes[j_prime]:
        if S.is_idempotent(s):
            hs = {phi(x) for x in gs.h_members(s)}
            ht = set(gt.h_members(phi(s)))
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
    if n < 1 or k < 1:
        raise ValueError(f"header '{' '.join(lines[0])}' needs n >= 1 and k >= 1")
    if len(lines) < n + 2:
        raise ValueError("truncated semigroup file")
    table = []
    for i in range(1, n + 1):
        row = [int(v) for v in lines[i]]
        if len(row) != n:
            raise ValueError(f"table row {i - 1} has {len(row)} entries")
        table.append(row)
    found = {}
    for parts in lines[n + 1:]:
        key = parts[0]
        if key not in ("generators", "zero", "identity"):
            raise ValueError(f"unknown line {' '.join(parts)}")
        if key in found:
            raise ValueError(f"repeated '{key}' line")
        if key != "generators" and len(parts) != 2:
            raise ValueError(f"expected '{key} <element>'")
        found[key] = [int(v) for v in parts[1:]]
    generators = found.get("generators")
    if generators is None:
        raise ValueError("missing generators line")
    if len(generators) != k:
        raise ValueError("generator count does not match header")
    zero, identity = (found[key][0] if key in found else None for key in ("zero", "identity"))
    S = FiniteSemigroup(table, generators)
    if zero is not None and S.zero != zero:
        raise ValueError("declared zero is not a zero")
    if identity is not None and S.identity != identity:
        raise ValueError("declared identity is not an identity")
    return S


def format_semigroup(S):
    if S.n > TABLE_LIMIT:
        raise MemoryError(f"refusing to write the {S.n}x{S.n} table")
    out = [f"semigroup {S.n} {len(S.generators)}"]
    # column y of the table is the right action of y on all of S
    for row in zip(*S.right_action(range(S.n))):
        out.append(" ".join(str(v) for v in row))
    out.append("generators " + " ".join(str(g) for g in S.generators))
    if S.zero is not None:
        out.append(f"zero {S.zero}")
    if S.identity is not None:
        out.append(f"identity {S.identity}")
    return "\n".join(out) + "\n"
