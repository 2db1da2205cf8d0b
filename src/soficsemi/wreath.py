"""Schutzenberger and RLM representations, Rees coordinates, row-monomial
wreath products, and the group-cover construction with full verification.

Wreath products are carried by one row-monomial matrix type whose entries
index a tabled entry semigroup: a group for a single wreath product, and for
the iterated one of the cover the closed semigroup T of row-monomial blocks,
whose zero block kills a row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CheckFailed,
    DimensionMismatch,
    HypothesisViolated,
    NotFaithful,
    NotIdempotent,
    NotTransitive,
    PrimeSearchFailed,
    RankTooHigh,
    check,
)
from .finsemi import (
    DEFAULT_CAP,
    FiniteSemigroup,
    PartialTransformation,
    SemigroupMorphism,
    close_generators,
    gatherer,
    group_inverse,
    maximal_subgroup,
    omega_exponent,
    omega_power,
    pack_points,
    right_table,
)


class EntrySemigroup:
    """The entries of row-monomial matrices: a finite semigroup with its table.

    `columns[t][s]` is the index of s*t, `names` the carrier of each index
    and `dead` the index that stands for 0: None over a group, whose entries
    never vanish, and the zero block when the entries are themselves blocks.
    """

    __slots__ = ("semigroup", "names", "columns", "dead")

    def __init__(self, semigroup, dead=None):
        self.semigroup = semigroup
        self.names = semigroup.names
        self.columns = semigroup.right_action(range(semigroup.n))
        self.dead = dead


class RowMonomialMatrix:
    """Square p x p matrix with at most one non-zero entry per row, entries
    indexing an EntrySemigroup E.

    A packed carrier like `PartialTransformation`: a row with entry t in
    column c is the point c*|E| + t of [p] x E, a zero row the sentinel
    p*|E|.  The matrix acts on the right of [p] x E by (c, t) -> (column
    of row c, t * entry of row c), and sends (c, t) to the sentinel when
    row c is zero or the entry product is the dead index (Rhodes and
    Steinberg, The q-theory of Finite Semigroups, wreath products).  That
    action is its right table, so a product is one gather.  `rows` decodes
    the (column, entry index) pairs on demand.  Only the public constructor
    validates; products of valid matrices are valid.
    """

    __slots__ = ("entries", "_b", "_pad")

    def __init__(self, entries, rows):
        rows = tuple(rows)
        n, p = len(entries.columns), len(rows)
        points = []
        for r in rows:
            if r is None:
                points.append(p * n)
                continue
            c, t = r
            if not (0 <= c < p and 0 <= t < n) or t == entries.dead:
                raise DimensionMismatch(f"row {r} out of range or dead")
            points.append(c * n + t)
        self.entries = entries
        self._b = pack_points(points, p * n)
        self._pad = None

    def _wrap(self, b):
        new = object.__new__(RowMonomialMatrix)
        new.entries = self.entries
        new._b = b
        new._pad = None
        return new

    def _right(self):
        if self._pad is None:
            entries = self.entries
            n, dead = len(entries.columns), entries.dead
            sentinel = len(self._b) * n
            images = []
            for q in self._b:
                if q == sentinel:
                    images += [sentinel] * n
                else:
                    c, t = divmod(q, n)
                    images += [sentinel if s == dead else c * n + s for s in entries.columns[t]]
            self._pad = right_table(images, sentinel)
        return self._pad

    @property
    def dim(self):
        return len(self._b)

    @property
    def points(self):
        """Per row, its point of [p] x E or the sentinel; `point_tables`
        reads them."""
        return tuple(self._b)

    def point_tables(self):
        """Per point of [p] x E and then the sentinel, its column and its
        entry index, both None for the sentinel."""
        n, p = len(self.entries.columns), len(self._b)
        columns = [c for c in range(p) for _ in range(n)] + [None]
        return columns, [*range(n)] * p + [None]

    @property
    def rows(self):
        n = len(self.entries.columns)
        sentinel = len(self._b) * n
        return tuple(None if q == sentinel else divmod(q, n) for q in self._b)

    @classmethod
    def zero(cls, entries, size):
        return cls(entries, (None,) * size)

    @classmethod
    def diagonal(cls, entries, values):
        return cls(entries, tuple(enumerate(values)))

    def __mul__(self, other):
        if not isinstance(other, RowMonomialMatrix):
            return NotImplemented
        if other.entries is not self.entries or len(other._b) != len(self._b):
            raise DimensionMismatch("matrices differ in size or entry semigroup")
        return self._wrap(gatherer(self._b)(other._right()))

    def __eq__(self, other):
        return (
            isinstance(other, RowMonomialMatrix)
            and self.entries is other.entries
            and self._b == other._b
        )

    def __hash__(self):
        return hash(self._b)

    def __repr__(self):
        body = ";".join("-" if r is None else f"{r[0]}:{r[1]}" for r in self.rows)
        return f"RM[{body}]"

    def is_zero(self):
        return all(r is None for r in self.rows)

    def entry(self, i, j):
        r = self.rows[i]
        if r is not None and r[0] == j:
            return r[1]
        return None

    def block(self, i, j):
        """The carrier of entry (i, j), None where it is 0."""
        t = self.entry(i, j)
        return None if t is None else self.entries.names[t]

    def support(self):
        return PartialTransformation(
            tuple(None if r is None else r[0] for r in self.rows), self.dim
        )

    def map_entries(self, func, entries):
        return RowMonomialMatrix(
            entries, tuple(None if r is None else (r[0], func(r[1])) for r in self.rows)
        )

    def rotate(self, shift):
        """Conjugate by the cyclic renaming j -> (j - shift) mod size."""
        p = self.dim
        rows = [None] * p
        for i, r in enumerate(self.rows):
            if r is not None:
                c, t = r
                rows[(i - shift) % p] = ((c - shift) % p, t)
        return RowMonomialMatrix(self.entries, rows)


# -- representations on a regular J-class --------------------------------


@dataclass
class SchutzenbergerAction:
    """Right action of S on a fixed R-class of a regular J-class."""

    domain: tuple  # R-class elements, sorted
    maps: list  # per S element, a PartialTransformation of the domain
    image: FiniteSemigroup
    morphism: SemigroupMorphism
    faithful: bool


def rm_representation(S, j_id, r_class_of=None):
    g = S.green()
    anchor = g.anchor(j_id)
    if r_class_of is not None:
        anchor = r_class_of
        if g.j_class[anchor] != j_id:
            raise ValueError(f"element {anchor} is not in J-class {j_id}")
    members = g.r_classes[g.r_class[anchor]]
    pos = {x: i for i, x in enumerate(members)}
    maps = [PartialTransformation(tuple(map(pos.get, act)), len(members))
            for act in S.right_action(members)]
    image = close_generators([maps[s] for s in S.generators])
    lut = {m: i for i, m in enumerate(image.names)}
    morphism = SemigroupMorphism(S, image, tuple(lut[maps[s]] for s in range(S.n)))
    for e in g.j_classes[j_id]:
        if S.is_idempotent(e):
            h = g.h_classes[g.h_class[e]]
            check(len({maps[x] for x in h}) == len(h),
                  "the action is injective on every maximal subgroup of J", e)
    faithful = len(set(maps)) == S.n
    _check_image_faithful(image, morphism, g, j_id)
    return SchutzenbergerAction(members, maps, image, morphism, faithful)


def _check_image_faithful(image, morphism, g, j_id):
    """rho_J(J) is a regular J-class of the image and the action of the image
    on one of its R-classes is again faithful."""
    gi = image.green()
    img_elems = {morphism(x) for x in g.j_classes[j_id]}
    classes = {gi.j_class[y] for y in img_elems}
    check(len(classes) == 1, "rho_J(J) lies in one J-class of the image", sorted(classes))
    jbar = classes.pop()
    check(gi.regular[jbar], "rho_J(J) is a regular J-class of the image", jbar)
    members = gi.r_classes[gi.r_class[gi.anchor(jbar)]]
    pos = {y: i for i, y in enumerate(members)}
    first = {}
    for s, act in enumerate(image.right_action(members)):
        check(first.setdefault(tuple(map(pos.get, act)), s) == s,
              "Schutzenberger representation of the image not faithful", s)


@dataclass
class RlmAction:
    """Action of S on the L-classes of a regular J-class."""

    b_order: tuple  # L-class ids of S.green(), anchor class first
    l_elements: tuple  # per B index, the elements of that L-class
    maps: list
    image: FiniteSemigroup
    morphism: SemigroupMorphism


def rlm_representation(S, j_id, first_of=None):
    g = S.green()
    anchor = g.anchor(j_id)
    if first_of is not None:
        anchor = first_of
    l_ids = sorted(
        {g.l_class[x] for x in g.j_classes[j_id]},
        key=lambda c: (c != g.l_class[anchor], min(g.l_classes[c])),
    )
    # the action on J's elements, grouped by L-class; an L-class outside J
    # has no B index, so a product that leaves J gets None
    b_pos = {c: i for i, c in enumerate(l_ids)}
    points = [x for c in l_ids for x in g.l_classes[c]]
    ends = list(itertools.accumulate(len(g.l_classes[c]) for c in l_ids))
    spans = list(zip(l_ids, [0] + ends, ends))
    maps = []
    for s, act in enumerate(S.right_action(points)):
        b = [b_pos.get(g.l_class[y]) for y in act]
        row = []
        for c, lo, hi in spans:
            targets = set(b[lo:hi])
            check(len(targets) == 1, "RLM action not well defined", (c, s))
            row.append(targets.pop())
        maps.append(PartialTransformation(tuple(row), len(l_ids)))
    image = close_generators([maps[s] for s in S.generators])
    lut = {m: i for i, m in enumerate(image.names)}
    morphism = SemigroupMorphism(S, image, tuple(lut[maps[s]] for s in range(S.n)))
    for x in g.j_classes[j_id]:
        check(maps[x].rank <= 1, "elements of J must act with rank at most 1", x)
    return RlmAction(
        tuple(l_ids),
        tuple(tuple(g.l_classes[c]) for c in l_ids),
        maps,
        image,
        morphism,
    )


# -- Rees coordinates -----------------------------------------------------


@dataclass
class ReesCoordinates:
    """Normalized coordinates J^0 ~ M^0(G, A, B, C)."""

    group: FiniteSemigroup  # maximal subgroup at e0; names are S-elements
    a_ids: tuple  # R-class ids, e0's first
    b_ids: tuple  # L-class ids, e0's first
    sandwich: tuple  # C[b][a]: group element index or None
    a0: int
    b0: int
    e0: int
    coord: dict  # S-element -> (a, g, b)
    decoord: dict  # (a, g, b) -> S-element
    u: tuple  # row representatives, u[a] in R_a meet L_{e0}
    v: tuple  # column representatives, v[b] in L_b meet R_{e0}


def rees_coordinates(S, j_id, idempotent=None):
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
    # multiplication agrees with the Rees product
    for x in j_elems:
        ax, gx, bx = coord[x]
        for y in j_elems:
            ay, gy, by = coord[y]
            z = S.mul(x, y)
            link = sandwich[bx][ay]
            if link is None:
                ok = z not in jset
            else:
                ok = z in jset and coord[z] == (ax, group.mul(group.mul(gx, link), gy), by)
            if not ok:
                raise CheckFailed("multiplication in J agrees with the Rees product", (x, y))
    return ReesCoordinates(
        group=group,
        a_ids=tuple(a_ids),
        b_ids=tuple(b_ids),
        sandwich=sandwich,
        a0=0,
        b0=0,
        e0=e0,
        coord=coord,
        decoord=decoord,
        u=tuple(u),
        v=tuple(v),
    )


# -- wreath embedding -----------------------------------------------------


@dataclass
class WreathEmbedding:
    """S embedded in K wr (B, RLM_J(S)) as row-monomial matrices over K^0."""

    rees: ReesCoordinates
    entries: EntrySemigroup  # K, the entries of every matrix
    matrices: list  # per S element
    lookup: dict  # matrix -> S element

    @property
    def group(self):
        return self.rees.group


def wreath_embed(S, j_id, idempotent=None):
    rees = rees_coordinates(S, j_id, idempotent)
    K = rees.group
    entries = EntrySemigroup(K)
    coord = rees.coord
    mats = []
    for s, act in enumerate(S.right_action(rees.v)):
        rows = []
        for bi, y in enumerate(act):
            if y in coord:
                a, k, b2 = coord[y]
                check(a == rees.a0, "v[b] * s stays in the R-class of e0", (bi, s))
                rows.append((b2, k))
            else:
                rows.append(None)
        mats.append(RowMonomialMatrix(entries, rows))
    if len(set(mats)) != S.n:
        raise NotFaithful("Schutzenberger representation on the R-class is not faithful")
    lookup = {m: s for s, m in enumerate(mats)}
    for x in range(S.n):
        mx, row = mats[x], S.left_row(x)
        for y in range(S.n):
            if mx * mats[y] != mats[row[y]]:
                raise CheckFailed("the embedding is multiplicative", (x, y))
    # action reading: matrices act exactly as right multiplication in coordinates
    g = S.green()
    r0 = g.r_classes[g.r_class[rees.e0]]
    for s, act in enumerate(S.right_action(r0)):
        rows = mats[s].rows
        for x, y in zip(r0, act):
            _, gx, bx = coord[x]
            row = rows[bx]
            if y in coord:
                ok = row is not None and coord[y] == (rees.a0, K.mul(gx, row[1]), row[0])
            else:
                ok = row is None
            if not ok:
                raise CheckFailed("matrices act as right multiplication in coordinates", (x, s))
    # maximal-subgroup normal form: column b0 carries the group element
    for ki, k_elt in enumerate(K.names):
        m = mats[k_elt]
        check(all(row is None or row == (rees.b0, ki) for row in m.rows)
              and m.entry(rees.b0, rees.b0) == ki,
              "a maximal-subgroup element sits in column b0 as its own entry", k_elt)
    return WreathEmbedding(rees, entries, mats, lookup)


# -- wreath products with a fixed transformation part ---------------------


@dataclass
class WreathStructure:
    kind: str  # "simple" or "0-simple"
    semigroup: FiniteSemigroup  # names are RowMonomialMatrix
    idempotent: int
    column: int
    psi: dict  # subgroup element -> group element index
    subgroup: FiniteSemigroup


def wreath_product_0simple_check(G, transformations):
    """Build G wr (B, T) for T of rank <= 1 and verify the structure lemma:
    simple when T is total, 0-simple otherwise, with maximal subgroup G read
    off by the (b, b) entry at an idempotent with image {b}."""
    T = list(transformations)
    if not T:
        raise HypothesisViolated("T", "T must be non-empty")
    bsize = T[0].dim
    tset = set(T)
    for t in T:
        if t.rank > 1:
            raise RankTooHigh(f"{t} has rank {t.rank}")
        for s in T:
            if t * s not in tset:
                raise HypothesisViolated("T", f"T is not closed under composition at {t} * {s}")
    for src in range(bsize):
        for dst in range(bsize):
            if not any(t(src) == dst for t in T):
                raise NotTransitive(f"no map sends {src} to {dst}")
    entries = EntrySemigroup(G)
    elements = []
    def _tkey(t):
        return tuple(-1 if v is None else v for v in t.mapping)
    for t in sorted(tset, key=_tkey):
        dom = sorted(t.domain())
        for values in itertools.product(range(G.n), repeat=len(dom)):
            rows = [None] * bsize
            for i, val in zip(dom, values):
                rows[i] = (t(i), val)
            elements.append(RowMonomialMatrix(entries, rows))
    S = close_generators(elements)
    check(S.n == len(elements), "preimage of T is closed under products", S.n)
    g = S.green()
    if all(t.is_total() for t in tset):
        check(len(g.j_classes) == 1, "wreath over total maps must be simple", len(g.j_classes))
        kind, top = "simple", 0
    else:
        check(S.zero is not None and len(g.j_classes) == 2, "wreath must be 0-simple",
              len(g.j_classes))
        top = [c for c in range(2) if S.zero not in g.j_classes[c]][0]
        check(g.regular[top], "the non-zero J-class of the wreath is regular", top)
        kind = "0-simple"
    e = g.anchor(top)
    image = S.names[e].support().image()
    check(len(image) == 1, "the least idempotent has a one-point image", sorted(image))
    col = image.pop()
    sub = maximal_subgroup(S, e)
    psi = {}
    for x in sub.names:
        val = S.names[x].entry(col, col)
        check(val is not None, "the subgroup carries an entry at (b, b)", x)
        psi[x] = val
    check(len(set(psi.values())) == G.n == len(psi), "psi must be a bijection", len(psi))
    for x in sub.names:
        for y in sub.names:
            check(psi[S.mul(x, y)] == G.mul(psi[x], psi[y]), "psi must be multiplicative", (x, y))
    return WreathStructure(kind, S, e, col, psi, sub)


# -- the cover construction ----------------------------------------------


@dataclass
class CoverResult:
    """Verified output of the cover construction."""

    s_prime: FiniteSemigroup  # names are RowMonomialMatrix over the blocks of T
    base: FiniteSemigroup  # the covered semigroup S
    group_h: FiniteSemigroup
    rho: tuple  # S' element -> S element
    theta: dict  # element of the subgroup at eta(e) -> H element
    e_prime: int
    j_prime: int
    p: int
    m: int
    ell: int
    column: int  # block column carrying eta(e); 0 after cyclic renaming
    alphabet: tuple
    embedding: WreathEmbedding
    kernel: tuple  # H elements mapping to the identity of K
    report: dict

    def generator_matrices(self):
        """Generator block matrices after the cyclic renaming of [p]."""
        return [
            self.s_prime.names[g].rotate(self.column) for g in self.s_prime.generators
        ]

    def serialize(self):
        out = [
            f"cover p {self.p} m {self.m} ell {self.ell} size {self.s_prime.n}",
            f"column_shift {self.column}",
        ]
        for a, mat in zip(self.alphabet, self.generator_matrices()):
            out.append(f"generator {a}")
            if mat.is_zero():
                out.append("zero")
                continue
            for r, row in enumerate(mat.rows):
                if row is None:
                    continue
                out.append(f"block {r} {row[0]}")
                for rr in mat.block(r, row[0]).rows:
                    out.append("-" if rr is None else f"{rr[0]} {rr[1]}")
        for x in range(self.s_prime.n):
            out.append(f"rho {x} {self.rho[x]}")
        for x in sorted(self.theta):
            out.append(f"theta {x} {self.theta[x]}")
        return "\n".join(out) + "\n"


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def build_cover(D, H, alpha, e_word, z_word, sigma=None, cap=DEFAULT_CAP, max_prime=997):
    """Construct the cover semigroup S' with maximal subgroup H over K.

    Inputs: the syntactic data D for the shift (alphabet x_1..x_{n+1} with
    the last letter mapping to zero), a finite group H, `alpha` mapping each
    H element onto the maximal subgroup K at e = image(e_word), the witness
    words e_word and z_word, and optionally a section `sigma` of alpha.

    Verifies, exhaustively on the generated semigroup: the zero criterion
    (eta(u) = 0 iff the image of u is 0), single-column block support on the
    minimal non-zero J-class with all blocks preimages of one base matrix,
    that the corner entries of the canonical idempotent sweep the whole
    kernel of alpha, that theta (the corner-entry map) is an isomorphism
    from the maximal subgroup at eta(e) onto H, and that
    alpha . theta = rho restricted to that subgroup.
    """
    S = D.semigroup
    X = D.alphabet if D.alphabet is not None else D.source.alphabet
    n_plus = len(X)
    n = n_plus - 1
    if n < 2:
        raise HypothesisViolated("alphabet", "need at least three letters x_1..x_{n+1}")
    e_word = tuple(e_word)
    z_word = tuple(z_word)
    phi = {a: D.letter_map[a] for a in X}
    if D.zero is None or phi[X[n]] != D.zero:
        raise HypothesisViolated("last letter", "x_{n+1} must map to zero")
    for a in X[:n]:
        if phi[a] == D.zero:
            raise HypothesisViolated("alphabet", f"letter {a} maps to zero")
    allowed = set(X[: n - 1])
    if not z_word or set(z_word) - allowed:
        raise HypothesisViolated("z", "z must be a word over x_1..x_{n-1}")
    if X[0] not in set(z_word):
        raise HypothesisViolated("z", "x_1 must occur in z")
    e = D.image(e_word)
    if not S.is_idempotent(e) or e == D.zero:
        raise HypothesisViolated("e", "e_word must map to a non-zero idempotent")
    if X[n - 1] not in set(e_word):
        raise HypothesisViolated("e", "the e-witness word must contain x_n")
    g = S.green()
    nonzero_min = g.zero_minimal_j_classes(S.zero)
    if len(nonzero_min) != 1:
        raise HypothesisViolated("J", "S must have a unique 0-minimal J-class")
    j_id = nonzero_min[0]
    if g.j_class[e] != j_id:
        raise HypothesisViolated("e", "e must lie in the minimal non-zero J-class")
    z_elt = D.image(z_word)
    if S.mul(omega_power(S, z_elt), e) != e:
        raise HypothesisViolated("z", "z^omega e = e fails in S")

    try:
        emb = wreath_embed(S, j_id, idempotent=e)
    except NotFaithful as exc:
        raise HypothesisViolated("faithful", str(exc))
    K = emb.group
    k_of = {s: i for i, s in enumerate(K.names)}

    alpha = tuple(alpha)
    if len(alpha) != H.n or set(alpha) != set(range(K.n)):
        raise HypothesisViolated("alpha", "alpha must map H onto K")
    if H.identity is None:
        raise HypothesisViolated("H", "H must be a group")
    for x in range(H.n):
        for y in range(H.n):
            if alpha[H.mul(x, y)] != K.mul(alpha[x], alpha[y]):
                raise HypothesisViolated("alpha", f"not a homomorphism at ({x},{y})")
    if sigma is None:
        sigma = []
        for k in range(K.n):
            if k == K.identity:
                sigma.append(H.identity)
            else:
                sigma.append(min(h for h in range(H.n) if alpha[h] == k))
        sigma = tuple(sigma)
    else:
        sigma = tuple(sigma)
        if not all(alpha[sigma[k]] == k for k in range(K.n)):
            raise HypothesisViolated("sigma", "sigma must be a section of alpha")
        if sigma[K.identity] != H.identity:
            raise HypothesisViolated("sigma", "sigma must preserve the identity")

    b = len(emb.rees.b_ids)
    kernel = [h for h in range(H.n) if alpha[h] == K.identity]
    ell = len(kernel) ** b
    h_entries = EntrySemigroup(H)
    lifted = [
        emb.matrices[phi[a]].map_entries(lambda k: sigma[k], h_entries) for a in X[:n]
    ]
    twists = [
        RowMonomialMatrix.diagonal(h_entries, values)
        for values in _kernel_tuples(kernel, b, H)
    ]
    check(len(twists) == ell
          and twists[0] == RowMonomialMatrix.diagonal(h_entries, (H.identity,) * b),
          "twists must be the kernel tuples, identity first", len(twists))
    # T, the semigroup of blocks, closed once; S' multiplies blocks by T's table
    T = close_generators(lifted + [t * lifted[n - 1] for t in twists], cap=cap)
    t_index = {blk: t for t, blk in enumerate(T.names)}
    inner = EntrySemigroup(T, dead=t_index.get(RowMonomialMatrix.zero(h_entries, b)))
    letter_pos = {a: i for i, a in enumerate(X)}
    m = omega_exponent(T, T.eval_word([letter_pos[a] for a in z_word]))
    count_x1 = sum(1 for a in z_word if a == X[0])
    floor = max(m, ell, count_x1)
    p = floor + 1
    while not _is_prime(p):
        p += 1
        if p > max_prime:
            raise PrimeSearchFailed(f"no admissible prime <= {max_prime} above {floor}")

    # blocks as T-indices: tgen[i] is the lifted letter x_{i+1} for i < n,
    # tgen[n + j] the j-th twist of the lifted x_n
    tgen = T.generators
    gens = []
    for i in range(n_plus):
        if i == 0:
            rows = tuple(((j + 1) % p, tgen[i]) for j in range(p))
        elif i < n - 1:
            rows = tuple((j, tgen[i]) for j in range(p))
        elif i == n - 1:
            rows = tuple((0, tgen[n + j] if j < ell else tgen[i]) for j in range(p))
        else:
            rows = (None,) * p
        gens.append(RowMonomialMatrix(inner, rows))
    s_prime = close_generators(gens, cap=cap)

    zero_prime = s_prime.zero
    check(
        zero_prime is not None and s_prime.names[zero_prime].is_zero(),
        "the zero block matrix must be the zero of S'",
        zero_prime,
    )

    # rho: the S element whose matrix is the alpha-image of any block (one
    # image per block of T), compared with phi of the witness word, which is
    # computed along the closure's witness tree
    block_rho = [
        emb.lookup.get(blk.map_entries(lambda h: alpha[h], emb.entries)) for blk in T.names
    ]
    phi_w = SemigroupMorphism.from_generator_map(
        s_prime, S, [phi[a] for a in X], check=False
    ).mapping
    # the whole-S' checks read each matrix's points through the column and
    # entry of every point, decoding no rows
    col_of, entry_of = gens[0].point_tables()
    rho = []
    for x in range(s_prime.n):
        entries = [entry_of[q] for q in s_prime.names[x].points]
        if x == zero_prime:
            if phi_w[x] != D.zero:
                raise CheckFailed("eta(u) = 0 must force phi(u) = 0", s_prime.word_letters(x, X))
            rho.append(D.zero)
            continue
        if phi_w[x] == D.zero:
            raise CheckFailed("phi(u) = 0 must force eta(u) = 0", s_prime.word_letters(x, X))
        if None in entries:
            raise CheckFailed("non-zero elements are total on [p]", s_prime.word_letters(x, X))
        images = {block_rho[t] for t in entries}
        if len(images) != 1:
            raise CheckFailed("block entries must agree under alpha", s_prime.word_letters(x, X))
        if images != {phi_w[x]}:
            raise CheckFailed("rho . eta must equal phi", s_prime.word_letters(x, X))
        rho.append(phi_w[x])
    rho = tuple(rho)

    # eta(e_word) need not be idempotent in S'; the idempotent above e is the
    # omega power of eta(z)^omega * eta(e_word), which is fixed under left
    # multiplication by eta(z)^omega as the argument requires.
    z_prime = s_prime.eval_word([letter_pos[a] for a in z_word])
    z_om = omega_power(s_prime, z_prime)
    e_prime = omega_power(
        s_prime, s_prime.mul(z_om, s_prime.eval_word([letter_pos[a] for a in e_word]))
    )
    check(s_prime.is_idempotent(e_prime), "the element above e must be idempotent", e_prime)
    check(rho[e_prime] == e, "the idempotent above e must map onto e", e_prime)
    check(s_prime.mul(z_om, e_prime) == e_prime, "z^omega must fix the idempotent above e", e_prime)
    emat = s_prime.names[e_prime]
    cols = {r[0] for r in emat.rows if r is not None}
    check(len(cols) == 1, "blocks of eta(e) lie in one column", sorted(cols))
    column = cols.pop()

    gp = s_prime.green()
    minimal_nonzero = gp.zero_minimal_j_classes(zero_prime)
    check(len(minimal_nonzero) == 1, "S' must have a unique 0-minimal J-class", minimal_nonzero)
    j_prime = minimal_nonzero[0]
    check(gp.j_class[e_prime] == j_prime, "the idempotent above e must lie in J'", e_prime)
    check(gp.regular[j_prime], "J' must be regular", j_prime)

    # single-column support on J'; blocks are among the twist preimages of
    # one block (the twists form a group, so any block of the row will do)
    preimages = [{t_index.get(t * blk) for t in twists} for blk in T.names]
    for x in gp.j_classes[j_prime]:
        points = s_prime.names[x].points
        if len({col_of[q] for q in points}) != 1:
            raise CheckFailed("blocks of J' lie in one column", s_prime.word_letters(x, X))
        entries = {entry_of[q] for q in points}
        if not entries <= preimages[entry_of[points[0]]]:
            raise CheckFailed(
                "block entries must be preimages of one matrix", s_prime.word_letters(x, X)
            )

    # eta(e): entries in scalar column b0 with values in the kernel, and the
    # corner entries of its blocks sweep the whole kernel (this is what makes
    # the corner map onto below)
    kernel_set = set(kernel)
    e_blocks = [T.names[r[1]] for r in emat.rows if r is not None]
    for blk in e_blocks:
        for row in blk.rows:
            check(row is None or (row[0] == 0 and row[1] in kernel_set),
                  "entries of eta(e) must lie in column 0 with kernel values", blk)
    corner_values = {blk.entry(0, 0) for blk in e_blocks}
    check(corner_values == kernel_set, "corner entries of eta(e) must sweep the kernel",
          sorted(corner_values, key=lambda h: (h is None, h)))

    sub = maximal_subgroup(s_prime, e_prime)
    theta = {}
    for x in sub.names:
        mat = s_prime.names[x]
        blk = mat.block(column, column)
        entry = None if blk is None else blk.entry(0, 0)
        check({r[0] for r in mat.rows if r is not None} == {column} and entry is not None,
              "the subgroup at eta(e) must carry its corner entry in the column of eta(e)",
              s_prime.word_letters(x, X))
        theta[x] = entry
    check(theta[e_prime] == H.identity, "theta must send eta(e) to the identity", theta[e_prime])
    check(len(set(theta.values())) == len(theta) == H.n, "theta must be a bijection onto H",
          sorted(theta.values()))
    for x in sub.names:
        for y in sub.names:
            check(theta[s_prime.mul(x, y)] == H.mul(theta[x], theta[y]),
                  "theta must be multiplicative", (theta[x], theta[y]))
    for x in sub.names:
        check(alpha[theta[x]] == k_of[rho[x]], "alpha . theta must equal rho on the subgroup",
              theta[x])

    report = {
        "size": s_prime.n,
        "p": p,
        "m": m,
        "ell": ell,
        "subgroup_size": len(sub.names),
        "theta_iso": True,
        "alpha_theta_is_rho": True,
    }
    return CoverResult(
        s_prime=s_prime,
        base=S,
        group_h=H,
        rho=rho,
        theta=theta,
        e_prime=e_prime,
        j_prime=j_prime,
        p=p,
        m=m,
        ell=ell,
        column=column,
        alphabet=X,
        embedding=emb,
        kernel=tuple(kernel),
        report=report,
    )


def _kernel_tuples(kernel, b, H):
    ident = (H.identity,) * b
    yield ident
    for values in itertools.product(kernel, repeat=b):
        if values != ident:
            yield values
