"""Schutzenberger and RLM representations, Rees coordinates, row-monomial
wreath products, and the group-cover construction with full verification.

Wreath products are carried by row-monomial matrices over a group-with-zero;
iterated wreath products by block row-monomial matrices whose blocks are
row-monomial matrices, stored as indices into the closed table of the
semigroup they generate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CheckFailed,
    DimensionMismatch,
    HypothesisViolated,
    NotFaithful,
    NotRegular,
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
    group_inverse,
    maximal_subgroup,
    omega_exponent,
    omega_power,
)


class RowMonomialMatrix:
    """Row-monomial matrix over G^0: per row at most one non-zero entry.

    Rows are stored as (column, group element index) or None; entries live
    in a fixed finite group, so entries never vanish and a product row dies
    only when the support pattern does.
    """

    __slots__ = ("group", "size", "rows", "_hash")

    def __init__(self, group, rows, size=None):
        rows = tuple(rows)
        if size is None:
            size = len(rows)
        if len(rows) != size:
            raise DimensionMismatch("row count differs from size")
        for r in rows:
            if r is not None:
                c, g = r
                if not (0 <= c < size) or not (0 <= g < group.n):
                    raise DimensionMismatch("entry out of range")
        self.group = group
        self.size = size
        self.rows = rows
        self._hash = hash(rows)

    @property
    def dim(self):
        return ("rm", self.size)

    @classmethod
    def zero(cls, group, size):
        return cls(group, (None,) * size, size)

    @classmethod
    def diagonal(cls, group, values):
        return cls(group, tuple((i, g) for i, g in enumerate(values)))

    def __mul__(self, other):
        if not isinstance(other, RowMonomialMatrix):
            return NotImplemented
        if other.size != self.size:
            raise DimensionMismatch("sizes differ")
        grp = self.group
        orows = other.rows
        out = []
        for r in self.rows:
            if r is None:
                out.append(None)
                continue
            c, g = r
            nxt = orows[c]
            if nxt is None:
                out.append(None)
            else:
                c2, h = nxt
                out.append((c2, grp.mul(g, h)))
        return RowMonomialMatrix(grp, tuple(out), self.size)

    def __eq__(self, other):
        return (
            isinstance(other, RowMonomialMatrix)
            and self.size == other.size
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

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

    def support(self):
        return PartialTransformation(
            tuple(None if r is None else r[0] for r in self.rows), self.size
        )

    def map_entries(self, func, new_group):
        return RowMonomialMatrix(
            new_group,
            tuple(None if r is None else (r[0], func(r[1])) for r in self.rows),
            self.size,
        )


class InnerBlocks:
    """The inner semigroup T of row-monomial blocks, closed once into a table.

    `index` numbers the blocks of T, `table[t][u]` is the index of t*u, and
    `dead` is the index of the zero block (None when T has none).
    """

    __slots__ = ("semigroup", "index", "table", "dead", "size")

    def __init__(self, gens, cap):
        T = close_generators(gens, cap=cap)
        self.semigroup = T
        self.index = {blk: t for t, blk in enumerate(T.names)}
        self.table = [T.left_row(t) for t in range(T.n)]
        self.size = gens[0].size
        self.dead = self.index.get(RowMonomialMatrix.zero(gens[0].group, self.size))

    @property
    def blocks(self):
        return self.semigroup.names


class BlockMatrix:
    """Block row-monomial matrix: per block row at most one non-zero block.

    Blocks are elements of an InnerBlocks semigroup T; a row is stored as
    (column, index into T) or None, so a product is one T-table lookup per
    row, and a row whose product is T's zero block dies.
    """

    __slots__ = ("inner", "rows", "_hash")

    def __init__(self, inner, rows):
        rows = tuple(rows)
        for r in rows:
            if r is not None:
                c, t = r
                if not (0 <= c < len(rows) and 0 <= t < len(inner.table)) or t == inner.dead:
                    raise DimensionMismatch(f"block row {r} out of range or zero")
        self.inner = inner
        self.rows = rows
        self._hash = hash(rows)

    @property
    def p(self):
        return len(self.rows)

    @property
    def dim(self):
        return ("block", len(self.rows), self.inner.size)

    @classmethod
    def zero(cls, inner, p):
        return cls(inner, (None,) * p)

    def __mul__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        inner = self.inner
        if other.inner is not inner or len(other.rows) != len(self.rows):
            raise DimensionMismatch("block shapes differ")
        table, dead, orows = inner.table, inner.dead, other.rows
        out = []
        for r in self.rows:
            nxt = None if r is None else orows[r[0]]
            if nxt is None:
                out.append(None)
                continue
            t = table[r[1]][nxt[1]]
            out.append(None if t == dead else (nxt[0], t))
        prod = object.__new__(BlockMatrix)
        prod.inner = inner
        prod.rows = rows = tuple(out)
        prod._hash = hash(rows)
        return prod

    def __eq__(self, other):
        return (
            isinstance(other, BlockMatrix)
            and self.inner is other.inner
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Block[{self.p}x{self.p} of {self.inner.size}]"

    def is_zero(self):
        return all(r is None for r in self.rows)

    def block(self, i, j):
        r = self.rows[i]
        if r is not None and r[0] == j:
            return self.inner.blocks[r[1]]
        return None

    def block_entries(self):
        return [self.inner.blocks[r[1]] for r in self.rows if r is not None]

    def block_columns(self):
        return {r[0] for r in self.rows if r is not None}

    def rotate(self, shift):
        """Conjugate by the cyclic renaming j -> (j - shift) mod p."""
        p = self.p
        rows = [None] * p
        for i, r in enumerate(self.rows):
            if r is not None:
                c, t = r
                rows[(i - shift) % p] = ((c - shift) % p, t)
        return BlockMatrix(self.inner, rows)


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
    if not g.regular[j_id]:
        raise NotRegular(f"J-class {j_id} is not regular")
    anchor = r_class_of
    if anchor is None:
        anchor = min(x for x in g.j_classes[j_id] if S.is_idempotent(x))
    members = sorted(x for x in g.j_classes[j_id] if g.r_class[x] == g.r_class[anchor])
    pos = {x: i for i, x in enumerate(members)}
    maps = []
    for s in range(S.n):
        maps.append(
            PartialTransformation(
                tuple(pos.get(S.mul(x, s)) for x in members), len(members)
            )
        )
    image = close_generators([maps[s] for s in S.generators], cap=DEFAULT_CAP)
    lut = {m: i for i, m in enumerate(image.names)}
    morphism = SemigroupMorphism(S, image, tuple(lut[maps[s]] for s in range(S.n)))
    # injective on every maximal subgroup of J
    for e in g.j_classes[j_id]:
        if S.is_idempotent(e):
            h = g.h_classes[g.h_class[e]]
            assert len({maps[x] for x in h}) == len(h)
    faithful = len(set(maps)) == S.n
    _assert_image_faithful(image, morphism, g, j_id)
    return SchutzenbergerAction(tuple(members), maps, image, morphism, faithful)


def _assert_image_faithful(image, morphism, g, j_id):
    """rho_J(J) is a regular J-class of the image and the action of the image
    on one of its R-classes is again faithful."""
    gi = image.green()
    img_elems = {morphism(x) for x in g.j_classes[j_id]}
    classes = {gi.j_class[y] for y in img_elems}
    assert len(classes) == 1
    jbar = classes.pop()
    assert gi.regular[jbar]
    anchor = min(y for y in gi.j_classes[jbar] if image.is_idempotent(y))
    members = sorted(
        y for y in gi.j_classes[jbar] if gi.r_class[y] == gi.r_class[anchor]
    )
    pos = {y: i for i, y in enumerate(members)}
    seen = set()
    for s in range(image.n):
        m = tuple(pos.get(image.mul(y, s)) for y in members)
        assert m not in seen, "Schutzenberger representation of the image not faithful"
        seen.add(m)


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
    if not g.regular[j_id]:
        raise NotRegular(f"J-class {j_id} is not regular")
    anchor = first_of
    if anchor is None:
        anchor = min(x for x in g.j_classes[j_id] if S.is_idempotent(x))
    l_ids = sorted(
        {g.l_class[x] for x in g.j_classes[j_id]},
        key=lambda c: (c != g.l_class[anchor], min(g.l_classes[c])),
    )
    b_pos = {c: i for i, c in enumerate(l_ids)}
    jset = set(g.j_classes[j_id])
    maps = []
    for s in range(S.n):
        row = [None] * len(l_ids)
        for i, c in enumerate(l_ids):
            targets = set()
            for x in g.l_classes[c]:
                y = S.mul(x, s)
                targets.add(b_pos[g.l_class[y]] if y in jset else None)
            assert len(targets) == 1, "RLM action not well defined"
            row[i] = targets.pop()
        maps.append(PartialTransformation(tuple(row), len(l_ids)))
    image = close_generators([maps[s] for s in S.generators], cap=DEFAULT_CAP)
    lut = {m: i for i, m in enumerate(image.names)}
    morphism = SemigroupMorphism(S, image, tuple(lut[maps[s]] for s in range(S.n)))
    for x in g.j_classes[j_id]:
        assert maps[x].rank <= 1, "elements of J must act with rank at most 1"
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
    if not g.regular[j_id]:
        raise NotRegular(f"J-class {j_id} is not regular")
    j_elems = g.j_classes[j_id]
    e0 = idempotent
    if e0 is None:
        e0 = min(x for x in j_elems if S.is_idempotent(x))
    assert S.is_idempotent(e0) and g.j_class[e0] == j_id
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
        assert hits, "eggbox cell is empty"
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
    for a in range(len(u)):
        assert sandwich[0][a] in (None, group.identity)
    for b in range(len(v)):
        assert sandwich[b][0] in (None, group.identity)
    assert sandwich[0][0] == group.identity

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
        assert gi is not None, "coordinate fell outside the maximal subgroup"
        coord[x] = (a, gi, b)
        key = (a, gi, b)
        assert key not in decoord
        decoord[key] = x
    # round trip and full coverage
    assert len(decoord) == len(j_elems) == len(a_ids) * group.n * len(b_ids)
    for key, x in decoord.items():
        a, gi, b = key
        rebuilt = S.mul(S.mul(u[a], group.names[gi]), v[b])
        assert rebuilt == x, "decoordinatize(coordinatize) is not the identity"
    # multiplication agrees with the Rees product
    for x in j_elems:
        ax, gx, bx = coord[x]
        for y in j_elems:
            ay, gy, by = coord[y]
            z = S.mul(x, y)
            link = sandwich[bx][ay]
            if link is None:
                assert z not in jset
            else:
                assert z in jset
                expect = (ax, group.mul(group.mul(gx, link), gy), by)
                assert coord[z] == expect, "Rees product mismatch"
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
    matrices: list  # per S element
    lookup: dict  # matrix -> S element

    @property
    def group(self):
        return self.rees.group


def wreath_embed(S, j_id, idempotent=None):
    rees = rees_coordinates(S, j_id, idempotent)
    K = rees.group
    g = S.green()
    jset = set(g.j_classes[j_id])
    b = len(rees.b_ids)
    mats = []
    for s in range(S.n):
        rows = []
        for bi in range(b):
            y = S.mul(rees.v[bi], s)
            if y in jset:
                a, k, b2 = rees.coord[y]
                assert a == rees.a0
                rows.append((b2, k))
            else:
                rows.append(None)
        mats.append(RowMonomialMatrix(K, tuple(rows), b))
    if len(set(mats)) != S.n:
        raise NotFaithful("Schutzenberger representation on the R-class is not faithful")
    lookup = {m: s for s, m in enumerate(mats)}
    # multiplicative, exhaustively
    for x in range(S.n):
        for y in range(S.n):
            assert mats[x] * mats[y] == mats[S.mul(x, y)]
    # action reading: matrices act exactly as right multiplication in coordinates
    for s in range(S.n):
        for x in jset:
            a, gx, bx = rees.coord[x]
            if a != rees.a0:
                continue
            y = S.mul(x, s)
            row = mats[s].rows[bx]
            if y in jset:
                assert row is not None
                b2, k = row
                assert rees.coord[y] == (rees.a0, K.mul(gx, k), b2)
            else:
                assert row is None
    # maximal-subgroup normal form: column b0 carries the group element
    for k_elt in K.names:
        m = mats[k_elt]
        for bi, row in enumerate(m.rows):
            if row is not None:
                assert row[0] == rees.b0
                assert row[1] == gindex(K, k_elt)
        assert m.entry(rees.b0, rees.b0) == gindex(K, k_elt)
    return WreathEmbedding(rees, mats, lookup)


def gindex(group, s_element):
    return group.names.index(s_element)


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
    assert T, "T must be non-empty"
    bsize = T[0].dim
    tset = set(T)
    for t in T:
        if t.rank > 1:
            raise RankTooHigh(f"{t} has rank {t.rank}")
        for s in T:
            assert t * s in tset, "T is not closed under composition"
    for src in range(bsize):
        for dst in range(bsize):
            if not any(t(src) == dst for t in T):
                raise NotTransitive(f"no map sends {src} to {dst}")
    elements = []
    def _tkey(t):
        return tuple(-1 if v is None else v for v in t.mapping)
    for t in sorted(tset, key=_tkey):
        dom = sorted(t.domain())
        for values in itertools.product(range(G.n), repeat=len(dom)):
            rows = [None] * bsize
            for i, val in zip(dom, values):
                rows[i] = (t(i), val)
            elements.append(RowMonomialMatrix(G, tuple(rows), bsize))
    S = close_generators(elements, cap=DEFAULT_CAP)
    assert S.n == len(elements), "preimage of T is closed under products"
    g = S.green()
    total = all(t.is_total() for t in tset)
    if total:
        assert len(g.j_classes) == 1, "wreath over total maps must be simple"
        kind = "simple"
    else:
        assert S.zero is not None
        assert len(g.j_classes) == 2, "wreath must be 0-simple"
        top = [c for c in range(2) if S.zero not in g.j_classes[c]][0]
        assert g.regular[top]
        kind = "0-simple"
    idem = [
        x
        for x in S.idempotent_list()
        if S.zero is None or x != S.zero
    ]
    e = min(idem)
    image = S.names[e].support().image()
    assert len(image) == 1
    col = image.pop()
    sub = maximal_subgroup(S, e)
    psi = {}
    for x in sub.names:
        val = S.names[x].entry(col, col)
        assert val is not None
        psi[x] = val
    assert len(set(psi.values())) == G.n == len(psi), "psi must be a bijection"
    for x in sub.names:
        for y in sub.names:
            assert psi[S.mul(x, y)] == G.mul(psi[x], psi[y])
    return WreathStructure(kind, S, e, col, psi, sub)


# -- the cover construction ----------------------------------------------


@dataclass
class CoverResult:
    """Verified output of the cover construction."""

    s_prime: FiniteSemigroup  # names are BlockMatrix
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

    def eta(self, w):
        """Evaluate a word (tuple of letters) in S'."""
        w = tuple(w)
        pos = {a: i for i, a in enumerate(self.alphabet)}
        return self.s_prime.eval_word([pos[a] for a in w])

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
    nonzero_min = [
        c
        for c in range(len(g.j_classes))
        if S.zero not in g.j_classes[c]
        and g.j_below[c] == frozenset({c, g.j_class[S.zero]})
    ]
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
    lifted = [
        emb.matrices[phi[a]].map_entries(lambda k: sigma[k], H) for a in X[:n]
    ]
    twists = [
        RowMonomialMatrix.diagonal(H, values)
        for values in _kernel_tuples(kernel, b, H)
    ]
    check(len(twists) == ell and twists[0] == RowMonomialMatrix.diagonal(H, (H.identity,) * b),
          "twists must be the kernel tuples, identity first", len(twists))
    inner = InnerBlocks(lifted + [t * lifted[n - 1] for t in twists], cap)
    T = inner.semigroup
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
        gens.append(BlockMatrix(inner, rows))
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
        emb.lookup.get(blk.map_entries(lambda h: alpha[h], K)) for blk in inner.blocks
    ]
    phi_w = SemigroupMorphism.from_generator_map(
        s_prime, S, [phi[a] for a in X], check=False
    ).mapping
    rho = []
    for x in range(s_prime.n):
        rows = s_prime.names[x].rows
        if x == zero_prime:
            if phi_w[x] != D.zero:
                raise CheckFailed("eta(u) = 0 must force phi(u) = 0", s_prime.word_letters(x, X))
            rho.append(D.zero)
            continue
        if phi_w[x] == D.zero:
            raise CheckFailed("phi(u) = 0 must force eta(u) = 0", s_prime.word_letters(x, X))
        if None in rows:
            raise CheckFailed("non-zero elements are total on [p]", s_prime.word_letters(x, X))
        images = {block_rho[r[1]] for r in rows}
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
    cols = emat.block_columns()
    check(len(cols) == 1, "blocks of eta(e) lie in one column", sorted(cols))
    column = cols.pop()

    gp = s_prime.green()
    zcls = gp.j_class[zero_prime]
    minimal_nonzero = [
        c
        for c in range(len(gp.j_classes))
        if c != zcls and gp.j_below[c] == frozenset({c, zcls})
    ]
    check(len(minimal_nonzero) == 1, "S' must have a unique 0-minimal J-class", minimal_nonzero)
    j_prime = minimal_nonzero[0]
    check(gp.j_class[e_prime] == j_prime, "the idempotent above e must lie in J'", e_prime)
    check(gp.regular[j_prime], "J' must be regular", j_prime)

    # single-column support on J'; blocks are among the twist preimages of
    # one block (the twists form a group, so any block of the row will do)
    preimages = [{inner.index.get(t * blk) for t in twists} for blk in inner.blocks]
    for x in gp.j_classes[j_prime]:
        rows = s_prime.names[x].rows
        if len({r[0] for r in rows}) != 1:
            raise CheckFailed("blocks of J' lie in one column", s_prime.word_letters(x, X))
        entries = {r[1] for r in rows}
        if not entries <= preimages[rows[0][1]]:
            raise CheckFailed(
                "block entries must be preimages of one matrix", s_prime.word_letters(x, X)
            )

    # eta(e): entries in scalar column b0 with values in the kernel, and the
    # corner entries of its blocks sweep the whole kernel (this is what makes
    # the corner map onto below)
    kernel_set = set(kernel)
    for blk in emat.block_entries():
        for row in blk.rows:
            check(row is None or (row[0] == 0 and row[1] in kernel_set),
                  "entries of eta(e) must lie in column 0 with kernel values", blk)
    corner_values = {blk.entry(0, 0) for blk in emat.block_entries()}
    check(corner_values == kernel_set, "corner entries of eta(e) must sweep the kernel",
          sorted(corner_values, key=lambda h: (h is None, h)))

    sub = maximal_subgroup(s_prime, e_prime)
    theta = {}
    for x in sub.names:
        blk = s_prime.names[x].block(column, column)
        entry = None if blk is None else blk.entry(0, 0)
        check(s_prime.names[x].block_columns() == {column} and entry is not None,
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


def preimage_completeness_check(result, w):
    """Compare the block entries of eta(w) with the full set of preimages of
    the matrix of w under entrywise alpha.

    Returns (blocks, preimages).  Equality holds whenever every letter read
    before the first x_n acts injectively on the L-classes; a left factor of
    rank 1 collapses the row twists, so the blocks can be a proper subset.
    """
    w = tuple(w)
    elt = result.eta(w)
    mat = result.s_prime.names[elt]
    assert not mat.is_zero(), "word maps to zero"
    H = result.group_h
    blocks = set(mat.block_entries())
    some = next(iter(blocks))
    twists = [
        RowMonomialMatrix.diagonal(H, values)
        for values in _kernel_tuples(result.kernel, some.size, H)
    ]
    preimages = {t * some for t in twists}
    return blocks, preimages


def _kernel_tuples(kernel, b, H):
    ident = (H.identity,) * b
    yield ident
    for values in itertools.product(kernel, repeat=b):
        if values != ident:
            yield values
