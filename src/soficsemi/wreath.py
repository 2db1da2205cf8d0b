"""Rees coordinates, the embedding of S in K wr (B, RLM_J(S)), row-monomial
wreath products, and the group-cover construction with full verification.

The embedding carries both Schutzenberger representations of the J-class:
each matrix is the right action on the anchor's R-class in coordinates, and
its support is the RLM action on the L-classes.

Wreath products are carried by one row-monomial matrix type whose entries
index a tabled entry semigroup: a group for a single wreath product, and for
the iterated one of the cover the closed semigroup T of row-monomial blocks,
whose zero block kills a row.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

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

MAX_PRIME = 997  # the prime search for the cover's block count p stops here


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

    def _right_table(self):
        # a row r in column c with entry t sends (r, s) to point[c*n + s*t]:
        # the point (c, s*t), or the sentinel where s*t is the dead index
        entries = self.entries
        n, dead = len(entries.columns), entries.dead
        sentinel = len(self._b) * n
        point = range(sentinel)
        if dead is not None:
            point = list(point)
            point[dead::n] = [sentinel] * len(self._b)
        images = []
        for q in self._b:
            if q == sentinel:
                images += [sentinel] * n
            else:
                c, t = divmod(q, n)
                images += map(point[c * n:c * n + n].__getitem__, entries.columns[t])
        return right_table(images, sentinel)

    def _right(self):
        if self._pad is None:
            self._pad = self._right_table()
        return self._pad

    def _square(self):
        # row i of x*x: row i's column c picks row c, whose entry multiplies
        # on the right of row i's entry
        entries = self.entries
        n, columns, dead = len(entries.columns), entries.columns, entries.dead
        b = self._b
        sentinel = len(b) * n
        out = []
        for q in b:
            if q != sentinel:
                c, t = divmod(q, n)
                r = b[c]
                if r != sentinel:
                    c2, t2 = divmod(r, n)
                    s = columns[t2][t]
                    if s != dead:
                        out.append(c2 * n + s)
                        continue
            out.append(sentinel)
        return pack_points(out, sentinel)

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


# -- Rees coordinates -----------------------------------------------------


class ReesCoordinates:
    """Normalized coordinates J^0 ~ M^0(G, A, B, C)."""

    __slots__ = ("group", "a_ids", "b_ids", "sandwich", "e0", "coord", "v")

    def __init__(self, group, a_ids, b_ids, sandwich, e0, coord, v):
        self.group = group  # maximal subgroup at e0; names are S-elements
        self.a_ids = a_ids  # R-class ids, e0's first
        self.b_ids = b_ids  # L-class ids, e0's first
        self.sandwich = sandwich  # C[b][a]: group element index or None
        self.e0 = e0
        self.coord = coord  # S-element -> (a, g, b); e0 has a = b = 0
        self.v = v  # column representatives, v[b] in L_b meet R_{e0}


def rees_coordinates(S, j_id, idempotent=None):
    """Normalized Rees coordinates of the regular J-class j_id at e0 (its
    anchor or the given idempotent), in one pass over J.

    x = u[a] * h * v[b] has h = u*[a] * x * v*[b] for any u*[a], v*[b] with
    u*[a] * u[a] = e0 = v[b] * v*[b]; each is read off one non-zero sandwich
    entry.  The Rees law follows from the round trip and one check on the
    sandwich products, not from all |J|^2 pairs: x * y = u[a] * (g * (v[b] *
    u[a']) * g') * v[b'] by associativity, so it has coordinates (a, g * C *
    g', b') when v[b] * u[a'] is C in H(e0), and x * y <=_J v[b] * u[a'] <_J J
    when that product leaves J; "a sandwich product in J lies in H(e0)"
    leaves no third case (Rhodes and Steinberg, The q-theory of Finite
    Semigroups, the Rees theorem).
    """
    g = S.green()
    e0 = g.anchor(j_id)
    if idempotent is not None:
        e0 = idempotent
        if not (0 <= e0 < S.n and S.is_idempotent(e0) and g.j_class[e0] == j_id):
            raise NotIdempotent(f"element {e0} is not an idempotent of J-class {j_id}")
    group = maximal_subgroup(S, e0)
    gpos = {s: i for i, s in enumerate(group.names)}

    # one ascending pass over J: the R- and L-classes numbered by their least
    # members, e0's first, and the least member of every eggbox cell
    a_pos, b_pos, cells = {g.r_class[e0]: 0}, {g.l_class[e0]: 0}, {}
    for x in g.j_classes[j_id]:
        r, l = g.r_class[x], g.l_class[x]
        a_pos.setdefault(r, len(a_pos))
        b_pos.setdefault(l, len(b_pos))
        cells.setdefault((r, l), x)
    a_ids, b_ids = tuple(a_pos), tuple(b_pos)

    def pick(r_id, l_id):
        x = cells.get((r_id, l_id))
        check(x is not None, "every eggbox cell of a regular J-class is non-empty", (r_id, l_id))
        return x

    def inverse(gi):
        return group.names[group_inverse(group, gi)]

    u = [e0] + [pick(a, b_ids[0]) for a in a_ids[1:]]
    v = [e0] + [pick(a_ids[0], b) for b in b_ids[1:]]

    # normalize row b0 and column a0 of the sandwich matrix to identities
    for i in range(1, len(u)):
        gi = gpos.get(S.mul(e0, u[i]))
        if gi is not None:
            u[i] = S.mul(u[i], inverse(gi))
    for i in range(1, len(v)):
        gi = gpos.get(S.mul(v[i], e0))
        if gi is not None:
            v[i] = S.mul(inverse(gi), v[i])

    sandwich = []
    for vb in v:
        row = [S.mul(vb, ua) for ua in u]
        for ua, p in zip(u, row):
            check(p in gpos or g.j_class[p] != j_id, "a sandwich product in J lies in H(e0)",
                  (vb, ua))
        sandwich.append(tuple(map(gpos.get, row)))
    sandwich = tuple(sandwich)
    check(all(c in (None, group.identity) for c in sandwich[0]),
          "row b0 of the sandwich matrix is normalized", sandwich[0])
    check(all(row[0] in (None, group.identity) for row in sandwich),
          "column a0 of the sandwich matrix is normalized", sandwich)
    check(sandwich[0][0] == group.identity, "the sandwich corner is the identity", sandwich[0][0])

    ustar, vstar = [], []
    for a in range(len(u)):
        b = next((b for b, row in enumerate(sandwich) if row[a] is not None), None)
        check(b is not None, "every column of the sandwich matrix has an entry", a)
        ustar.append(S.mul(inverse(sandwich[b][a]), v[b]))
    for b, row in enumerate(sandwich):
        a = next((a for a, c in enumerate(row) if c is not None), None)
        check(a is not None, "every row of the sandwich matrix has an entry", b)
        vstar.append(S.mul(u[a], inverse(row[a])))

    coord = {}
    decoord = {}
    for x in g.j_classes[j_id]:
        a, b = a_pos[g.r_class[x]], b_pos[g.l_class[x]]
        gi = gpos.get(S.mul(S.mul(ustar[a], x), vstar[b]))
        check(gi is not None, "coordinate fell outside the maximal subgroup", x)
        key = (a, gi, b)
        check(key not in decoord, "coordinates are injective", x)
        coord[x] = key
        decoord[key] = x
    check(len(decoord) == len(a_ids) * group.n * len(b_ids),
          "coordinates cover A x G x B", len(decoord))
    for key, x in decoord.items():
        a, gi, b = key
        rebuilt = S.mul(S.mul(u[a], group.names[gi]), v[b])
        check(rebuilt == x, "decoordinatize(coordinatize) is the identity", x)
    return ReesCoordinates(group, a_ids, b_ids, sandwich, e0, coord, tuple(v))


# -- wreath embedding -----------------------------------------------------


class WreathEmbedding:
    """S embedded in K wr (B, RLM_J(S)) as row-monomial matrices over K^0."""

    __slots__ = ("rees", "entries", "matrices", "lookup")

    def __init__(self, rees, entries, matrices, lookup):
        self.rees = rees
        self.entries = entries  # K, the entries of every matrix
        self.matrices = matrices  # per S element
        self.lookup = lookup  # matrix -> S element

    @property
    def group(self):
        return self.rees.group


def wreath_embed(S, j_id, idempotent=None):
    rees = rees_coordinates(S, j_id, idempotent)
    K = rees.group
    entries = EntrySemigroup(K)
    coord = rees.coord
    g = S.green()
    r_id = g.r_class[rees.e0]
    r0 = g.r_classes[r_id]
    # the action on R(e0) reads a product that leaves R(e0) as gone for good:
    # by stability, a product of R(e0) by a generator still in J lies in R(e0)
    for gen in S.generators:
        for r in r0:
            y = S.mul(r, gen)
            check(g.j_class[y] != j_id or g.r_class[y] == r_id,
                  "R(e0) times a generator stays in R(e0) or leaves J", (r, gen))
    acts = S.right_action(r0)
    # per position in R(e0), the row (b, k) of its coordinates (0, k, b); None
    # for the sentinel
    cell = [(b, k) for _, k, b in map(coord.__getitem__, r0)] + [None]
    cols = [r0.index(v) for v in rees.v]
    mats = [RowMonomialMatrix(entries, [cell[act[i]] for i in cols]) for act in acts]
    if len(set(mats)) != S.n:
        raise NotFaithful("Schutzenberger representation on the R-class is not faithful")
    lookup = {m: s for s, m in enumerate(mats)}
    # a morphism on every Cayley edge (x, generator) is one on every pair, by
    # induction on the witness word of the right factor
    for gen in S.generators:
        for x, mx in enumerate(mats):
            if mx * mats[gen] != mats[S.mul(x, gen)]:
                raise CheckFailed("the embedding is multiplicative", (x, gen))
    # action reading: matrices act exactly as right multiplication in coordinates
    for s, act in enumerate(acts):
        rows = mats[s].rows
        for x, c in zip(r0, map(cell.__getitem__, act)):
            _, gx, bx = coord[x]
            row = rows[bx]
            ok = c is None if row is None else c == (row[0], K.mul(gx, row[1]))
            if not ok:
                raise CheckFailed("matrices act as right multiplication in coordinates", (x, s))
    # maximal-subgroup normal form: column b0 carries the group element
    for ki, k_elt in enumerate(K.names):
        m = mats[k_elt]
        check(all(row is None or row == (0, ki) for row in m.rows)
              and m.entry(0, 0) == ki,
              "a maximal-subgroup element sits in column b0 as its own entry", k_elt)
    return WreathEmbedding(rees, entries, mats, lookup)


# -- wreath products with a fixed transformation part ---------------------


class WreathStructure:
    __slots__ = ("kind", "semigroup", "idempotent", "column", "psi", "subgroup")

    def __init__(self, kind, semigroup, idempotent, column, psi, subgroup):
        self.kind = kind  # "simple" or "0-simple"
        self.semigroup = semigroup  # names are RowMonomialMatrix
        self.idempotent = idempotent
        self.column = column
        self.psi = psi  # subgroup element -> group element index
        self.subgroup = subgroup


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


class CoverResult:
    """Verified output of the cover construction."""

    __slots__ = ("s_prime", "group_h", "rho", "theta", "e_prime", "j_prime", "p", "m", "ell",
                 "column", "alphabet", "embedding", "kernel", "report")

    def __init__(self, s_prime, group_h, rho, theta, e_prime, j_prime, p, m, ell, column,
                 alphabet, embedding, kernel, report):
        self.s_prime = s_prime  # names are RowMonomialMatrix over the blocks of T
        self.group_h = group_h
        self.rho = rho  # S' element -> S element
        self.theta = theta  # element of the subgroup at eta(e) -> H element
        self.e_prime = e_prime
        self.j_prime = j_prime
        self.p = p
        self.m = m
        self.ell = ell
        self.column = column  # block column carrying eta(e); 0 after cyclic renaming
        self.alphabet = alphabet
        self.embedding = embedding
        self.kernel = kernel  # H elements mapping to the identity of K
        self.report = report

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
        out += [f"rho {x} {v}" for x, v in enumerate(self.rho)]
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


def build_cover(D, H, alpha, e_word, z_word, cap=DEFAULT_CAP):
    """Construct the cover semigroup S' with maximal subgroup H over K.

    Inputs: the syntactic data D for the shift (alphabet x_1..x_{n+1} with
    the last letter mapping to zero), a finite group H, `alpha` mapping each
    H element onto the maximal subgroup K at e = image(e_word), the witness
    words e_word and z_word. Letters are lifted to H through the section
    sigma of alpha that sends each element of K to its least preimage (the
    identity to the identity).

    Verifies, exhaustively on the generated semigroup: the zero criterion
    (eta(u) = 0 iff the image of u is 0), single-column block support on the
    minimal non-zero J-class with all blocks preimages of one base matrix,
    that the corner entries of the canonical idempotent sweep the whole
    kernel of alpha, that theta (the corner-entry map) is an isomorphism
    from the maximal subgroup at eta(e) onto H, and that
    alpha . theta = rho restricted to that subgroup.
    """
    S = D.semigroup
    X = D.alphabet
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
    sigma = tuple(
        H.identity if k == K.identity else min(h for h in range(H.n) if alpha[h] == k)
        for k in range(K.n)
    )

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
        if p > MAX_PRIME:
            raise PrimeSearchFailed(f"no admissible prime <= {MAX_PRIME} above {floor}")

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
    rho = rho_check(s_prime, block_rho, phi_w, D.zero, X)

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

    j_support_check(s_prime, gp.j_classes[j_prime], twists, t_index, X)

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


# -- the whole-S' checks of the cover --------------------------------------
#
# Each element is checked by one C-level set test on its points, in one pass
# over all of S' (or J'); only when one fails do the separate tests name the
# first failure.


def rho_check(s_prime, block_rho, phi_w, zero, letters):
    """rho . eta = phi on all of S', and rho per element.

    eta(u) = 0 exactly when phi(u) = 0; every other element is total on [p],
    and its blocks (T-indices, `block_rho[t]` the S element of block t's
    alpha-image) all give phi(u).  `gives[v]` holds the points of [p] x T
    whose block gives the S element v, and the sentinel alone for the zero.
    When phi sends the zero of S' and nothing else to the zero, every
    element passes that holds all its points in `gives[phi(u)]`: one pass of
    C-level set tests over all of S'.  Otherwise the loop below repeats the
    tests element by element, with `point_rho` (a point's block image, None
    for the sentinel) for the points, and names the first failure.
    """
    _, entry_of = s_prime.names[0].point_tables()
    point_rho = [None if t is None else block_rho[t] for t in entry_of]
    zero_prime, n = s_prime.zero, s_prime.n
    if (zero_prime is not None and phi_w[zero_prime] == zero and phi_w.count(zero) == 1
            and s_prime.names[0].dim):  # an element with no points would pass vacuously
        gives = [set() for _ in range(max(phi_w) + 1)]
        for q, v in enumerate(point_rho[:-1]):
            if v is not None and v < len(gives):
                gives[v].add(q)
        gives[zero] = {len(point_rho) - 1}  # the sentinel
        gives = list(map(frozenset, gives))
        if all(map(frozenset.issuperset, map(gives.__getitem__, phi_w),
                   map(s_prime.names.points, range(n)))):
            return tuple(phi_w)
    for x, points in enumerate(map(s_prime.names.points, range(n))):
        want, images = phi_w[x], set(map(point_rho.__getitem__, points))
        if x == zero_prime:
            if want == zero:
                continue
            failed = "eta(u) = 0 must force phi(u) = 0"
        elif want != zero and images == {want}:
            continue
        elif want == zero:
            failed = "phi(u) = 0 must force eta(u) = 0"
        elif None in map(entry_of.__getitem__, points):
            failed = "non-zero elements are total on [p]"
        elif len(images) != 1:
            failed = "block entries must agree under alpha"
        else:
            failed = "rho . eta must equal phi"
        raise CheckFailed(failed, s_prime.word_letters(x, letters))
    return tuple(phi_w)


def j_support_check(s_prime, members, twists, t_index, letters):
    """Each member of J' has its blocks in one column, all of them twist
    preimages of one block (the twists form a group, so any block of the
    row will do).

    `allowed[q0]`, built once per first point q0, holds the points of q0's
    column whose blocks are twist preimages of q0's block (`t_index` maps
    blocks to T-indices); a member passes when it holds all the member's
    points, which one pass of C-level set tests checks over all of J'.
    """
    col_of, entry_of = s_prime.names[0].point_tables()
    blocks = s_prime.names[0].entries.names
    point_lists = list(map(s_prime.names.points, members))
    firsts = list(map(itemgetter(0), point_lists))
    preimages = {None: set()}
    allowed = {}
    for q0 in set(firsts):
        t0 = entry_of[q0]
        if t0 not in preimages:
            block = blocks[t0]  # read once: its right table serves every twist
            preimages[t0] = {t_index.get(tw * block) for tw in twists}
        # the points of one column differ by their entry indices
        allowed[q0] = frozenset(q0 - t0 + t for t in preimages[t0] if t is not None)
    passed = list(map(frozenset.issuperset, map(allowed.__getitem__, firsts), point_lists))
    if False in passed:
        at = passed.index(False)
        one_column = len({col_of[q] for q in point_lists[at]}) == 1
        raise CheckFailed("block entries must be preimages of one matrix" if one_column
                          else "blocks of J' lie in one column",
                          s_prime.word_letters(members[at], letters))


def _kernel_tuples(kernel, b, H):
    ident = (H.identity,) * b
    yield ident
    for values in itertools.product(kernel, repeat=b):
        if values != ident:
            yield values
