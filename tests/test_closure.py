"""`close_generators` on packed carriers against the product-by-product
closure of `oracles.close_by_products`."""

import itertools
import random
import types

import pytest

from corpus import (
    corpus_presentations,
    cyclic_group,
    even_shift,
    golden_mean,
    letter_actions,
    random_presentation,
)
from oracles import close_by_products, walk_idempotents, walk_mul
from soficsemi import build_cover, cli, factor_dfa, syntactic_semigroup
from soficsemi.errors import CapExceeded, DimensionMismatch
from soficsemi.finsemi import (
    FiniteSemigroup,
    PartialTransformation,
    close_generators,
)
from soficsemi.shiftspace import format_presentation
from soficsemi.wreath import EntrySemigroup, RowMonomialMatrix


def assert_same_closure(gens):
    """Both closures give the same elements, numbering, Cayley graph and
    witness tree, and products and idempotents that agree with the walk
    oracle; the closure at cap |S| passes, and at |S| - 1 it stops,
    generators counted."""
    S, oracle = close_generators(gens), close_by_products(gens)
    assert S._cols == oracle._cols
    assert S.generators == oracle.generators
    assert (S._parent, S._lastgen) == (oracle._parent, oracle._lastgen)
    assert S.names == oracle.names
    assert (S.zero, S.identity) == (oracle.zero, oracle.identity)
    assert_products_match_walk(S, some_pairs(S))
    assert close_generators(gens, cap=S.n)._cols == S._cols
    for close in (close_generators, close_by_products):
        with pytest.raises(CapExceeded):
            close(gens, cap=S.n - 1)
    return S


def some_pairs(S, limit=500, samples=20000):
    """Every pair of elements up to `limit` elements, else seeded samples."""
    if S.n <= limit:
        return itertools.product(range(S.n), repeat=2)
    rng = random.Random(S.n)
    return [(rng.randrange(S.n), rng.randrange(S.n)) for _ in range(samples)]


def assert_products_match_walk(S, pairs):
    """`S.mul` on the given pairs and `S.is_idempotent` on their left
    factors agree with the witness walk."""
    pairs = list(pairs)
    for x, y in pairs:
        assert S.mul(x, y) == walk_mul(S, x, y), (x, y)
    for x in sorted({x for x, _ in pairs}):
        assert S.is_idempotent(x) == (walk_mul(S, x, x) == x), x


def assert_anchors_match_idempotents(S):
    """Each J-class's anchor is its least idempotent, and a class is regular
    when it has one, by a witness-walk scan over every element."""
    g = S.green()
    least = {}
    for e in walk_idempotents(S):
        least.setdefault(g.j_class[e], e)
    classes = range(len(g.j_classes))
    assert g.anchors == tuple(least.get(c) for c in classes)
    assert g.regular == tuple(c in least for c in classes)


def test_corpus_syntactic_closures_match_oracle():
    for name, P in corpus_presentations():
        S = assert_same_closure(letter_actions(factor_dfa(P)))
        assert S.n == syntactic_semigroup(P).semigroup.n, name
        assert_anchors_match_idempotents(S)


def test_zero_letter_gets_a_constant_column():
    """An empty-map letter is a zero generator, whose column is filled with
    its own index after the BFS; the closure matches the product oracle
    with that letter first, last and twice."""
    for name, P in corpus_presentations():
        maps = letter_actions(factor_dfa(P))
        empty = PartialTransformation([None] * maps[0].dim)
        for gens in ([empty, *maps], [*maps, empty], [empty, *maps, empty]):
            S = assert_same_closure(gens)
            zero = S.generators[gens.index(empty)]
            assert S.zero == zero, name
            assert all(S._cols[j] == [zero] * S.n
                       for j, g in enumerate(gens) if g is empty), name


def test_nilpotent_letter_is_not_a_zero():
    """A matrix whose entry t has s*t dead for every s sends every point to
    the sentinel, but its own key is not the sentinel's: its column is the
    product's, not a constant of its own index."""
    T = close_generators([PartialTransformation([None, 0])])  # a, with a*a = 0
    assert T.n == 2 and T.zero == 1
    E = EntrySemigroup(T, dead=T.zero)
    S = assert_same_closure([RowMonomialMatrix(E, ((0, 0),))])
    assert S.n == 2 and S._cols == [[1, 1]]


ANCHORS = {22: 10, 159: 18}  # anchor seed: states, over abc


@pytest.mark.parametrize("seed", list(ANCHORS))
def test_anchor_products_and_anchors_match_walk(seed):
    S = syntactic_semigroup(random_presentation(seed, ANCHORS[seed], "abc")).semigroup
    assert_products_match_walk(S, some_pairs(S, limit=0, samples=2000))
    assert_anchors_match_idempotents(S)


def test_syntactic_keeps_no_row_or_word_per_element(capsys, monkeypatch, tmp_path):
    """`syntactic` on anchor seed 159 keeps its Cayley graph as columns and
    spells no witness word: no attribute of the semigroup holds a list or
    tuple per element, nor a list of its carriers (they are made on read)."""
    made = []
    real = cli.syntactic_mod.syntactic_semigroup

    def recording(*args, **kwargs):
        D = real(*args, **kwargs)
        made.append(D.semigroup)
        return D

    monkeypatch.setattr(cli.syntactic_mod, "syntactic_semigroup", recording)
    monkeypatch.setattr(FiniteSemigroup, "word", None)
    path = tmp_path / "a159.pres"
    path.write_text(format_presentation(random_presentation(159, ANCHORS[159], "abc")))
    assert cli.main(["syntactic", str(path)]) == 0
    assert capsys.readouterr().out.startswith("semigroup_size 12258\n")
    (S,) = made
    assert len(S._cols) == 3
    per_element = [name for name, v in vars(S).items()
                   if isinstance(v, (list, tuple)) and len(v) == S.n
                   and any(isinstance(item, (list, tuple)) for item in v)]
    assert per_element == []
    carriers = [name for name, v in vars(S).items()
                if isinstance(v, list) and len(v) == S.n
                and any(isinstance(item, PartialTransformation) for item in v)]
    assert carriers == [] and S.names[S.zero] == S.names[S.zero]
    assert S.names[S.zero] is not S.names[S.zero]


def test_carriers_read_as_a_list():
    """A closure's `names` read as the list of its carriers: length, index,
    slice, iteration, `.index` and `==` against a list, either way round."""
    maps = letter_actions(factor_dfa(even_shift()))
    S = close_generators(maps)
    carriers = list(S.names)
    assert len(S.names) == len(carriers) == S.n
    assert S.names == carriers and carriers == S.names and S.names == S.names
    assert S.names != carriers[:-1] and S.names != carriers[::-1]
    assert S.names[1:3] == carriers[1:3] and S.names[-1] == carriers[-1]
    assert [S.names.index(c) for c in carriers] == list(range(S.n))
    assert S.names[S.generators[0]] == maps[0]
    for stranger in (PartialTransformation([None] * maps[0].dim),
                     types.SimpleNamespace(_b=carriers[0]._b)):  # same points, not a carrier
        with pytest.raises(ValueError):
            S.names.index(stranger)
    with pytest.raises(TypeError):
        hash(S.names)


def wide_maps(dim):
    """Three maps on dim points whose closure stays at 260 elements: a
    permutation of order 3, a partial map onto {0, 1, 2} and the partial
    identity on the even points."""
    return [
        PartialTransformation([(1, 2, 0, 4, 5, 3)[i] if i < 6 else i for i in range(dim)]),
        PartialTransformation([i % 3 if i % 5 else None for i in range(dim)]),
        PartialTransformation([i if i % 2 == 0 else None for i in range(dim)]),
    ]


@pytest.mark.parametrize("dim", [255, 256, 300])
def test_transformations_on_both_sides_of_the_byte_limit(dim):
    S = assert_same_closure(wide_maps(dim))
    assert S.n == 260 and S.zero is not None and S.identity is not None


def test_matrices_over_a_group():
    for k, size, packed in ((3, 37, bytes), (100, 1201, tuple)):  # 3 * 100 points > 255
        E = EntrySemigroup(cyclic_group(k))
        S = assert_same_closure([RowMonomialMatrix(E, ((1, 1), (2, 0), (0, 0))),
                                 RowMonomialMatrix(E, ((0, 2), None, (0, 1)))])
        assert S.n == size and type(S.names[0]._b) is packed


def test_single_row_matrices_on_the_tuple_path():
    """With p = 1 over a group of order 257 each matrix is a single point
    past the byte limit, where a one-index `itemgetter` returns the point
    itself rather than a 1-tuple."""
    Z257 = EntrySemigroup(cyclic_group(257))
    S = assert_same_closure([RowMonomialMatrix(Z257, ((0, 1),))])
    assert S.n == 257 and S.identity is not None
    assert all(len(m.rows) == 1 for m in S.names)


@pytest.mark.parametrize("shift", ["even", "golden_mean"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cover_closures_match_oracle(shift, k):
    """The inner semigroup T of blocks, over H, and S', over T with the zero
    block as the dead entry, close as the oracle closes them."""
    P, e_word = {"even": (even_shift(), "abb"), "golden_mean": (golden_mean(), "ab")}[shift]
    D = syntactic_semigroup(P, extra_letters=("c",))
    res = build_cover(D, cyclic_group(k), [0] * k, tuple(e_word), ("a",))
    S = res.s_prime
    inner = S.names[0].entries
    assert inner.dead is not None
    T = inner.semigroup
    assert_anchors_match_idempotents(assert_same_closure([T.names[g] for g in T.generators]))
    assert_anchors_match_idempotents(assert_same_closure([S.names[g] for g in S.generators]))


def assert_squares_are_products(S):
    for x in S.names:
        assert x._square() == (x * x)._b, x


def test_square_is_the_product_of_an_element_with_itself():
    """`_square()`, the packed points of x*x read off x alone, is the
    product by gather on every element of the corpus closures, of the block
    semigroups T and of the covers S'. The even-shift Z3 and Z4 S' are on
    the tuple path and have rows whose entry product is the dead block."""
    for _, P in corpus_presentations():
        assert_squares_are_products(syntactic_semigroup(P).semigroup)
    for P, e_word in ((even_shift(), "abb"), (golden_mean(), "ab")):
        D = syntactic_semigroup(P, extra_letters=("c",))
        for k in (2, 3, 4):
            S = build_cover(D, cyclic_group(k), [0] * k, tuple(e_word), ("a",)).s_prime
            inner = S.names[0].entries
            assert_squares_are_products(inner.semigroup)
            assert_squares_are_products(S)
            if e_word == "abb" and k > 2:
                assert S.names[0].dim * len(inner.columns) == {3: 341, 4: 833}[k]
                assert type(S.names[0]._b) is tuple
                assert any(row is not None and mat.rows[row[0]] is not None
                           and inner.columns[mat.rows[row[0]][1]][row[1]] == inner.dead
                           for mat in S.names for row in mat.rows)


def test_mixed_generators_raise_dimension_mismatch():
    Z2, other = EntrySemigroup(cyclic_group(2)), EntrySemigroup(cyclic_group(2))
    mixed = [
        [PartialTransformation((0, 1)), PartialTransformation((0, 1, 2))],
        [RowMonomialMatrix(Z2, ((0, 1),)), RowMonomialMatrix(Z2, ((0, 1), None))],
        [RowMonomialMatrix(Z2, ((0, 1),)), RowMonomialMatrix(other, ((0, 1),))],
        [RowMonomialMatrix(Z2, ((0, 1), None)), PartialTransformation((0, 1))],
    ]
    for gens in mixed:
        with pytest.raises(DimensionMismatch):
            close_generators(gens)
