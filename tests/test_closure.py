"""`close_generators` on packed carriers against the product-by-product
closure of `oracles.close_by_products`."""

import pytest

from corpus import corpus_presentations, cyclic_group, even_shift, golden_mean
from oracles import close_by_products
from soficsemi import build_cover, factor_dfa, syntactic_semigroup
from soficsemi.errors import CapExceeded, DimensionMismatch
from soficsemi.finsemi import PartialTransformation, close_generators
from soficsemi.wreath import EntrySemigroup, RowMonomialMatrix


def assert_same_closure(gens):
    """Both closures give the same elements, numbering, Cayley graph and
    witnesses; the closure at cap |S| passes, and at |S| - 1 it stops
    unless the generators are all of S (they are not counted against it)."""
    S, oracle = close_generators(gens), close_by_products(gens)
    assert S._cayley == oracle._cayley
    assert S.generators == oracle.generators
    assert S.witness == oracle.witness
    assert S.names == oracle.names
    assert (S.zero, S.identity) == (oracle.zero, oracle.identity)
    assert close_generators(gens, cap=S.n)._cayley == S._cayley
    for close in (close_generators, close_by_products):
        if S.n > len(set(S.generators)):
            with pytest.raises(CapExceeded):
                close(gens, cap=S.n - 1)
        else:
            assert close(gens, cap=S.n - 1)._cayley == S._cayley
    return S


def letter_actions(dfa):
    return [PartialTransformation([dfa.trans[q][j] for q in range(dfa.n_states)])
            for j in range(len(dfa.alphabet))]


def test_corpus_syntactic_closures_match_oracle():
    for name, P in corpus_presentations():
        S = assert_same_closure(letter_actions(factor_dfa(P)))
        assert S.n == syntactic_semigroup(P).semigroup.n, name


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
    Z3 = EntrySemigroup(cyclic_group(3))
    gens = [RowMonomialMatrix(Z3, ((1, 1), (2, 0), (0, 0))),
            RowMonomialMatrix(Z3, ((0, 2), None, (0, 1)))]
    assert_same_closure(gens)
    Z100 = EntrySemigroup(cyclic_group(100))  # 3 * 100 points: the tuple path
    assert_same_closure([RowMonomialMatrix(Z100, ((1, 1), (2, 0), (0, 0))),
                         RowMonomialMatrix(Z100, ((0, 50), (1, 99), None))])


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
    assert_same_closure([T.names[g] for g in T.generators])
    assert_same_closure([S.names[g] for g in S.generators])


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
