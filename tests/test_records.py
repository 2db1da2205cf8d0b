"""The package's records are plain classes: built by position or by keyword
in their field order, and equal, hashed and printed by value only where a
caller or a test compares or prints them."""

import pytest

from corpus import golden_mean, period2_syntactic_table
from soficsemi import BiInfinitePoint, EntropyResult, SemigroupMorphism, ZiminTerm, entropy_estimate
from soficsemi.errors import NotPrimitive
from soficsemi.finsemi import GreenStructure
from soficsemi.syntactic import SyntacticData
from soficsemi.wreath import CoverResult, ReesCoordinates, WreathEmbedding, WreathStructure
from soficsemi.zimin import LoopLanguage, ZiminResult

# the fields of each record with `__slots__`, in constructor order
FIELDS = {
    EntropyResult: ("value", "certificate", "counting"),
    SyntacticData: ("semigroup", "letter_map", "dfa", "source", "zero", "alphabet", "states"),
    ReesCoordinates: ("group", "a_ids", "b_ids", "sandwich", "e0", "coord", "v"),
    WreathEmbedding: ("rees", "entries", "matrices", "lookup"),
    WreathStructure: ("kind", "semigroup", "idempotent", "column", "psi", "subgroup"),
    CoverResult: ("s_prime", "group_h", "rho", "theta", "e_prime", "j_prime", "p", "m", "ell",
                  "column", "alphabet", "embedding", "kernel", "report"),
    ZiminTerm: ("prev", "v", "exponent"),
    LoopLanguage: ("dfa", "m", "vertex", "alphabet"),
    ZiminResult: ("value", "stop_index", "r", "bound", "term", "image"),
}
GREEN_FIELDS = ("r_class", "l_class", "j_class", "r_classes", "l_classes", "j_classes",
                "j_below", "regular", "anchors")


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_by_position_and_by_keyword(cls):
    names = FIELDS[cls]
    assert cls.__slots__ == names
    for rec in (cls(*names), cls(**{name: name for name in names})):
        assert [getattr(rec, name) for name in names] == list(names)
        with pytest.raises(AttributeError):
            rec.not_a_field = 0
    with pytest.raises(TypeError):
        cls(*names[1:])


def test_green_structure_fields_and_equality():
    g = period2_syntactic_table().green()
    values = [getattr(g, name) for name in GREEN_FIELDS]
    by_pos = GreenStructure(*values)
    by_kw = GreenStructure(**dict(zip(GREEN_FIELDS, values)))
    assert by_pos == by_kw == g and by_pos is not g
    assert by_pos.h_classes == g.h_classes  # derived on first read
    assert g != GreenStructure(*values[:-1], (None,) * len(g.anchors))
    odd = GreenStructure(*values)
    odd.h_class = tuple(reversed(g.h_class))  # read (and compared) in place of the derived one
    assert odd != g
    assert g != tuple(values)


def test_semigroup_morphism_keeps_a_tuple_and_checks_its_length():
    S = period2_syntactic_table()
    phi = SemigroupMorphism(S, S, range(S.n))
    assert (phi.source, phi.target, phi.mapping) == (S, S, tuple(range(S.n)))
    assert phi(2) == 2 and phi.is_surjective()
    with pytest.raises(ValueError, match=f"^{S.n - 1} images for {S.n} elements$"):
        SemigroupMorphism(S, S, range(S.n - 1))


def test_bi_infinite_point_is_its_least_rotation():
    p = BiInfinitePoint(tuple("bab"))
    assert p.period == tuple("abb")
    assert p == BiInfinitePoint(["b", "b", "a"]) == BiInfinitePoint(tuple("abb"))
    assert p != BiInfinitePoint(tuple("aab")) and p != tuple("abb")
    assert hash(p) == hash(BiInfinitePoint(tuple("bba")))
    assert len({p, BiInfinitePoint(tuple("bba")), BiInfinitePoint(("a",))}) == 2
    assert repr(p) == "BiInfinitePoint(abb)"
    with pytest.raises(NotPrimitive, match="^abab is a proper power$"):
        BiInfinitePoint(tuple("abab"))
    with pytest.raises(ValueError, match="^a period word must be non-empty$"):
        BiInfinitePoint(())


def test_zimin_term_is_equal_and_hashed_by_value():
    t = ZiminTerm.leaf(["a"]).extend(["b"], 2)
    same = ZiminTerm(ZiminTerm(None, ("a",), 0), ("b",), 2)
    assert t == same and hash(t) == hash(same)
    assert {t: 1}[same] == 1
    assert t != ZiminTerm.leaf(["a"]).extend(["b"], 3)
    assert t != ZiminTerm.leaf(["b"]).extend(["b"], 2)
    assert t != ("a", "b")


def test_zimin_term_of_thousands_of_levels_compares_and_hashes():
    """Equality and hash walk the chain, not the recursion stack: anchor 47's
    idempotent stops at level 1093."""
    def chain(levels, last=2):
        t = ZiminTerm.leaf(["a"])
        for n in range(2, levels):
            t = t.extend(["a", "b"], n)
        return t.extend(["b"], last)

    t, same = chain(3000), chain(3000)
    assert t is not same and t == same and hash(t) == hash(same)
    assert {t: 1}[same] == 1
    assert t != chain(3000, last=3) and t != chain(2999)


def test_entropy_result_reads_as_its_value():
    res = entropy_estimate(golden_mean(), n_max=6)
    assert float(res) == res.value
    assert [row[:2] for row in res.certificate[:2]] == [(1, 2), (2, 3)]
