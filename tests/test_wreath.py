import ast
import copy
import itertools
import os
import random
import subprocess
import sys
from collections import namedtuple

import pytest

import soficsemi
from corpus import (
    cyclic_group,
    even_shift,
    golden_mean,
    group_with_zero,
    period2_syntactic_table,
    period_shift,
    random_presentation,
)
from soficsemi import (
    FiniteSemigroup,
    PartialTransformation,
    Presentation,
    RowMonomialMatrix,
    SemigroupMorphism,
    build_cover,
    is_aggm,
    rees_coordinates,
    syntactic_semigroup,
    wreath_embed,
    wreath_product_0simple_check,
)
from soficsemi.errors import (
    CapExceeded,
    CheckFailed,
    DimensionMismatch,
    HypothesisViolated,
    NotFaithful,
    NotIdempotent,
    NotTransitive,
    RankTooHigh,
)
from soficsemi.finsemi import Carriers, close_generators, maximal_subgroup
from soficsemi.wreath import (
    CoverResult,
    EntrySemigroup,
    WreathEmbedding,
    _kernel_tuples,
    s_prime_check,
)
from oracles import (
    action_by_scan,
    close_by_products,
    eta,
    j_support_loop,
    preimage_completeness_check,
    rees_coordinates_by_scan,
    rho_loop,
)
from test_actions import ACTION_CASES, rlm_maps_oracle
from test_finsemi import GREEN_ORACLE_CASES


def distinguished_jclass_id(D):
    ok, j = is_aggm(D.semigroup)
    assert ok
    return D.semigroup.green().j_class[j[0]]


def rank1_partials(b):
    out = set()
    for dom in itertools.product([0, 1], repeat=b):
        for target in range(b):
            out.add(PartialTransformation(tuple(target if d else None for d in dom), b))
    return sorted(out, key=lambda t: tuple(-1 if v is None else v for v in t.mapping))


def test_rees_coordinates_group_case():
    Z3 = cyclic_group(3)
    rc = rees_coordinates(Z3, Z3.green().j_class[0])
    assert len(rc.a_ids) == len(rc.b_ids) == 1
    assert rc.sandwich == ((Z3.identity,),)


def test_rees_coordinates_period2():
    D = syntactic_semigroup(period_shift(2))
    rc = rees_coordinates(D.semigroup, distinguished_jclass_id(D))
    assert rc.group.n == 1
    assert len(rc.a_ids) == 2 and len(rc.b_ids) == 2
    flat = [v for row in rc.sandwich for v in row]
    assert flat.count(None) == 2  # a^2 = b^2 = 0 kills two cells
    S, j = D.semigroup, distinguished_jclass_id(D)
    for bad in (S.zero, next(x for x in range(S.n) if not S.is_idempotent(x)), S.n):
        with pytest.raises(NotIdempotent):
            rees_coordinates(S, j, idempotent=bad)


def test_rees_coordinates_t3_rank1():
    S = close_generators([PartialTransformation((1, 0)), PartialTransformation((0, 0))])
    g = S.green()
    rank1 = next(c for c in range(len(g.j_classes)) if S.names[g.j_classes[c][0]].rank == 1)
    rc = rees_coordinates(S, rank1)
    assert rc.group.n == 1
    assert {len(rc.a_ids), len(rc.b_ids)} == {1, 2}


def t3():
    """The full transformation monoid on 3 points (27 elements): its ranks
    3 and 2 have the groups S3 and Z2."""
    return close_generators([PartialTransformation(m) for m in ((1, 2, 0), (1, 0, 2), (0, 0, 2))])


REES_CASES = {
    **{f"actions-{k}": f for k, f in ACTION_CASES.items()},
    **{f"green-{k}": f for k, f in GREEN_ORACLE_CASES.items()},  # anchor 47 among them
    "t3-and-groups-with-zero": lambda: [t3(), *map(group_with_zero, (2, 3, 5))],
}
REES_FIELDS = ("a_ids", "b_ids", "sandwich", "e0", "coord", "v")


@pytest.mark.parametrize("case", sorted(REES_CASES))
def test_rees_coordinates_match_the_scan_oracle(case):
    """On every regular J-class, at its anchor and up to four other
    idempotents, the one-pass coordinates equal those found by scans over J
    and S, whose check of the Rees law on all pairs of J passes."""
    for S in REES_CASES[case]():
        g = S.green()
        for c, members in enumerate(g.j_classes):
            if not g.regular[c]:
                continue
            e0 = g.anchor(c)
            for e in [e0, *[x for x in members if x != e0 and S.is_idempotent(x)][:4]]:
                got, want = rees_coordinates(S, c, e), rees_coordinates_by_scan(S, c, e)
                assert ([getattr(got, f) for f in REES_FIELDS]
                        == [getattr(want, f) for f in REES_FIELDS]), (S, c, e)
                assert got.group.names == want.group.names


def test_rees_coordinates_multiply_linearly_in_j(monkeypatch):
    """No pass over pairs of J and no search over S: on anchor 47's
    distinguished class (|S| 1093, |J| 621, 27 x 23 cells) the coordinates
    take at most 5 (|J| + |A| |B|) products, where the all-pairs check of
    the Rees law alone took |J|^2."""
    D = syntactic_semigroup(random_presentation(47, 10, "abc"))
    S, c = D.semigroup, distinguished_jclass_id(D)
    calls, mul = [], S.mul
    monkeypatch.setattr(S, "mul", lambda x, y: calls.append(x) or mul(x, y))
    rees = rees_coordinates(S, c)
    cells = len(rees.a_ids) * len(rees.b_ids)
    assert (S.n, len(rees.coord), len(rees.a_ids), len(rees.b_ids)) == (1093, 621, 27, 23)
    assert len(calls) <= 5 * (len(rees.coord) + cells), len(calls)


def sandwich_factors(S, c):
    """The coordinates of class c at its anchor, with u[a] (coordinates
    (a, 1, 0)) and v[b] (coordinates (0, 1, b))."""
    rees = rees_coordinates(S, c)
    one = rees.group.identity
    u = {a: x for x, (a, k, b) in rees.coord.items() if k == one and b == 0}
    return rees, [u[a] for a in range(len(rees.a_ids))], rees.v


def test_rees_coordinates_refuse_a_sandwich_product_in_j_outside_h(monkeypatch):
    """The Rees law rests on every product v[b] * u[a] in J lying in H(e0);
    one such product sent into another R-class of J is refused by name, with
    (v[b], u[a]) as the witness."""
    for S, c in embedded_classes():
        g = S.green()
        rees, u, v = sandwich_factors(S, c)
        assert len(u) > 1 and len(v) > 1
        pair = (v[-1], u[-1])
        stray = next(x for x in g.j_classes[c] if g.r_class[x] != g.r_class[rees.e0])
        mul = S.mul
        monkeypatch.setattr(S, "mul", lambda x, y: stray if (x, y) == pair else mul(x, y))
        with pytest.raises(CheckFailed) as err:
            rees_coordinates(S, c)
        assert str(err.value).startswith("a sandwich product in J lies in H(e0)")
        assert err.value.witness == pair
        monkeypatch.undo()


def test_rees_coordinates_refuse_a_sandwich_line_with_no_entry(monkeypatch):
    """Every product v[b] * u[a] of one column a, or of one row b, sent out
    of J is refused by name with that index as the witness, rows where
    every column keeps an entry besides (the columns are checked first)."""
    tripped = set()
    for S, c in embedded_classes():
        g = S.green()
        rees, u, v = sandwich_factors(S, c)
        C, outside = rees.sandwich, next(x for x in range(S.n) if g.j_class[x] != c)
        columns = {a: {(vb, u[a]) for vb in v} for a in range(1, len(u))}
        rows = {b: {(v[b], ua) for ua in u} for b in range(1, len(v))
                if all(any(row[a] is not None for k, row in enumerate(C) if k != b)
                       for a in range(len(u)))}
        for message, lines in (("every column of the sandwich matrix has an entry", columns),
                               ("every row of the sandwich matrix has an entry", rows)):
            for k, pairs in lines.items():
                mul = S.mul
                monkeypatch.setattr(S, "mul",
                                    lambda x, y: outside if (x, y) in pairs else mul(x, y))
                with pytest.raises(CheckFailed) as err:
                    rees_coordinates(S, c)
                assert str(err.value).startswith(message)
                assert err.value.witness == k
                tripped.add(message)
                monkeypatch.undo()
    assert len(tripped) == 2


def test_wreath_embed_trivial_group_is_rlm_action():
    D = syntactic_semigroup(period_shift(2))
    S, j = D.semigroup, distinguished_jclass_id(D)
    emb = wreath_embed(S, j)
    assert emb.group.n == 1
    assert [m.support() for m in emb.matrices] == rlm_maps_oracle(S, j, emb.rees.b_ids)


def embedded_classes():
    """(S, distinguished J-class id) of a few syntactic semigroups whose
    distinguished class has more than one R-class."""
    found = []
    for P in (golden_mean(), even_shift(), random_presentation(1, 5, "ab")):
        D = syntactic_semigroup(P)
        found.append((D.semigroup, distinguished_jclass_id(D)))
    return found


def test_wreath_embed_refuses_an_r_class_edge_into_another_r_class(monkeypatch):
    """The action on R(e0) reads a product that leaves R(e0) as having left
    J for good; one product of R(e0) by a generator sent into another
    R-class of J is refused by name, with that edge as the witness."""
    for S, c in embedded_classes()[1:]:  # a generator outside J, so that
        g = S.green()                      # the Rees coordinates never read the edge
        e0 = wreath_embed(S, c).rees.e0
        r0 = g.r_classes[g.r_class[e0]]
        other = next(x for x in g.j_classes[c] if g.r_class[x] != g.r_class[e0])
        gen = next(y for y in S.generators if g.j_class[y] != c)
        edge = (r0[-1], gen)
        mul = S.mul
        monkeypatch.setattr(S, "mul", lambda x, y: other if (x, y) == edge else mul(x, y))
        with pytest.raises(CheckFailed) as err:
            wreath_embed(S, c)
        assert str(err.value).startswith("R(e0) times a generator stays in R(e0) or leaves J")
        assert err.value.witness == edge
        monkeypatch.undo()


def test_wreath_embed_multiplicativity_matches_all_pairs(monkeypatch):
    """With one matrix corrupted at a time (one row toggled between zero and
    (0, 0)), the check on Cayley edges (x, generator) rejects exactly the
    embeddings that some pair (x, y) breaks, and the pair it names really
    fails."""
    init, rejected = RowMonomialMatrix.__init__, 0
    for S, c in embedded_classes():
        for s in range(S.n):
            made = []

            def corrupting(self, entries, rows, s=s, made=made):
                rows = list(rows)
                if len(made) == s:
                    rows[0] = (0, 0) if rows[0] is None else None
                init(self, entries, rows)
                made.append(self)

            monkeypatch.setattr(RowMonomialMatrix, "__init__", corrupting)
            try:
                wreath_embed(S, c)
                err = None
            except (CheckFailed, NotFaithful) as exc:
                err = exc
            monkeypatch.undo()
            if len(set(made)) < S.n:
                assert isinstance(err, NotFaithful)
                continue
            if s in S.generators:  # read against the action before any product
                assert str(err).startswith("matrices act as right multiplication"), (S, s)
                continue
            broken = any(made[x] * made[y] != made[S.mul(x, y)]
                         for x in range(S.n) for y in range(S.n))
            named = isinstance(err, CheckFailed) and str(err).startswith(
                "the embedding is multiplicative")
            assert named == broken, (S, s)
            if named:
                x, gen = err.witness
                assert gen in S.generators
                assert made[x] * made[gen] != made[S.mul(x, gen)]
                rejected += 1
    assert rejected > 0


def test_wreath_embed_refuses_a_corrupted_generator_row(monkeypatch):
    """The action check reads the generators' matrices only; the last row of
    one generator's matrix, changed so that the matrix is no other element's,
    is refused by name, with the first pair (x in R(e0), generator) that the
    scan over all of S names, and the clean embedding passes that scan."""
    init = RowMonomialMatrix.__init__
    for S, c in embedded_classes():
        clean = wreath_embed(S, c)
        assert action_by_scan(S, clean) is None
        last, taken = len(clean.rees.b_ids) - 1, set(clean.matrices)
        for gen in S.generators:
            rows = list(clean.matrices[gen].rows)
            for rows[last] in [None, *itertools.product(range(last + 1), range(clean.group.n))]:
                if RowMonomialMatrix(clean.entries, rows) not in taken:
                    break
            made = []

            def corrupting(self, entries, given, made=made, rows=rows):
                init(self, entries, rows if len(made) == gen else given)
                made.append(self)

            monkeypatch.setattr(RowMonomialMatrix, "__init__", corrupting)
            with pytest.raises(CheckFailed) as err:
                wreath_embed(S, c)
            monkeypatch.undo()
            assert str(err.value).startswith(
                "matrices act as right multiplication in coordinates"), (S, gen)
            corrupted = WreathEmbedding(clean.rees, clean.entries, made, None)
            assert err.value.witness == action_by_scan(S, corrupted)
            assert err.value.witness[1] == gen


def test_wreath_embed_zero_simple_with_z2_subgroup():
    # Rees matrix semigroup over Z2 with identity sandwich (Brandt-style):
    # 2x2 grid of H-classes, faithful R-class action, subgroup Z2
    elems = [(a, g, b) for a in range(2) for g in range(2) for b in range(2)]
    idx = {e: i for i, e in enumerate(elems)}
    zero = len(elems)

    def mult(x, y):
        if x == zero or y == zero:
            return zero
        a, g, b = elems[x]
        a2, g2, b2 = elems[y]
        if b != a2:  # sandwich C = diag(identity, identity)
            return zero
        return idx[(a, (g + g2) % 2, b2)]

    n = len(elems) + 1
    table = [[mult(x, y) for y in range(n)] for x in range(n)]
    S = FiniteSemigroup(table, generators=list(range(n)))
    g = S.green()
    top = next(c for c in range(len(g.j_classes)) if zero not in g.j_classes[c])
    emb = wreath_embed(S, top)
    assert emb.group.n == 2
    for x in range(S.n):
        for y in range(S.n):
            assert emb.matrices[x] * emb.matrices[y] == emb.matrices[S.mul(x, y)]
    # every maximal-subgroup element shows up as its own corner entry
    for k_elt in emb.group.names:
        m = emb.matrices[k_elt]
        assert m.entry(0, 0) == emb.group.names.index(k_elt)


def test_structure_lemma_rank1_partials():
    for G in (cyclic_group(2), cyclic_group(3)):
        for b in (1, 2, 3):
            T = rank1_partials(b)
            ws = wreath_product_0simple_check(G, T)
            expected = "simple" if all(t.is_total() for t in T) else "0-simple"
            assert ws.kind == expected
            assert len(ws.psi) == G.n


def test_structure_lemma_total_constants_simple():
    for G in (cyclic_group(2), cyclic_group(3)):
        for b in (1, 2, 3):
            T = [PartialTransformation([t] * b) for t in range(b)]
            ws = wreath_product_0simple_check(G, T)
            assert ws.kind == "simple"
            assert ws.semigroup.n == G.n ** b * b


def test_structure_lemma_rejects_bad_inputs():
    Z2 = cyclic_group(2)
    with pytest.raises(RankTooHigh):
        wreath_product_0simple_check(Z2, [PartialTransformation((0, 1))])
    T = [PartialTransformation([0, 0]), PartialTransformation([None, None])]
    with pytest.raises(NotTransitive):
        wreath_product_0simple_check(Z2, T)
    with pytest.raises(HypothesisViolated):
        wreath_product_0simple_check(Z2, [])
    with pytest.raises(HypothesisViolated):  # constant 0 then (0 -> 1) is constant 1
        wreath_product_0simple_check(Z2, [PartialTransformation([0, 0]),
                                          PartialTransformation((1, None))])


def test_structure_lemma_input_check_survives_optimize():
    """A T that is not closed under composition is rejected by a typed error
    under `python -O`, where an assert would let it through."""
    code = (
        "from soficsemi import PartialTransformation, wreath_product_0simple_check\n"
        "from corpus import cyclic_group\n"
        "from soficsemi.errors import HypothesisViolated\n"
        "assert False, 'asserts are on'\n"
        "T = [PartialTransformation([0, 0]), PartialTransformation((1, None))]\n"
        "try:\n"
        "    wreath_product_0simple_check(cyclic_group(2), T)\n"
        "except HypothesisViolated as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("hypothesis 'T' violated: T is not closed under composition")


def gm3_data():
    return syntactic_semigroup(golden_mean(), extra_letters=("c",))


def even3_data():
    return syntactic_semigroup(even_shift(), extra_letters=("c",))


def test_build_cover_identity_alpha():
    D = gm3_data()
    H = FiniteSemigroup([[0]], [0], check=False)
    res = build_cover(D, H, [0], ("a", "b"), ("a",))
    assert res.report["theta_iso"] and res.report["alpha_theta_is_rho"]
    assert res.report["subgroup_size"] == 1
    # rho . eta = phi on all generator words up to length 6
    for n in range(1, 7):
        for w in itertools.product(D.alphabet, repeat=n):
            assert res.rho[eta(res, w)] == D.image(w)


def test_build_cover_z2_over_trivial_k():
    D = even3_data()
    Z2 = cyclic_group(2)
    res = build_cover(D, Z2, [0, 0], ("a", "b", "b"), ("a",))
    assert res.report["subgroup_size"] == 2
    assert res.p > res.ell >= 2
    assert sorted(res.theta.values()) == [0, 1]
    # theta is a group isomorphism onto H and alpha . theta = rho
    sub = sorted(res.theta)
    for x in sub:
        for y in sub:
            assert res.theta[res.s_prime.mul(x, y)] == (res.theta[x] + res.theta[y]) % 2
    # preimage completeness on all language words with x_n, length <= 8
    for n in range(1, 9):
        for w in itertools.product(("a", "b"), repeat=n):
            if "b" not in w or D.image(w) == D.zero:
                continue
            blocks, preimages = preimage_completeness_check(res, w)
            assert blocks == preimages
    with pytest.raises(HypothesisViolated):
        preimage_completeness_check(res, ("a", "c"))  # the dead letter maps to zero


def test_build_cover_known_collapse_on_rank1_prefix():
    """A left factor acting with rank 1 collapses the row twists, so the
    block entries realize a proper subset of the preimages; the corner map
    still sweeps the kernel and the subgroup conclusions hold."""
    D = gm3_data()
    Z2 = cyclic_group(2)
    res = build_cover(D, Z2, [0, 0], ("a", "b"), ("a",))
    assert res.report["theta_iso"] and res.report["alpha_theta_is_rho"]
    blocks, preimages = preimage_completeness_check(res, ("a", "b"))
    assert blocks < preimages
    blocks, preimages = preimage_completeness_check(res, ("b", "a"))
    assert blocks == preimages


def test_cover_rejects_letters_outside_its_alphabet():
    res = build_cover(gm3_data(), cyclic_group(2), [0, 0], ("a", "b"), ("a",))
    with pytest.raises(HypothesisViolated, match="letter 'q' is not in the cover's alphabet"):
        eta(res, ("q",))
    with pytest.raises(HypothesisViolated, match="letter 'q'"):
        preimage_completeness_check(res, ("a", "b", "q"))
    assert eta(res, iter(("a", "b"))) == eta(res, ("a", "b"))


def test_build_cover_zero_criterion_sampled():
    import random

    D = even3_data()
    Z2 = cyclic_group(2)
    res = build_cover(D, Z2, [0, 0], ("a", "b", "b"), ("a",))
    rng = random.Random(0)
    for _ in range(2000):
        w = tuple(rng.choice(D.alphabet) for _ in range(rng.randint(1, 12)))
        assert res.s_prime.names[eta(res, w)].is_zero() == (D.image(w) == D.zero)


def test_build_cover_hypothesis_checks():
    D = gm3_data()
    Z2 = cyclic_group(2)
    with pytest.raises(HypothesisViolated):
        build_cover(D, Z2, [0, 0], ("a", "b"), ("b",))  # z must avoid x_n
    with pytest.raises(HypothesisViolated):
        build_cover(D, Z2, [0, 0], ("a",), ("a",))  # e-word must contain x_n
    with pytest.raises(HypothesisViolated):
        build_cover(D, Z2, [0, 1], ("a", "b"), ("a",))  # alpha not onto K-range


def test_build_cover_larger_groups():
    D = even3_data()
    Z4 = FiniteSemigroup(
        [[(i + j) % 4 for j in range(4)] for i in range(4)], [1], check=False
    )
    res = build_cover(D, Z4, [0] * 4, ("a", "b", "b"), ("a",))
    assert res.p == 17 and res.ell == 16
    assert sorted(res.theta.values()) == [0, 1, 2, 3]

    klein = FiniteSemigroup(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], [1, 2], check=False
    )
    res2 = build_cover(D, klein, [0] * 4, ("a", "b", "b"), ("a",))
    assert res2.report["subgroup_size"] == 4
    for x in res2.theta:  # elementary abelian: every element squares to e
        assert res2.s_prime.mul(x, x) == res2.e_prime


def test_build_cover_full_shift_minimal_ideal_case():
    """Over the full shift (with an ambient dead letter) the construction
    specializes to the minimal-ideal case; a Z3 cover of the trivial
    subgroup is recovered exactly, with exact preimage sets since the
    single L-class makes every letter act injectively."""
    from soficsemi import Presentation, syntactic_semigroup

    full2 = Presentation(1, [(0, "a", 0), (0, "b", 0)])
    D = syntactic_semigroup(full2, extra_letters=("c",))
    Z3 = cyclic_group(3)
    res = build_cover(D, Z3, [0, 0, 0], ("a", "b"), ("a",))
    assert res.report["subgroup_size"] == 3
    assert sorted(res.theta.values()) == [0, 1, 2]
    for n in range(1, 7):
        for w in itertools.product("ab", repeat=n):
            if "b" not in w:
                continue
            blocks, preimages = preimage_completeness_check(res, w)
            assert blocks == preimages


def test_build_cover_three_live_letters():
    """A shift with three live letters exercises the diagonal generators
    (letters after x_1 and before x_n act blockwise on the diagonal)."""
    from soficsemi import Presentation, syntactic_semigroup

    P = Presentation(
        3, [(0, "a", 0), (0, "b", 1), (1, "a", 0), (0, "c", 2), (2, "a", 0)]
    )
    D = syntactic_semigroup(P, extra_letters=("d",))
    Z2 = cyclic_group(2)
    res = build_cover(D, Z2, [0, 0], ("a", "c"), ("a", "b"))
    assert res.report["subgroup_size"] == 2
    assert res.report["theta_iso"] and res.report["alpha_theta_is_rho"]
    # the middle letter acts blockwise on the diagonal of [p]
    xb = res.s_prime.names[res.s_prime.generators[1]]
    assert all(row is not None and row[0] == i for i, row in enumerate(xb.rows))
    import itertools

    rng_words = itertools.product("abcd", repeat=6)
    for w in itertools.islice(rng_words, 0, None, 7):
        assert res.rho[eta(res, w)] == D.image(w)


def test_full_reduction_pipeline_witness_recode_cover():
    """End to end: a non-minimal shift with no letter powers is recoded via
    its length-2 witness so that a block word z uses a proper sub-alphabet,
    and the cover construction runs on the recoded system."""
    from soficsemi import (
        Presentation,
        conjugate_with_partial_alphabet,
        non_minimal_witness,
        syntactic_semigroup,
    )
    from soficsemi.finsemi import omega_power

    P = Presentation(2, [(0, "a", 1), (1, "b", 0), (1, "c", 0)])
    w, v = non_minimal_witness(P)
    assert ("".join(w), "".join(v)) == ("ab", "ac")
    P2, z = conjugate_with_partial_alphabet(P)
    assert z == ("ab", "ba") and set(z) < set(P2.alphabet)

    D = syntactic_semigroup(P2, extra_letters=("dead",))
    X = D.alphabet
    n = len(X) - 1
    assert set(z) <= set(X[: n - 1]) and X[0] in set(z)
    e_word = ("ac", "ca")
    S = D.semigroup
    e = D.image(e_word)
    assert S.is_idempotent(e)
    assert S.mul(omega_power(S, D.image(z)), e) == e
    Z2 = cyclic_group(2)
    res = build_cover(D, Z2, [0, 0], e_word, z)
    assert res.report["subgroup_size"] == 2
    assert res.report["theta_iso"] and res.report["alpha_theta_is_rho"]
    assert res.ell == 8 and res.p == 11


def test_cover_chain_feeds_image_apex():
    """The quotient rho: S' -> S_X is a generator-compatible surjection whose
    minimal lifted class is exactly the cover's distinguished class."""
    from soficsemi import SemigroupMorphism, image_apex

    D = even3_data()
    Z2 = cyclic_group(2)
    res = build_cover(D, Z2, [0, 0], ("a", "b", "b"), ("a",))
    psi = SemigroupMorphism(res.s_prime, D.semigroup, res.rho)
    psi.validate()
    assert image_apex(psi, D) == res.j_prime


def test_cover_serialization_round_readable():
    D = gm3_data()
    H = FiniteSemigroup([[0]], [0], check=False)
    res = build_cover(D, H, [0], ("a", "b"), ("a",))
    text = res.serialize()
    assert text.startswith("cover p ")
    assert "generator a" in text and "rho 0" in text


def entrywise_product(a_rows, b_rows, E):
    """(AB)[i][j] = sum over k of A[i][k] * B[k][j], with entries multiplied
    by E's semigroup and E.dead read as 0: the definition, as the oracle."""
    n = len(a_rows)
    dense = [[None] * n for _ in range(n)]
    for k, r in enumerate(b_rows):
        if r is not None:
            dense[k][r[0]] = r[1]
    out = []
    for r in a_rows:
        terms = [] if r is None else [
            (j, E.semigroup.mul(r[1], b)) for j, b in enumerate(dense[r[0]]) if b is not None
        ]
        terms = [(j, t) for j, t in terms if t != E.dead]
        assert len(terms) <= 1
        out.append(terms[0] if terms else None)
    return tuple(out)


def random_rows(rng, size, live):
    return tuple(
        None if rng.random() < 0.3 else (rng.randrange(size), rng.choice(live))
        for _ in range(size)
    )


def test_row_monomial_and_block_arithmetic():
    Z2 = EntrySemigroup(cyclic_group(2))
    m = RowMonomialMatrix(Z2, ((1, 1), None))
    z = RowMonomialMatrix.zero(Z2, 2)
    assert (m * z).is_zero()
    d = RowMonomialMatrix.diagonal(Z2, (1, 1))
    assert (d * d).rows == ((0, 0), (1, 0))
    T = close_generators([m])
    inner = EntrySemigroup(T, dead=T.names.index(m * m))
    b = RowMonomialMatrix(inner, ((1, 0), None))
    assert (b * RowMonomialMatrix.zero(inner, 2)).is_zero()
    assert b.block(0, 1) == m and b.block(1, 0) is None
    assert (b * b).is_zero()  # m * m is T's zero block, so the row dies

    # seeded random products against the entrywise definition, over Z3 and
    # over a semigroup whose zero is the dead entry
    P2 = period2_syntactic_table()
    rng = random.Random(5)
    for E in (EntrySemigroup(cyclic_group(3)), EntrySemigroup(P2, dead=P2.zero)):
        live = [t for t in range(E.semigroup.n) if t != E.dead]
        for size in (1, 2, 3, 5):
            for _ in range(60):
                a, c = random_rows(rng, size, live), random_rows(rng, size, live)
                prod = RowMonomialMatrix(E, a) * RowMonomialMatrix(E, c)
                assert prod.rows == entrywise_product(a, c, E)
                assert prod == RowMonomialMatrix(E, prod.rows)
                assert [[prod.entry(i, j) for j in range(size)] for i in range(size)] == [
                    [None if r is None or r[0] != j else r[1] for j in range(size)]
                    for r in prod.rows]

    Z3 = EntrySemigroup(cyclic_group(3))
    dead = EntrySemigroup(P2, dead=P2.zero)
    for entries, rows in ((Z3, ((2, 0), None)), (Z3, ((0, -1), None)), (Z3, ((0, 3), None)),
                          (dead, ((0, P2.zero),)), (dead, ((0, 0), (-1, 0)))):
        with pytest.raises(DimensionMismatch):
            RowMonomialMatrix(entries, rows)
    other = EntrySemigroup(cyclic_group(3))
    with pytest.raises(DimensionMismatch):
        RowMonomialMatrix(Z3, ((0, 1),)) * RowMonomialMatrix(other, ((0, 1),))
    with pytest.raises(DimensionMismatch):
        RowMonomialMatrix.zero(Z3, 1) * RowMonomialMatrix.zero(Z3, 2)
    assert RowMonomialMatrix(Z3, ((0, 1),)) != RowMonomialMatrix(other, ((0, 1),))


ObjectBlock = namedtuple("ObjectBlock", "rows")


class ObjectBlockMatrix:
    """Block row-monomial matrix whose blocks are row tuples over H,
    multiplied entry by entry through H.mul: the oracle for the table-driven
    product of the cover."""

    __slots__ = ("p", "H", "rows", "_hash")

    def __init__(self, p, H, rows):
        rows = tuple(rows)
        assert len(rows) == p
        for r in rows:
            if r is not None:
                c, blk = r
                assert 0 <= c < p and any(blk.rows)
        self.p = p
        self.H = H
        self.rows = rows
        self._hash = hash(rows)

    @property
    def dim(self):
        return ("block", self.p)

    def __mul__(self, other):
        H = self.H
        out = []
        for r in self.rows:
            nxt = None if r is None else other.rows[r[0]]
            if nxt is None:
                out.append(None)
                continue
            prod = []
            for e in r[1].rows:
                f = None if e is None else nxt[1].rows[e[0]]
                prod.append(None if f is None else (f[0], H.mul(e[1], f[1])))
            out.append((nxt[0], ObjectBlock(tuple(prod))) if any(prod) else None)
        return ObjectBlockMatrix(self.p, H, out)

    def __eq__(self, other):
        return isinstance(other, ObjectBlockMatrix) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def is_zero(self):
        return all(r is None for r in self.rows)

    def block(self, i, j):
        r = self.rows[i]
        return r[1] if r is not None and r[0] == j else None

    def block_entries(self):
        return [r[1] for r in self.rows if r is not None]

    def rotate(self, shift):
        rows = [None] * self.p
        for i, r in enumerate(self.rows):
            if r is not None:
                rows[(i - shift) % self.p] = ((r[0] - shift) % self.p, r[1])
        return ObjectBlockMatrix(self.p, self.H, rows)


def decoded_rows(mat):
    names = mat.entries.names
    return tuple(None if r is None else (r[0], ObjectBlock(names[r[1]].rows)) for r in mat.rows)


def assert_matches_object_closure(D, res, alpha):
    """Closing the generators as object matrices gives the same elements in
    the same order, the same Cayley graph, rho, theta and serialization."""
    S = res.s_prime
    gens = [ObjectBlockMatrix(res.p, res.group_h, decoded_rows(S.names[g]))
            for g in S.generators]
    oracle = close_by_products(gens, cap=10 ** 6)
    assert oracle.n == S.n and oracle.generators == S.generators
    assert oracle._cols == S._cols
    assert all(oracle.names[x].rows == decoded_rows(S.names[x]) for x in range(S.n))
    for g in S.generators:  # the cyclic renaming, also for shifts other than the column
        for shift in range(res.p):
            assert decoded_rows(S.names[g].rotate(shift)) == oracle.names[g].rotate(shift).rows
    emb = res.embedding
    rho = tuple(
        D.zero if mat.is_zero()
        else emb.lookup[RowMonomialMatrix(emb.entries, (
            None if e is None else (e[0], alpha[e[1]]) for e in mat.block_entries()[0].rows))]
        for mat in oracle.names
    )
    assert rho == res.rho
    assert all(rho[x] == D.image(oracle.word_letters(x, D.alphabet)) for x in range(S.n))
    theta = {
        x: oracle.names[x].block(res.column, res.column).rows[0][1]
        for x in maximal_subgroup(oracle, res.e_prime).names
    }
    assert all(oracle.names[x].block(res.column, res.column).rows[0][0] == 0 for x in theta)
    assert theta == res.theta
    fields = {name: getattr(res, name) for name in CoverResult.__slots__}
    rebuilt = CoverResult(**{**fields, "s_prime": oracle, "rho": rho, "theta": theta})
    assert rebuilt.serialize() == res.serialize()


def test_integer_blocks_match_object_closure():
    for D, e_word, z_word in ((even3_data(), ("a", "b", "b"), ("a",)),
                              (gm3_data(), ("a", "b"), ("a",))):
        for k in (2, 3):
            res = build_cover(D, cyclic_group(k), [0] * k, e_word, z_word)
            assert_matches_object_closure(D, res, [0] * k)
    full2 = Presentation(1, [(0, "a", 0), (0, "b", 0)])
    D = syntactic_semigroup(full2, extra_letters=("c",))
    res = build_cover(D, cyclic_group(3), [0, 0, 0], ("a", "b"), ("a",))
    assert_matches_object_closure(D, res, [0, 0, 0])
    P = Presentation(3, [(0, "a", 0), (0, "b", 1), (1, "a", 0), (0, "c", 2), (2, "a", 0)])
    D = syntactic_semigroup(P, extra_letters=("d",))
    res = build_cover(D, cyclic_group(2), [0, 0], ("a", "c"), ("a", "b"))
    assert_matches_object_closure(D, res, [0, 0])


def test_cover_inner_closure_honours_cap():
    D = even3_data()
    res = build_cover(D, cyclic_group(2), [0, 0], ("a", "b", "b"), ("a",))
    inner = res.s_prime.names[0].entries.semigroup
    assert inner.n < res.s_prime.n
    with pytest.raises(CapExceeded):
        build_cover(D, cyclic_group(2), [0, 0], ("a", "b", "b"), ("a",), cap=inner.n - 1)
    again = build_cover(D, cyclic_group(2), [0, 0], ("a", "b", "b"), ("a",), cap=res.s_prime.n)
    assert again.serialize() == res.serialize()


def test_cover_check_survives_optimize():
    """A non-group H with an identity passes the hypothesis checks; the named
    corner-sweep check rejects it under `python -O`, where an assert would not."""
    code = (
        "from test_wreath import gm3_data\n"
        "from soficsemi import FiniteSemigroup, build_cover\n"
        "from soficsemi.errors import CheckFailed\n"
        "H = FiniteSemigroup([[0, 1], [1, 1]], [0, 1], check=False)\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    build_cover(gm3_data(), H, [0, 0], ('a', 'b'), ('a',))\n"
        "except CheckFailed as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("corner entries of eta(e) must sweep the kernel, witness")


def cover_check_args(D, res, alpha):
    """The arguments `build_cover` passes to `s_prime_check`, rebuilt from
    its result, and the twists and T-index that `j_support_loop` reads."""
    S, emb = res.s_prime, res.embedding
    T = S.names[0].entries.semigroup
    block_rho = [emb.lookup.get(blk.map_entries(lambda h: alpha[h], emb.entries))
                 for blk in T.names]
    phi_w = SemigroupMorphism.from_generator_map(
        S, D.semigroup, [D.letter_map[a] for a in D.alphabet], check=False).mapping
    twists = [RowMonomialMatrix.diagonal(T.names[0].entries, values)
              for values in _kernel_tuples(res.kernel, len(emb.rees.b_ids), res.group_h)]
    t_index = {blk: t for t, blk in enumerate(T.names)}
    members = S.green().j_classes[res.j_prime]
    return [S, block_rho, list(phi_w), D.zero, members, D.alphabet], (twists, t_index)


def reference_loops(s_prime, block_rho, phi_w, zero, members, letters, twists, t_index):
    """`rho_loop` over all of S', then `j_support_loop` over J'."""
    rho = rho_loop(s_prime, block_rho, phi_w, zero, letters)
    j_support_loop(s_prime, members, twists, t_index, letters)
    return rho


def with_rows(S, x, change):
    """A copy of S' whose element x is the matrix of its rows after
    `change(rows)`; nothing else changes."""
    bad = copy.copy(S)
    rows = list(S.names[x].rows)
    change(rows)
    keys = [mat._b for mat in S.names]
    keys[x] = RowMonomialMatrix(S.names[x].entries, rows)._b
    bad.names = Carriers(keys, S.names[0]._wrap, {})
    return bad


def check_faults(k=2):
    """One corrupted input per case for the whole-S' check of the even-shift
    Zk cover: (case, the check's outcome, the reference loops' outcome), an
    outcome being the CheckFailed message and witness word, or None."""
    D = even3_data()
    res = build_cover(D, cyclic_group(k), [0] * k, ("a", "b", "b"), ("a",))
    args, (twists, t_index) = cover_check_args(D, res, [0] * k)
    S, _, phi_w, _, members, _ = args
    blocks = S.names[0].entries.names
    x = next(x for x in range(S.n) if x != S.zero)
    m = members[len(members) // 2]
    p = S.names[m].dim
    t0 = S.names[m].rows[0][1]
    preimages = {t_index.get(tw * blocks[t0]) for tw in twists}
    t_bad = next(t for t in range(len(blocks)) if t not in preimages
                 and t != S.names[0].entries.dead)

    def second_column(rows):
        rows[1] = ((rows[1][0] + 1) % p, rows[1][1])

    def not_a_preimage(rows):
        rows[1] = (rows[1][0], t_bad)

    def zero_row(rows):
        rows[-1] = None

    def zero_matrix(rows):
        rows[:] = [None] * len(rows)

    wrong_image = list(args[1])
    t = S.names[x].rows[0][1]
    wrong_image[t] = next(s for s in range(D.semigroup.n) if s not in (wrong_image[t], D.zero))
    phi_zero, eta_zero = list(phi_w), list(phi_w)
    phi_zero[x] = D.zero
    eta_zero[S.zero] = phi_zero[m]
    cases = {
        "clean": args,
        "zero row": [with_rows(S, x, zero_row), *args[1:]],
        "wrong alpha-image": [S, wrong_image, *args[2:]],
        "phi(u) = 0": [*args[:2], phi_zero, *args[3:]],
        "eta(u) = 0": [*args[:2], eta_zero, *args[3:]],
        "zero matrix off the zero": [with_rows(S, x, zero_matrix), args[1], phi_zero, *args[3:]],
        "second column": [with_rows(S, m, second_column), *args[1:]],
        "not a preimage": [with_rows(S, m, not_a_preimage), *args[1:]],
    }

    def outcome(func, args):
        try:
            func(*args)
        except CheckFailed as exc:
            return str(exc), exc.witness
        return None

    return [(case, outcome(s_prime_check, args),
             outcome(reference_loops, [*args, twists, t_index]))
            for case, args in cases.items()]


# A block that is no twist preimage of its row's others has another
# alpha-image, so rho, which runs first, names it.
FAULT_MESSAGES = {
    "clean": None,
    "zero row": "non-zero elements are total on [p]",
    "wrong alpha-image": "rho . eta must equal phi",
    "phi(u) = 0": "phi(u) = 0 must force eta(u) = 0",
    "eta(u) = 0": "eta(u) = 0 must force phi(u) = 0",
    "zero matrix off the zero": "phi(u) = 0 must force eta(u) = 0",
    "second column": "blocks of J' lie in one column",
    "not a preimage": "block entries must agree under alpha",
}


def test_cover_checks_match_reference_loops_on_faults():
    """Each fault is caught by the set tests with the reference loops'
    message and witness word, and the clean input passes both."""
    assert_faults_match_reference_loops(2, bytes)


def test_cover_checks_match_reference_loops_on_tuple_keys():
    """The same on the even-shift Z4 cover, whose 833 points of [p] x T put
    the keys of S' on the tuple path."""
    assert_faults_match_reference_loops(4, tuple)


def assert_faults_match_reference_loops(k, packed):
    D = even3_data()
    res = build_cover(D, cyclic_group(k), [0] * k, ("a", "b", "b"), ("a",))
    assert type(res.s_prime.names[0]._b) is packed
    args, loop_args = cover_check_args(D, res, [0] * k)
    assert s_prime_check(*args) == reference_loops(*args, *loop_args) == res.rho
    for case, got, want in check_faults(k):
        assert got == want, case
        message = FAULT_MESSAGES[case]
        assert (got is None) if message is None else got[0].startswith(message + ", witness ("), \
            (case, got)


COVER_SPECS = {"even": (even3_data, ("a", "b", "b")), "golden_mean": (gm3_data, ("a", "b"))}


@pytest.mark.parametrize("shift", sorted(COVER_SPECS))
def test_twist_preimages_are_the_blocks_of_one_alpha_image(shift):
    """The argument `s_prime_check` rests on: for every block B of T, the
    blocks of T with B's alpha-image are exactly the twist preimages tau * B
    that lie in T (on `golden_mean` some lie outside it).
    K = 1 on these covers, as on every syntactic semigroup (ROADMAP item
    4), so alpha sends all of H to the identity and the twists are all the
    diagonal H-tuples."""
    data, e_word = COVER_SPECS[shift]
    D = data()
    for k in (2, 3, 4, 5):
        res = build_cover(D, cyclic_group(k), [0] * k, e_word, ("a",))
        assert res.embedding.group.n == 1 and len(res.kernel) == k
        (_, block_rho, *_), (twists, t_index) = cover_check_args(D, res, [0] * k)
        blocks = res.s_prime.names[0].entries.names
        assert None not in block_rho
        for t, blk in enumerate(blocks):
            same = {u for u, v in enumerate(block_rho) if v == block_rho[t]}
            assert same == {t_index.get(tw * blk) for tw in twists} - {None}, (shift, k, t)


def test_cover_check_makes_no_block_product_and_runs_once(monkeypatch):
    """`build_cover` checks S' once, over J' as well, and that check
    multiplies no matrices: on the even-shift Z3 cover it tells twist
    preimages by their alpha-images."""
    import soficsemi.wreath as wreath

    calls, inside, products = [], [], []
    check, mul = wreath.s_prime_check, RowMonomialMatrix.__mul__

    def counted_check(*args):
        calls.append(args)
        inside.append(True)
        try:
            return check(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(wreath, "s_prime_check", counted_check)
    monkeypatch.setattr(RowMonomialMatrix, "__mul__",
                        lambda a, b: (inside and products.append(a)) or mul(a, b))
    res = build_cover(even3_data(), cyclic_group(3), [0, 0, 0], ("a", "b", "b"), ("a",))
    assert len(calls) == 1 and calls[0][0] is res.s_prime
    assert calls[0][4] == res.s_prime.green().j_classes[res.j_prime]
    assert products == []


def test_cover_checks_catch_faults_under_optimize():
    code = (
        "from test_wreath import check_faults\n"
        "assert False, 'asserts are on'\n"
        "for k in (2, 4):\n"
        "    for case, got, want in check_faults(k):\n"
        "        print(repr((case, got == want, got)))\n"
    )
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    seen = [ast.literal_eval(line) for line in out.stdout.splitlines()]
    assert [case for case, _, _ in seen] == list(FAULT_MESSAGES) * 2
    for case, same, got in seen:
        assert same, case
        message = FAULT_MESSAGES[case]
        assert (got is None) if message is None else got[0].startswith(message), (case, got)
