import itertools
import os
import random
import subprocess
import sys

import pytest

import soficsemi
from corpus import (
    chain_semilattice,
    corpus_presentations,
    cyclic_group,
    even_shift,
    full_shift,
    golden_mean,
    golden_mean_syntactic_table,
    group_with_zero,
    period2_syntactic_table,
    period_shift,
    random_presentation,
    random_transformation_semigroup,
    renumbered_table,
    trivial_semigroup,
)
from soficsemi import (
    FiniteSemigroup,
    SemigroupMorphism,
    aggm_backward_check,
    aggm_forward_check,
    factor_dfa,
    fischer_cover,
    format_presentation,
    image_apex,
    is_aggm,
    syntactic_semigroup,
)
from soficsemi.errors import NoCompatibleTriangle, NotAGGM
from oracles import (
    context_profile_classes,
    faithful_both_sides_by_tuples,
    image_by_products,
    in_language,
    j_below_set,
    separating_contexts_by_tuples,
)
from test_finsemi import GREEN_ORACLE_CASES
from soficsemi.finsemi import parse_semigroup
from soficsemi.syntactic import (
    _faithful_both_sides,
    generator_isomorphic,
    separating_contexts,
)


def test_full_shift_syntactic_is_trivial():
    D = syntactic_semigroup(full_shift(2))
    assert D.semigroup.n == 1
    assert D.zero is None
    assert in_language(D, tuple("abba"))


def test_period2_syntactic_matches_hand_table():
    D = syntactic_semigroup(period_shift(2))
    assert D.semigroup.n == 5
    assert D.zero is not None
    a = D.letter_map["a"]
    assert D.semigroup.mul(a, a) == D.zero
    assert generator_isomorphic(D.semigroup, period2_syntactic_table())


def test_golden_mean_syntactic_matches_hand_table():
    D = syntactic_semigroup(golden_mean())
    assert D.semigroup.n == 5
    assert generator_isomorphic(D.semigroup, golden_mean_syntactic_table())


@pytest.mark.parametrize("P", [golden_mean(), period_shift(2), even_shift()])
def test_syntactic_congruence_oracle(P):
    """Context-profile classes (membership via the presentation itself) agree
    with the transition-semigroup image on words up to length 5."""
    D = syntactic_semigroup(P)
    classes = context_profile_classes(P, max_word_len=5, max_context_len=D.dfa.n_states)
    by_image = {}
    for words in classes:
        for w in words:
            by_image.setdefault(D.image(w), set()).add(w)
    # each profile class is exactly one image class
    image_classes = {frozenset(v) for v in by_image.values()}
    profile_classes = {frozenset(c) for c in classes}
    assert image_classes == profile_classes


@pytest.mark.parametrize("P", [golden_mean(), period_shift(2), even_shift(), full_shift(2),
                               random_presentation(22, 10, "abc")])
def test_lambda_zero_iff_not_factor(P):
    """A word maps to zero exactly when it is not a factor, and its image is
    the fold of `mul` over its letters."""
    D = syntactic_semigroup(P)
    d = factor_dfa(P)
    for n in range(1, 7):
        for w in itertools.product(P.alphabet, repeat=n):
            assert in_language(D, w) == d.accepts(w)
            assert D.image(w) == image_by_products(D, w)
    with pytest.raises(KeyError):
        D.image(("a", "q"))


def test_is_aggm_on_examples():
    assert is_aggm(trivial_semigroup())[0]
    ok, j = is_aggm(period2_syntactic_table())
    assert ok and sorted(j) == [0, 1, 2, 3]
    assert not is_aggm(group_with_zero(2))[0]
    assert is_aggm(chain_semilattice())[0]


def test_separating_contexts_criterion():
    S = period2_syntactic_table()
    ok, j = is_aggm(S)
    profiles = separating_contexts(S, j)
    assert all(len(v) == 1 for v in profiles.values())


def criterion_holds(S):
    """Membership-profile criterion: some regular J-class separates all
    elements by two-sided translation into it."""
    g = S.green()
    for c in range(len(g.j_classes)):
        if not g.regular[c]:
            continue
        profiles = separating_contexts(S, g.j_classes[c])
        if all(len(v) == 1 for v in profiles.values()):
            return True
    return False


def test_aggm_agrees_with_membership_criterion():
    from corpus import cyclic_group, even_shift, full_shift

    candidates = [
        trivial_semigroup(),
        chain_semilattice(),
        period2_syntactic_table(),
        golden_mean_syntactic_table(),
        group_with_zero(2),
        group_with_zero(3),
        cyclic_group(3),
        syntactic_semigroup(even_shift()).semigroup,
        syntactic_semigroup(full_shift(2)).semigroup,
    ]
    for S in candidates:
        assert is_aggm(S)[0] == criterion_holds(S)


def test_aggm_forward_on_presentations():
    for P in (golden_mean(), even_shift(), period_shift(3)):
        report = aggm_forward_check(P)
        assert report["is_aggm"]


def test_aggm_forward_check_reads_the_r0_action_once(monkeypatch):
    """`is_aggm` and `separating_contexts` read one right action on R0: one
    `right_action` call per `aggm_forward_check` run."""
    calls, right_action = [], FiniteSemigroup.right_action
    monkeypatch.setattr(FiniteSemigroup, "right_action",
                        lambda S, points: calls.append(points) or right_action(S, points))
    for P in (golden_mean(), even_shift(), random_presentation(47, 10, "abc")):
        calls.clear()
        report = aggm_forward_check(P)
        g = report["data"].semigroup.green()
        assert calls == [g.r_classes[g.r_class[report["jclass"][0]]]]


def test_aggm_backward_reconstructs_period2():
    S = period2_syntactic_table()
    dfa, report = aggm_backward_check(S)
    assert report["semigroup_size"] == 5
    d2 = factor_dfa(period_shift(2))
    assert d2.equivalent(dfa)


def test_aggm_backward_rejects_group_with_zero():
    with pytest.raises(NotAGGM):
        aggm_backward_check(group_with_zero(2))


def test_aggm_theorem_check_dispatch():
    assert aggm_forward_check(golden_mean())["is_aggm"]
    dfa, report = aggm_backward_check(golden_mean_syntactic_table())
    assert report["is_aggm"]


def test_fischer_cover_golden_mean_is_standard():
    D = syntactic_semigroup(golden_mean())
    cover = fischer_cover(D)
    assert cover.n_states == 2
    assert factor_dfa(cover).equivalent(D.dfa)
    # right-resolving: no duplicated (state, label)
    seen = {(s, a) for s, a, _ in cover.edges}
    assert len(seen) == len(cover.edges)


def test_fischer_cover_period2_and_full():
    D = syntactic_semigroup(period_shift(2))
    cover = fischer_cover(D)
    assert cover.n_states == 2 and len(cover.edges) == 2
    Df = syntactic_semigroup(full_shift(2))
    cf = fischer_cover(Df)
    assert cf.n_states == 1 and len(cf.edges) == 2
    for k in (1, 2, 3):  # a one-state cover, one loop per letter
        text = format_presentation(fischer_cover(syntactic_semigroup(full_shift(k))))
        assert text == format_presentation(full_shift(k))


def test_image_apex_identity_and_unminimized():
    from soficsemi.finsemi import PartialTransformation, close_generators
    from soficsemi.shiftspace import subset_construction

    P = golden_mean()
    D = syntactic_semigroup(P)
    S = D.semigroup
    ident = SemigroupMorphism(S, S, tuple(range(S.n)))
    ok, j = is_aggm(S)
    assert image_apex(ident, D) == S.green().j_class[j[0]]

    # unminimized subset DFA gives a bigger transition semigroup mapping onto S
    d_raw = subset_construction(P, range(P.n_states), lambda sub: len(sub) > 0)
    maps = [
        PartialTransformation([d_raw.trans[q][k] for q in range(d_raw.n_states)])
        for k in range(len(d_raw.alphabet))
    ]
    S_raw = close_generators(maps)
    psi = SemigroupMorphism.from_generator_map(
        S_raw, S, [D.letter_map[a] for a in d_raw.alphabet]
    )
    jp = image_apex(psi, D)
    assert S_raw.green().regular[jp]


def test_image_apex_rejects_incompatible():
    D = syntactic_semigroup(golden_mean())
    S2 = syntactic_semigroup(period_shift(2)).semigroup
    bad = SemigroupMorphism(S2, S2, tuple(range(S2.n)))
    with pytest.raises(NoCompatibleTriangle):
        image_apex(bad, D)
    # the same semigroup under another numbering has a different table
    S = D.semigroup
    shuffled = renumbered_table(S, 5)
    assert not shuffled.same_table(S)
    with pytest.raises(NoCompatibleTriangle, match="not the syntactic semigroup"):
        image_apex(SemigroupMorphism(shuffled, shuffled, tuple(range(S.n))), D)


def test_image_apex_accepts_an_equal_separately_built_target():
    """The targets are compared by their generators and right Cayley
    graphs, so two separately built closures of one presentation match."""
    P = random_presentation(1, 5, "ab")
    D, S2 = syntactic_semigroup(P), syntactic_semigroup(P).semigroup
    psi = SemigroupMorphism(S2, S2, tuple(range(S2.n)))
    assert image_apex(psi, D) == D.semigroup.green().j_class[D.distinguished_class()[0]]
    assert S2 is not D.semigroup and S2.same_table(D.semigroup)


# -- whole-ideal oracles for the AGGM check ------------------------------


def faithful_oracle(S, ideal):
    """S acts faithfully on both sides of the ideal: |S| rows of |ideal|
    products on each side."""
    ideal = sorted(ideal)
    right = {tuple(S.mul(x, s) for x in ideal) for s in range(S.n)}
    left = {tuple(S.mul(s, x) for x in ideal) for s in range(S.n)}
    return len(right) == len(left) == S.n


def is_aggm_oracle(S):
    """is_aggm on the whole ideal J u {0} of every (0-)minimal J-class."""
    if S.n == 1:
        return True, (0,)
    g = S.green()
    zcls = None if S.zero is None else g.j_class[S.zero]
    winners = [
        c
        for c, J in enumerate(g.j_classes)
        if c != zcls
        and j_below_set(g, c) <= {c, zcls}
        and g.regular[c]
        and faithful_oracle(S, set(J) | ({S.zero} - {None}))
        and all(len(g.h_classes[g.h_class[x]]) == 1 for x in J)
    ]
    assert len(winners) <= 1
    return (True, tuple(g.j_classes[winners[0]])) if winners else (False, None)


def separating_contexts_oracle(S, j_elems):
    """Elements grouped by the pairs (x, y) in J x J with x*s*y in J."""
    jset = set(j_elems)
    profiles = {}
    for s in range(S.n):
        key = frozenset(
            (x, y) for x in j_elems for y in j_elems if S.mul(S.mul(x, s), y) in jset
        )
        profiles.setdefault(key, []).append(s)
    return list(profiles.values())


def assert_aggm_matches_oracle(S):
    assert is_aggm(S) == is_aggm_oracle(S)
    g = S.green()
    zcls = None if S.zero is None else g.j_class[S.zero]
    for c, J in enumerate(g.j_classes):
        if c != zcls and j_below_set(g, c) <= {c, zcls}:
            ideal = set(J) | ({S.zero} - {None})
            assert _faithful_both_sides(S, J) == faithful_oracle(S, ideal), c
        assert list(separating_contexts(S, J).values()) == separating_contexts_oracle(S, J), c


def small_syntactic_semigroups():
    """Syntactic semigroups with |S| <= 300 of the named corpus and of
    random presentations."""
    presentations = [P for _, P in corpus_presentations()] + [
        random_presentation(seed, states, alphabet)
        for seed in range(12)
        for states in (3, 4, 5)
        for alphabet in ("ab", "abc")
    ]
    sizes = (syntactic_semigroup(P).semigroup for P in presentations)
    return [S for S in sizes if S.n <= 300]


def relabelled(S, seed):
    """S renumbered at random and read back from its `.sg` text, so that its
    witness-tree order is not its index order."""
    new = list(range(S.n))
    random.Random(seed).shuffle(new)
    old = sorted(range(S.n), key=new.__getitem__)
    rows = [" ".join(str(new[S.mul(old[x], old[y])]) for y in range(S.n)) for x in range(S.n)]
    gens = " ".join(str(new[g]) for g in S.generators)
    text = f"semigroup {S.n} {len(S.generators)}\n" + "\n".join(rows) + f"\ngenerators {gens}\n"
    return parse_semigroup(text)


def test_aggm_matches_oracle_on_syntactic_semigroups():
    semigroups = small_syntactic_semigroups()
    assert len(semigroups) > 60
    for S in semigroups:
        assert_aggm_matches_oracle(S)


def test_aggm_matches_oracle_on_hand_built_tables():
    tables = [
        trivial_semigroup(),
        chain_semilattice(),
        period2_syntactic_table(),
        golden_mean_syntactic_table(),
        group_with_zero(2),
        group_with_zero(3),
        cyclic_group(3),
    ] + [random_transformation_semigroup(seed, 4, 2) for seed in range(10)]
    for S in tables:
        assert_aggm_matches_oracle(S)


def test_aggm_matches_oracle_on_parsed_tables():
    presentations = [P for _, P in corpus_presentations()] + [
        random_presentation(seed, 4, "abc") for seed in range(4)
    ]
    semigroups = [syntactic_semigroup(P).semigroup for P in presentations]
    semigroups = [S for S in semigroups if 5 <= S.n <= 100]
    for seed, S in enumerate(semigroups):
        T = relabelled(S, seed)
        assert list(T._order) != list(range(T.n))
        assert_aggm_matches_oracle(T)


POSITION_CASES = {
    "corpus": lambda: [syntactic_semigroup(P).semigroup for _, P in corpus_presentations()],
    "anchors": lambda: [syntactic_semigroup(random_presentation(seed, n, "abc")).semigroup
                        for seed, n in ((47, 10), (22, 10), (159, 18))],
    "groups-with-zero": lambda: [group_with_zero(k) for k in (2, 3, 257)],
    **{f"green-{name}": cases for name, cases in GREEN_ORACLE_CASES.items()},
}


@pytest.mark.parametrize("case", list(POSITION_CASES))
def test_positions_match_the_tuple_actions(case):
    """The AGGM check on packed positions gives the verdicts and partitions
    of the per-element tuples it replaced (`tests/oracles.py`): faithfulness
    on every (0-)minimal J-class, and the separating contexts of every
    J-class (only of the (0-)minimal ones above 2000 elements)."""
    semigroups = POSITION_CASES[case]()
    for S in semigroups:
        g = S.green()
        zcls = None if S.zero is None else g.j_class[S.zero]
        minimal = [c for c in range(len(g.j_classes))
                   if c != zcls and j_below_set(g, c) <= {c, zcls}]
        for c in range(len(g.j_classes)) if S.n <= 2000 else minimal:
            J = g.j_classes[c]
            if c in minimal:
                assert _faithful_both_sides(S, J) == faithful_both_sides_by_tuples(S, J), (S, c)
            assert (list(separating_contexts(S, J).values())
                    == list(separating_contexts_by_tuples(S, J).values())), (S, c)
    if case == "groups-with-zero":  # H is not trivial; Z257 is on the tuple path
        assert [is_aggm(S)[0] for S in semigroups] == [False] * 3
        g = semigroups[-1].green()
        assert max(map(len, g.r_classes)) == 257


def test_distinguished_class_check_survives_optimize():
    """The named check raises under `python -O`, where an assert would not."""
    code = (
        "from corpus import group_with_zero\n"
        "from soficsemi.errors import CheckFailed\n"
        "from soficsemi.syntactic import SyntacticData\n"
        "S = group_with_zero(2)\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    SyntacticData(S, {}, None, None, S.zero, (), ()).distinguished_class()\n"
        "except CheckFailed as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("syntactic semigroup is not AGGM, witness")
