import random

import pytest

from corpus import (
    chain_semilattice,
    cyclic_group,
    golden_mean,
    period2_syntactic_table,
    random_transformation_semigroup,
    trivial_semigroup,
)
from soficsemi import (
    FiniteSemigroup,
    PartialTransformation,
    SemigroupMorphism,
    apex,
    close_generators,
    factor_dfa,
    format_semigroup,
    lift_jclass,
    maximal_subgroup,
    omega_power,
    parse_semigroup,
)
from soficsemi.errors import (
    CapExceeded,
    NotFactorial,
    NotIdempotent,
    NotIrreducible,
)


def brute_closure(maps):
    """Set-based closure oracle, independent of close_generators."""
    elems = set(maps)
    while True:
        new = {x * y for x in elems for y in elems} - elems
        if not new:
            return elems
        elems |= new


def test_constant_map_closes_to_singleton():
    c = PartialTransformation.constant(2, 0)
    S = close_generators([c])
    assert S.n == 1
    assert S.is_idempotent(0)


def test_golden_mean_letter_actions_close_to_five():
    d = factor_dfa(golden_mean())
    maps = [
        PartialTransformation([d.trans[q][j] for q in range(d.n_states)])
        for j in range(2)
    ]
    assert len(brute_closure(maps)) == 5  # oracle
    S = close_generators(maps)
    assert S.n == 5
    assert set(S.names) == brute_closure(maps)


def test_cyclic_permutation_closes_to_cyclic_group():
    g = PartialTransformation((1, 2, 0))
    S = close_generators([g])
    assert S.n == 3
    assert S.identity is not None
    Z3 = cyclic_group(3)
    # same multiplication up to the witness-defined numbering
    m = SemigroupMorphism.from_generator_map(S, Z3, [1])
    assert m.is_surjective()


def test_close_generators_cap():
    with pytest.raises(CapExceeded):
        close_generators([PartialTransformation((1, 2, 0)), PartialTransformation((1, 0, 2))], cap=2)


def test_witnesses_evaluate_to_their_element():
    # a closure numbers elements in discovery order; a table need not
    for S in (random_transformation_semigroup(5, 4, 2), period2_syntactic_table()):
        for x in range(S.n):
            assert S.eval_word(S.witness[x]) == x
        # the stored order is shortlex by witness, parents first
        shortlex = sorted(range(S.n), key=lambda y: (len(S.witness[y]), S.witness[y]))
        assert list(S._order) == shortlex
        assert all(S._parent[y] is None or S._parent[y] in shortlex[:i]
                   for i, y in enumerate(shortlex))


def test_table_matches_carrier_products():
    S = random_transformation_semigroup(7, 4, 2)
    for x in range(S.n):
        for y in range(S.n):
            assert S.names[S.mul(x, y)] == S.names[x] * S.names[y]


def green_oracle(S):
    """Principal-ideal definition of the Green classes, by brute force."""
    n = S.n
    ids = list(range(n))

    def right_ideal(s):
        return frozenset([s] + [S.mul(s, x) for x in ids])

    def left_ideal(s):
        return frozenset([s] + [S.mul(x, s) for x in ids])

    def two_sided(s):
        out = {s}
        out.update(S.mul(s, x) for x in ids)
        out.update(S.mul(x, s) for x in ids)
        out.update(S.mul(S.mul(x, s), y) for x in ids for y in ids)
        return frozenset(out)

    return (
        [right_ideal(s) for s in ids],
        [left_ideal(s) for s in ids],
        [two_sided(s) for s in ids],
    )


def assert_green_matches_oracle(S):
    g = S.green()
    r, l, j = green_oracle(S)
    for x in range(S.n):
        for y in range(S.n):
            assert (g.r_class[x] == g.r_class[y]) == (r[x] == r[y])
            assert (g.l_class[x] == g.l_class[y]) == (l[x] == l[y])
            assert (g.j_class[x] == g.j_class[y]) == (j[x] == j[y])
            # H = R meet L
            assert (g.h_class[x] == g.h_class[y]) == (
                g.r_class[x] == g.r_class[y] and g.l_class[x] == g.l_class[y]
            )
            # order agrees with ideal containment
            assert g.leq_j(g.j_class[x], g.j_class[y]) == (j[x] <= j[y])


def test_green_trivial():
    S = trivial_semigroup()
    g = S.green()
    assert len(g.j_classes) == 1 and g.regular[0]


def test_green_period2_is_zero_plus_regular_four():
    S = period2_syntactic_table()
    g = S.green()
    sizes = sorted(len(c) for c in g.j_classes)
    assert sizes == [1, 4]
    big = max(range(len(g.j_classes)), key=lambda c: len(g.j_classes[c]))
    assert g.regular[big]
    assert set(g.j_classes[big]) == {0, 1, 2, 3}
    assert_green_matches_oracle(S)


def test_green_full_transformations_on_two_points():
    S = close_generators([PartialTransformation((1, 0)), PartialTransformation((0, 0))])
    assert S.n == 4
    g = S.green()
    by_rank = sorted(
        (S.names[c[0]].rank, len(c)) for c in g.j_classes
    )
    assert by_rank == [(1, 2), (2, 2)]
    assert_green_matches_oracle(S)


def test_maximal_subgroup_aperiodic_is_trivial():
    S = period2_syntactic_table()
    e = next(x for x in S.idempotent_list() if x != S.zero)
    assert maximal_subgroup(S, e).n == 1


def test_maximal_subgroup_of_group_is_whole_group():
    Z3 = cyclic_group(3)
    G = maximal_subgroup(Z3, Z3.identity)
    assert G.n == 3


def test_maximal_subgroup_rejects_non_idempotent():
    Z3 = cyclic_group(3)
    with pytest.raises(NotIdempotent):
        maximal_subgroup(Z3, 1)


def test_maximal_subgroup_rank1_in_t3_is_trivial():
    t3 = close_generators(
        [PartialTransformation((1, 0, 2)), PartialTransformation((1, 2, 0)),
         PartialTransformation((0, 0, 2))]
    )
    for e in t3.idempotent_list():
        if t3.names[e].rank == 1:
            assert maximal_subgroup(t3, e).n == 1


def test_apex_with_zero_and_without():
    S = period2_syntactic_table()
    g = S.green()
    whole = apex(S, set(range(S.n)))
    assert g.j_classes[whole] == (S.zero,)
    top = apex(S, {0, 1, 2, 3})
    assert len(g.j_classes[top]) == 4
    Z3 = cyclic_group(3)
    assert apex(Z3, {0, 1, 2}) == Z3.green().j_class[0]


def test_apex_rejects_bad_inputs():
    S = period2_syntactic_table()
    with pytest.raises(NotFactorial):
        apex(S, {0, 1, 2, 3, 4} - {0})  # dropping a J-equivalent element
    # {zero, a} is factorial only if a's factors are in; b is a factor of nothing here
    with pytest.raises((NotFactorial, NotIrreducible)):
        apex(S, {S.zero, 0})


def test_lift_identity_and_free_band():
    S = period2_syntactic_table()
    g = S.green()
    ident = SemigroupMorphism(S, S, tuple(range(S.n)))
    big = max(range(len(g.j_classes)), key=lambda c: len(g.j_classes[c]))
    assert lift_jclass(ident, big) == big

    # free band on two generators: (first, last, content) normal form
    elems = ["a", "b", "ab", "ba", "aba", "bab"]
    idx = {e: i for i, e in enumerate(elems)}

    def norm(u, v):
        w = u + v
        if len(set(w)) == 1:
            return w[0]
        if w[0] == w[-1]:
            return w[0] + ("b" if w[0] == "a" else "a") + w[0]
        return w[0] + w[-1]

    FB = FiniteSemigroup([[idx[norm(x, y)] for y in elems] for x in elems], [0, 1])
    SL = chain_semilattice()
    phi = SemigroupMorphism.from_generator_map(FB, SL, [0, 1])
    bottom = SL.green().j_class[1]
    lifted = lift_jclass(phi, bottom)
    assert sorted(FB.green().j_classes[lifted]) == [2, 3, 4, 5]


def test_lift_random_surjections():
    rng = random.Random(2)
    done = 0
    seed = 0
    while done < 4:
        seed += 1
        S = random_transformation_semigroup(seed, 4, 2, cap=40)
        if S.n > 40:
            continue
        phi, T = action_quotient(S, rng)
        if phi is None:
            continue
        gt = T.green()
        regs = [c for c in range(len(gt.j_classes)) if gt.regular[c]]
        lift_jclass(phi, rng.choice(regs))
        done += 1


def action_quotient(S, rng):
    """Quotient a transformation semigroup by a random admissible partition."""
    pts = S.names[0].dim
    if pts < 2:
        return None, None
    a, b = rng.sample(range(pts), 2)
    parent = list(range(pts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x != y:
            parent[max(x, y)] = min(x, y)

    union(a, b)
    changed = True
    while changed:
        changed = False
        for g in S.generators:
            m = S.names[g].mapping
            for x in range(pts):
                for y in range(pts):
                    if find(x) == find(y) and m[x] is not None and find(m[x]) != find(m[y]):
                        union(m[x], m[y])
                        changed = True
    reps = sorted({find(x) for x in range(pts)})
    if len(reps) == pts or len(reps) < 2:
        return None, None
    new_index = {r: i for i, r in enumerate(reps)}

    def project(pt):
        return PartialTransformation(
            tuple(
                None if pt.mapping[reps[i]] is None else new_index[find(pt.mapping[reps[i]])]
                for i in range(len(reps))
            )
        )

    T = close_generators([project(S.names[g]) for g in S.generators], cap=10 ** 5)
    lut = {m: i for i, m in enumerate(T.names)}
    mapping = tuple(lut[project(S.names[x])] for x in range(S.n))
    phi = SemigroupMorphism(S, T, mapping)
    phi.validate()
    assert phi.is_surjective()
    return phi, T


def test_omega_power():
    S = period2_syntactic_table()
    e = next(x for x in S.idempotent_list())
    assert omega_power(S, e) == e
    Z4 = cyclic_group(4)
    assert omega_power(Z4, 1) == Z4.identity
    assert omega_power(S, 0) == S.zero  # a*a = 0


def test_omega_power_properties_on_random_semigroups():
    for seed in (31, 32, 33):
        S = random_transformation_semigroup(seed, 4, 2)
        for s in range(S.n):
            w = omega_power(S, s)
            assert S.is_idempotent(w)
            powers = {s}
            cur = s
            for _ in range(S.n + 1):
                cur = S.mul(cur, s)
                powers.add(cur)
            assert w in powers


def test_file_round_trip():
    S = period2_syntactic_table()
    text = format_semigroup(S)
    S2 = parse_semigroup(text)
    assert S2.table == S.table and S2.generators == S.generators
    assert S2.zero == S.zero


def test_parse_rejects_non_associative():
    bad = "semigroup 2 2\n0 1\n0 0\ngenerators 0 1\n"
    with pytest.raises(ValueError):
        parse_semigroup(bad)


def test_associativity_sampling_large_tables():
    k = 250  # above the exhaustive threshold
    Z = FiniteSemigroup([[(i + j) % k for j in range(k)] for i in range(k)], [1], seed=3)
    assert Z.identity == 0
