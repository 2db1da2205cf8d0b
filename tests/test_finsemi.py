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
    golden_mean,
    golden_mean_syntactic_table,
    group_with_zero,
    period2_syntactic_table,
    random_presentation,
    random_transformation_semigroup,
    renumbered_table,
    trivial_semigroup,
)
from soficsemi import (
    FiniteSemigroup,
    PartialTransformation,
    SemigroupMorphism,
    apex,
    build_cover,
    close_generators,
    factor_dfa,
    format_semigroup,
    lift_jclass,
    maximal_subgroup,
    omega_power,
    parse_semigroup,
    syntactic_semigroup,
)
from soficsemi.finsemi import TABLE_LIMIT, GreenStructure
from oracles import apex_pairwise, walk_idempotents
from soficsemi.graph import reach, sccs
from soficsemi.errors import (
    CapExceeded,
    DimensionMismatch,
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
    assert m.mapping == (1, 2, 0)
    # an image that is not a generator of the target is multiplied, not read
    # off a Cayley column
    into_z6 = SemigroupMorphism.from_generator_map(S, cyclic_group(6), [2])
    assert into_z6.mapping == (2, 4, 0)


def test_close_generators_cap():
    with pytest.raises(CapExceeded):
        close_generators([PartialTransformation((1, 2, 0)), PartialTransformation((1, 0, 2))], cap=2)


def test_witnesses_evaluate_to_their_element():
    # a closure numbers elements in discovery order; a table need not
    for S in (random_transformation_semigroup(5, 4, 2), period2_syntactic_table()):
        for x in range(S.n):
            assert S.eval_word(S.word(x)) == x
        # the stored order is shortlex by witness, parents first
        shortlex = sorted(range(S.n), key=lambda y: (len(S.word(y)), S.word(y)))
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


def green_structure_oracle(S):
    """The Green structure from three Tarjans (R, L and J Cayley graphs)
    and one reachability walk per J-class for the J-order."""
    n = S.n
    k = len(S.generators)
    right = [[S._cols[j][x] for j in range(k)] for x in range(n)]
    left = [[S.mul(g, x) for x in range(n)] for g in S.generators]

    r_class, r_classes, _ = sccs(n, right.__getitem__)
    l_class, l_classes, _ = sccs(n, lambda v: [left[j][v] for j in range(k)])
    j_class, j_classes, _ = sccs(n, lambda v: right[v] + [left[j][v] for j in range(k)])

    pair_ids = {}
    h_class = []
    for x in range(n):
        p = (r_class[x], l_class[x])
        if p not in pair_ids:
            pair_ids[p] = len(pair_ids)
        h_class.append(pair_ids[p])
    buckets = [[] for _ in range(len(pair_ids))]
    for x in range(n):
        buckets[h_class[x]].append(x)
    order = sorted(range(len(buckets)), key=lambda c: min(buckets[c]))
    renum = {old: new for new, old in enumerate(order)}

    nc = len(j_classes)
    succ = [set() for _ in range(nc)]
    for x in range(n):
        for j in range(k):
            succ[j_class[x]].add(j_class[right[x][j]])
            succ[j_class[x]].add(j_class[left[j][x]])
    idem = set(walk_idempotents(S))
    g = GreenStructure(
        r_class=tuple(r_class),
        l_class=tuple(l_class),
        j_class=tuple(j_class),
        r_classes=r_classes,
        l_classes=l_classes,
        j_classes=j_classes,
        j_below=tuple(sum(1 << d for d in reach([c], succ.__getitem__)) for c in range(nc)),
        regular=tuple(any(x in idem for x in j_classes[c]) for c in range(nc)),
        anchors=tuple(min((x for x in j_classes[c] if x in idem), default=None)
                      for c in range(nc)),
    )
    # the oracle's own H, read (and compared) in place of the derived one
    g.h_class = tuple(renum[c] for c in h_class)
    g.h_classes = tuple(tuple(sorted(buckets[old])) for old in order)
    return g


def even_cover(k):
    D = syntactic_semigroup(even_shift(), extra_letters=("c",))
    return build_cover(D, cyclic_group(k), [0] * k, ("a", "b", "b"), ("a",)).s_prime


GREEN_ORACLE_CASES = {
    "corpus": lambda: [syntactic_semigroup(P).semigroup for _, P in corpus_presentations()],
    "random-presentations": lambda: [
        syntactic_semigroup(random_presentation(seed, states, alphabet)).semigroup
        for seed, states, alphabet in ((1, 5, "ab"), (2, 6, "abc"), (47, 10, "abc"), (6, 20, "ab"))
    ],
    "transformations": lambda: [
        random_transformation_semigroup(seed, 5, 2, cap=TABLE_LIMIT) for seed in range(10)
    ],
    "tables": lambda: [
        period2_syntactic_table(), cyclic_group(1), cyclic_group(5), chain_semilattice(),
        group_with_zero(1), group_with_zero(4), trivial_semigroup(),
    ],
    "renumbered-sg": lambda: [
        renumbered_table(period2_syntactic_table(), 0),
        renumbered_table(group_with_zero(3), 1, generators=False),
        renumbered_table(syntactic_semigroup(random_presentation(23, 4)).semigroup, 2),
        renumbered_table(random_transformation_semigroup(7, 4, 2), 3),
        renumbered_table(random_transformation_semigroup(8, 3, 3), 4, generators=False),
    ],
    "even-z3-cover": lambda: [even_cover(3)],
    "even-z4-cover": lambda: [even_cover(4)],
}


@pytest.mark.parametrize("case", list(GREEN_ORACLE_CASES))
def test_green_matches_exact_oracle(case):
    semigroups = GREEN_ORACLE_CASES[case]()
    for S in semigroups:
        g = S.green()
        assert g == green_structure_oracle(S), S
        assert all(g.h_members(x) == g.h_classes[g.h_class[x]] for x in range(S.n)), S
    if case == "random-presentations":
        assert semigroups[-1].n == 2317 > TABLE_LIMIT
    if case.startswith("even-z"):
        assert type(semigroups[0].names[0]).__name__ == "RowMonomialMatrix"
    if case == "even-z4-cover":  # a large regular J-class with non-trivial H-classes
        S = semigroups[0]
        g = S.green()
        big = max(range(len(g.j_classes)), key=lambda c: len(g.j_classes[c]))
        assert S.n == 1316 and g.regular[big]
        assert len(g.h_classes[g.h_class[g.anchors[big]]]) > 1


def test_regularity_rule_meets_its_hard_cases():
    """`green_structure` decides regularity by one product a*b per R-class of
    a J-class, a its least member. The transformation case holds both kinds
    of class that rule must get right, and there it equals the oracle, which
    calls a class regular when some member is idempotent."""
    found_non_regular = found_regular = False
    for S in GREEN_ORACLE_CASES["transformations"]():
        g = S.green()
        for c, members in enumerate(g.j_classes):
            r_ids = {g.r_class[x] for x in members}
            found_non_regular |= not g.regular[c] and len(r_ids) >= 2
            found_regular |= g.regular[c] and not S.is_idempotent(members[0])
        assert g == green_structure_oracle(S), S
    assert found_non_regular and found_regular


def zero_and_identity_oracle(S):
    """The zero and the identity of S by their definitions, over every pair."""
    elems = range(S.n)
    zeros = [z for z in elems if all(S.mul(z, s) == z == S.mul(s, z) for s in elems)]
    ones = [e for e in elems if all(S.mul(e, s) == s == S.mul(s, e) for s in elems)]
    return (zeros or [None])[0], (ones or [None])[0]


ZERO_IDENTITY_TABLES = [
    # (table, generators, zero, identity)
    ([[0, 0], [1, 1]], [0, 1], None, None),  # left zero: every right row is constant
    ([[0, 1], [0, 1]], [0, 1], None, None),  # right zero: every right row is the generators
    ([[0, 1], [1, 1]], [0, 1], 1, 0),
    ([[0, 1, 2], [1, 1, 1], [2, 1, 2]], [0, 1, 2], 1, 0),
    ([[1, 0], [0, 1]], [0], None, 1),
    ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], [2], 0, None),
]


@pytest.mark.parametrize("table, gens, zero, identity", ZERO_IDENTITY_TABLES)
def test_zero_and_identity_of_hand_built_tables(table, gens, zero, identity):
    S = FiniteSemigroup(table, gens)
    assert (S.zero, S.identity) == (zero, identity) == zero_and_identity_oracle(S)


def test_zero_and_identity_match_brute_force():
    semigroups = [syntactic_semigroup(P).semigroup for _, P in corpus_presentations()]
    semigroups += [random_transformation_semigroup(seed, 4, 2) for seed in range(8)]
    # with the identity map among the generators
    semigroups += [close_generators([PartialTransformation((0, 1, 2))] + [
        PartialTransformation(tuple(random.Random(seed).choices(range(3), k=3)))
        for _ in range(2)]) for seed in range(4)]
    semigroups += GREEN_ORACLE_CASES["tables"]() + GREEN_ORACLE_CASES["renumbered-sg"]()
    found = set()
    for S in semigroups:
        expected = zero_and_identity_oracle(S)
        assert (S.zero, S.identity) == expected, S
        found.add(tuple(x is None for x in expected))
    assert found == {(True, True), (True, False), (False, True), (False, False)}


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
    e = next(x for x in walk_idempotents(S) if x != S.zero)
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
    for e in walk_idempotents(t3):
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
    # {zero, a} is factorial only if a's factors are in, and the class of a
    # has other members: the pairwise oracle raises NotFactorial too
    with pytest.raises(NotFactorial):
        apex_pairwise(S, {S.zero, 0})
    with pytest.raises(NotFactorial):
        apex(S, {S.zero, 0})


def apex_outcome(find, S, A):
    """(class, None) from an apex search, or (exception type, witness)."""
    try:
        return find(S, A), None
    except (NotFactorial, NotIrreducible) as exc:
        return type(exc), exc.witness


def assert_witness_fails(S, A, kind, witness):
    """A NotFactorial witness (a, b) has a in A, b outside and a <=_J b; for
    a NotIrreducible witness (u, v) no u*w*v with w in S lies in A."""
    g = S.green()
    if kind is NotFactorial:
        a, b = witness
        assert a in A and b not in A and g.leq_j(g.j_class[a], g.j_class[b])
    else:
        u, v = witness
        assert u in A and v in A
        assert all(S.mul(S.mul(u, w), v) not in A for w in range(S.n))


def apex_cases(S):
    """S, S minus zero, every Fact(J), and every Fact(J) minus each of its
    elements; some of them may be empty."""
    g = S.green()
    yield set(range(S.n))
    if S.zero is not None:
        yield set(range(S.n)) - {S.zero}
    for c in range(len(g.j_classes)):
        fact = {b for b in range(S.n) if g.leq_j(c, g.j_class[b])}
        yield fact
        yield from (fact - {x} for x in sorted(fact))


def partial_identities(dim):
    """Zero and the partial identities on single points: dim 0-minimal
    classes, each regular, so no two of them glue into an irreducible set."""
    return close_generators([
        PartialTransformation([i if i == p else None for i in range(dim)]) for p in range(dim)
    ])


APEX_ORACLE_CASES = {
    "corpus": lambda: [syntactic_semigroup(P).semigroup for _, P in corpus_presentations()],
    "random-presentations": lambda: [
        syntactic_semigroup(random_presentation(seed, 5, "ab")).semigroup for seed in range(30)
    ],
    "tables": lambda: [
        period2_syntactic_table(), chain_semilattice(), group_with_zero(3), cyclic_group(4),
        partial_identities(3),
    ],
}


@pytest.mark.parametrize("case", list(APEX_ORACLE_CASES))
def test_apex_matches_pairwise_oracle(case):
    kinds = set()
    for S in APEX_ORACLE_CASES[case]():
        assert S.n <= 400
        for A in filter(None, apex_cases(S)):
            found, witness = apex_outcome(apex, S, A)
            expected = apex_outcome(apex_pairwise, S, A)[0]
            assert found == expected, (S, sorted(A))
            if witness is not None:
                assert_witness_fails(S, A, found, witness)
            kinds.add(found if witness is not None else "apex")
    assert kinds == {"apex", NotFactorial, NotIrreducible}, case


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
    e = next(x for x in walk_idempotents(S))
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
    assert format_semigroup(S2) == text and S2.generators == S.generators
    assert S2.zero == S.zero


TABLE_CASES = {
    "corpus": lambda: [
        cyclic_group(1), cyclic_group(4), cyclic_group(5), trivial_semigroup(),
        chain_semilattice(), period2_syntactic_table(), golden_mean_syntactic_table(),
        group_with_zero(1), group_with_zero(3), group_with_zero(4),
    ],
    "renumbered-sg": GREEN_ORACLE_CASES["renumbered-sg"],
    "corpus-syntactic-sg": lambda: [
        parse_semigroup(format_semigroup(syntactic_semigroup(P).semigroup))
        for _, P in corpus_presentations()
    ],
    "even-cover-sg": lambda: [parse_semigroup(format_semigroup(even_cover(k))) for k in (3, 4)],
}


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_table_products_match_the_given_entries(case, monkeypatch):
    """A table is read as its right regular representation: products,
    idempotents, left rows and right actions by gathers reproduce every
    entry of the table the constructor was given, and the witness tree
    spells each element with its parent earlier in `_order`.  Products are
    checked on every pair up to 500 elements, else on 20000 seeded pairs
    (on the 1316-element Z4 cover every pair took about a minute: each
    product gathers 1317 points)."""
    given = {}
    init = FiniteSemigroup.__init__

    def recording(self, table, *args, **kwargs):
        table = [list(row) for row in table]
        init(self, table, *args, **kwargs)
        given[id(self)] = (self, table)  # the reference keeps the id unique

    monkeypatch.setattr(FiniteSemigroup, "__init__", recording)
    for S in TABLE_CASES[case]():
        table = given[id(S)][1]
        n = S.n
        assert n == len(table)
        rng = random.Random(n)
        pairs = (itertools.product(range(n), repeat=2) if n <= 500 else
                 [(rng.randrange(n), rng.randrange(n)) for _ in range(20000)])
        assert all(S.mul(x, y) == table[x][y] for x, y in pairs), S
        assert [S.is_idempotent(x) for x in range(n)] == [table[x][x] == x for x in range(n)]
        assert [S.left_row(g) for g in range(n)] == table
        assert S.right_action(range(n)) == [tuple(row[y] for row in table) for y in range(n)]
        assert all(S.eval_word(S.word(x)) == x for x in range(n)), S
        rank = {x: i for i, x in enumerate(S._order)}
        assert sorted(rank) == list(range(n))
        assert all(p is None or rank[p] < rank[x] for x, p in enumerate(S._parent)), S


def test_parse_rejects_non_associative():
    bad = "semigroup 2 2\n0 1\n0 0\ngenerators 0 1\n"
    with pytest.raises(ValueError):
        parse_semigroup(bad)


def test_associativity_sampling_large_tables():
    k = 250  # above the exhaustive threshold
    Z = FiniteSemigroup([[(i + j) % k for j in range(k)] for i in range(k)], [1])
    assert Z.identity == 0


def test_associativity_rejects_one_corrupted_entry():
    """Light's test is exhaustive at every size: one wrong entry of a
    250-element table is found, with the (x, a, y) witness of a generator a."""
    k = 250
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    table[100][200] = 51  # 100 + 200 = 50 mod 250
    for gens in ([1], [0, 1]):  # the identity 0 passes every triple; 1 finds the fault
        with pytest.raises(ValueError, match=r"table not associative at \(99,1,200\)"):
            FiniteSemigroup(table, gens)


class TupleTransformation:
    """The tuple-based partial map (None = undefined): oracle for the packed
    PartialTransformation."""

    def __init__(self, mapping):
        self.mapping = tuple(mapping)
        self.dim = len(self.mapping)

    def __mul__(self, other):
        om = other.mapping
        return TupleTransformation(None if v is None else om[v] for v in self.mapping)

    def __eq__(self, other):
        return self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __call__(self, i):
        return self.mapping[i]

    def __repr__(self):
        return "PT[" + ",".join("-" if v is None else str(v) for v in self.mapping) + "]"

    @property
    def rank(self):
        return len(self.image())

    def image(self):
        return {v for v in self.mapping if v is not None}

    def domain(self):
        return {i for i, v in enumerate(self.mapping) if v is not None}


def random_partial_map(rng, dim):
    """A partial map with a random share of undefined points and a small or
    full image, so that equal maps and the sentinel value both occur."""
    holes = rng.choice((0.0, 0.2, 0.9))
    targets = rng.choice((range(dim), rng.sample(range(dim), min(dim, 3))))
    return [None if rng.random() < holes else rng.choice(targets) for _ in range(dim)]


@pytest.mark.parametrize("dim", [1, 2, 3, 254, 255, 256, 300])
def test_packed_transformation_matches_tuple_oracle(dim):
    rng = random.Random(dim)
    raw = [random_partial_map(rng, dim) for _ in range(12)]
    raw += [list(raw[0]), [dim - 1] * dim, [None] * dim]
    pairs = [(PartialTransformation(m), TupleTransformation(m)) for m in raw]
    pairs += [(x * y, a * b) for x, a in pairs for y, b in pairs]
    for x, a in pairs:
        assert x.dim == dim
        assert x.mapping == a.mapping
        assert repr(x) == repr(a)
        assert x.rank == a.rank
        assert x.image() == a.image() and x.domain() == a.domain()
        assert x.is_total() == (None not in a.mapping)
        assert [x(i) for i in range(-1, dim)] == [a(i) for i in range(-1, dim)]
    for x, a in pairs[:40]:
        for y, b in pairs:
            assert (x == y) == (a == b)
            assert x != b.mapping  # equal only to maps of the same type
            if x == y:
                assert hash(x) == hash(y)
            assert (x * y).mapping == (a * b).mapping
    assert len(set(x for x, _ in pairs)) == len(set(a for _, a in pairs))


def test_packed_transformation_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        PartialTransformation([0, 3, None])
    with pytest.raises(DimensionMismatch):
        PartialTransformation([0, 1], dim=3)
    with pytest.raises(DimensionMismatch):
        PartialTransformation([0] * 255) * PartialTransformation([0] * 256)


@pytest.mark.parametrize("dim", [255, 256])
def test_closure_matches_brute_force_across_storage_switch(dim):
    """Generators move four points, the top three among them, and treat all
    other points alike (fixed, or undefined), so the closure stays small
    while the top values and the undefined sentinel are exercised."""
    active = [0, dim - 3, dim - 2, dim - 1]
    rng = random.Random(dim)
    for _ in range(6):
        gens = []
        for k in range(3):
            m = [None if k == 2 else i for i in range(dim)]
            for p in active:
                m[p] = rng.choice(active + [None])
            gens.append(m)
        S = close_generators([PartialTransformation(m) for m in gens])
        oracle = brute_closure([TupleTransformation(m) for m in gens])
        assert {x.mapping for x in S.names} == {a.mapping for a in oracle}
        assert len(S.names) == len(set(S.names))
        for x in range(S.n):
            for j, g in enumerate(S.generators):
                assert S.names[S._cols[j][x]] == S.names[x] * S.names[g]


def test_format_semigroup_writes_the_products_of_a_closure():
    S = random_transformation_semigroup(11, 5, 3, cap=TABLE_LIMIT)
    assert 50 < S.n <= TABLE_LIMIT
    walked = [[S.mul(x, y) for y in range(S.n)] for x in range(S.n)]
    pos = {m: i for i, m in enumerate(S.names)}
    assert walked == [[pos[a * b] for b in S.names] for a in S.names]
    text = format_semigroup(S)
    expected = [f"semigroup {S.n} {len(S.generators)}"]
    expected += [" ".join(map(str, row)) for row in walked]
    expected.append("generators " + " ".join(map(str, S.generators)))
    expected += [f"{k} {v}" for k, v in (("zero", S.zero), ("identity", S.identity))
                 if v is not None]
    assert text == "\n".join(expected) + "\n"


def test_argument_checks_survive_optimize():
    """power(s, 0) raises ValueError under `python -O`, where an assert
    would not."""
    code = (
        "from soficsemi import FiniteSemigroup\n"
        "assert False, 'asserts are on'\n"
        "S = FiniteSemigroup([[0, 1], [1, 1]], [0, 1])\n"
        "try:\n"
        "    S.power(0, 0)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["power needs k >= 1, got 0"]
