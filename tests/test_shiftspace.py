import itertools
import random
import time

import pytest

from corpus import (
    corpus_presentations,
    even_shift,
    full_shift,
    golden_mean,
    period_shift,
    random_presentation,
)
from oracles import higher_block_by_copies, minimize_hopcroft, out_edges
from soficsemi import (
    BiInfinitePoint,
    Dfa,
    Presentation,
    check_sync_delay,
    conjugate_with_partial_alphabet,
    factor_dfa,
    higher_block,
    is_periodic,
    non_minimal_witness,
    parse_presentation,
)
from soficsemi.errors import NotPrimitive, NotStronglyConnected, ShiftIsMinimal
from soficsemi.shiftspace import (
    format_presentation,
    is_primitive,
    least_rotation,
    periodic_factors,
    rotations,
    subset_construction,
)


def path_words(P, n):
    """Oracle: label words of paths of length up to n, by direct enumeration."""
    out = set()
    frontier = [((), s) for s in range(P.n_states)]
    for _ in range(n):
        nxt = []
        for w, s in frontier:
            for (_, a, t) in out_edges(P, s):
                nxt.append((w + (a,), t))
                out.add(w + (a,))
        frontier = nxt
    return out


@pytest.mark.parametrize("P", [full_shift(2), golden_mean(), even_shift(), period_shift(2)])
def test_factor_dfa_matches_path_enumeration(P):
    d = factor_dfa(P)
    words = path_words(P, 8)
    for n in range(1, 9):
        for w in itertools.product(P.alphabet, repeat=n):
            assert d.accepts(w) == (w in words)


def test_factor_dfa_full_shift_single_live_state():
    d = factor_dfa(full_shift(2))
    assert d.n_states == 1 and d.accepting == {0}


def test_factor_dfa_golden_mean_three_states():
    d = factor_dfa(golden_mean())
    assert d.n_states == 3
    assert len(d.accepting) == 2
    assert not d.accepts(tuple("abba"))
    assert d.accepts(tuple("abaab"))
    with pytest.raises(ValueError):
        d.accepts(())


def test_factor_language_is_factorial_and_prolongable():
    for P in (golden_mean(), even_shift()):
        d = factor_dfa(P)
        words = [w for w in d.words_up_to(6)]
        wset = set(words)
        for w in words:
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    if 0 < j - i < len(w):
                        assert w[i:j] in wset
        for w in words:
            if len(w) <= 4:
                assert any(
                    (x,) + w + (y,) in wset for x in P.alphabet for y in P.alphabet
                )


def test_not_strongly_connected_rejected():
    P = Presentation(2, [(0, "a", 1), (1, "b", 1)])
    assert not P.irreducible
    with pytest.raises(NotStronglyConnected):
        factor_dfa(P)


def test_is_periodic():
    assert is_periodic(period_shift(2)).period == ("a", "b")
    assert is_periodic(full_shift(2)) is None
    assert is_periodic(golden_mean()) is None
    for k in (1, 3, 4):
        u = is_periodic(period_shift(k))
        assert u is not None and len(u.period) == k


def test_periodic_complexity_is_constant():
    d = factor_dfa(period_shift(3))
    q = d.count_words(10)
    assert all(v == 3 for v in q[2:])


def test_primitive_and_rotations():
    assert is_primitive(tuple("aab"))
    assert not is_primitive(tuple("abab"))
    assert least_rotation(tuple("bab")) == tuple("abb")
    assert rotations(tuple("ab")) == {("a", "b"), ("b", "a")}
    with pytest.raises(NotPrimitive):
        BiInfinitePoint(tuple("abab"))
    with pytest.raises(ValueError):
        BiInfinitePoint(())


@pytest.mark.parametrize("P", [full_shift(2), golden_mean(), even_shift(), period_shift(3)])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_higher_block_complexity_shift(P, N):
    d = factor_dfa(P)
    q = d.count_words(8 + N - 1)
    dN = factor_dfa(higher_block(P, N))
    qN = dN.count_words(8)
    for n in range(1, 9):
        assert qN[n - 1] == q[n + N - 2]


def test_higher_block_period2_is_two_cycle():
    P2 = higher_block(period_shift(2), 2)
    assert sorted(P2.alphabet) == ["ab", "ba"]
    assert P2.n_states == 2
    u = is_periodic(P2)
    assert u is not None and len(u.period) == 2


def test_higher_block_matches_copying_oracle():
    """The paths grown along one shared prefix give the presentation that
    copying every path at every round gives, in the same order."""
    for name, P in corpus_presentations():
        for N in (1, 2, 3, 5):
            assert (format_presentation(higher_block(P, N))
                    == format_presentation(higher_block_by_copies(P, N))), (name, N)


def test_higher_block_is_linear_in_its_output():
    """At N = 80000 on the period-2 shift each state is a path of 79999
    edges; copying every path at every round took about 30 s there."""
    start = time.perf_counter()
    P = higher_block(period_shift(2), 80000)
    assert time.perf_counter() - start < 2
    assert P.n_states == 2
    assert sorted(P.alphabet) == ["ab" * 40000, "ba" * 40000]


def test_higher_block_golden_mean_alphabet():
    P2 = higher_block(golden_mean(), 2)
    assert sorted(P2.alphabet) == ["aa", "ab", "ba"]
    assert factor_dfa(P2).count_words(1)[0] == 3


def test_non_minimal_witness():
    for P, expect in [(golden_mean(), ("a", "b")), (full_shift(2), ("a", "b"))]:
        w, v = non_minimal_witness(P)
        assert ("".join(w), "".join(v)) == expect
    w, v = non_minimal_witness(even_shift())
    d = factor_dfa(even_shift())
    assert d.accepts(v) and len(v) == len(w)
    assert v not in rotations(w)
    assert all(d.accepts(w * m) for m in range(1, 5))
    with pytest.raises(ShiftIsMinimal):
        non_minimal_witness(period_shift(2))


def test_conjugate_with_partial_alphabet():
    P2, z = conjugate_with_partial_alphabet(golden_mean())
    assert z == ("a",)
    assert set(P2.alphabet) == {"a", "b"}
    P2f, zf = conjugate_with_partial_alphabet(full_shift(2))
    assert zf == ("a",)
    # z^+ stays in the language, alphabet strictly larger than alph(z)
    d = factor_dfa(P2f)
    assert d.accepts(zf * 3)
    assert set(zf) < set(P2f.alphabet)


def test_sync_delay_cases():
    assert check_sync_delay("ab", 2, 6, alphabet="ab")
    assert check_sync_delay("a", 1, 6, alphabet="ab")
    assert check_sync_delay("a", 3, 4, alphabet="a")
    assert check_sync_delay("aab", 1, 6, alphabet="ab")
    with pytest.raises(NotPrimitive):
        check_sync_delay("abab", 1, 3)
    with pytest.raises(ValueError):
        check_sync_delay("ab", 0, 3)


def test_periodic_factors_oracle():
    assert periodic_factors(("a", "b"), 3) == {("a", "b", "a"), ("b", "a", "b")}


def test_presentation_file_round_trip():
    P = even_shift()
    text = format_presentation(P)
    Q = parse_presentation(text)
    assert Q.n_states == P.n_states and Q.edges == P.edges and Q.alphabet == P.alphabet


def distinguishable_classes(d):
    """Oracle: the classes of reachable states left by refining pairwise
    distinguishability to a fixed point."""
    reach = sorted(d.reachable())
    dist = {(p, q) for p in reach for q in reach
            if (p in d.accepting) != (q in d.accepting)}
    changed = True
    while changed:
        changed = False
        for p in reach:
            for q in reach:
                if (p, q) not in dist and any(
                        (d.step(p, a), d.step(q, a)) in dist for a in d.alphabet):
                    dist.update({(p, q), (q, p)})
                    changed = True
    return {frozenset(q for q in reach if (p, q) not in dist) for p in reach}


def assert_same_minimal_dfa(d):
    m, h = d.minimize(), minimize_hopcroft(d)
    assert (m.trans, m.accepting, m.initial, m.alphabet) == \
        (h.trans, h.accepting, h.initial, h.alphabet)
    return m


def test_minimize_agrees_with_distinguishability_oracle():
    """Moore refinement gives the Hopcroft oracle's DFA, numbering included,
    on random DFAs (unreachable states, all or no accepting states), on the
    factor and loop DFAs of the corpus and the anchors, and on a chain, where
    Moore needs one round per state."""
    rng = random.Random(4)
    for trial in range(200):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        n = rng.randint(1, 40)
        trans = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
        share = (0.0, 1.0, 0.5)[trial % 3]
        accepting = {q for q in range(n) if rng.random() < share}
        d = Dfa(trans, alphabet, rng.randrange(n), accepting)
        m = assert_same_minimal_dfa(d)
        if n <= 12:
            assert m.n_states == len(distinguishable_classes(d))
            for w in itertools.product(alphabet, repeat=4):
                assert d.accepts(w) == m.accepts(w)
    anchors = [random_presentation(seed, n, "abc") for seed, n in ((47, 10), (22, 10), (159, 18))]
    for P in [P for _, P in corpus_presentations()] + anchors:
        assert_same_minimal_dfa(subset_construction(P, range(P.n_states), lambda sub: len(sub) > 0))
        for v in range(P.n_states):
            assert_same_minimal_dfa(subset_construction(P, [v], lambda sub: v in sub))
    n = 1001  # a chain: state q reaches the accepting last state after n - 1 - q letters
    chain = Dfa([[min(q + 1, n - 1)] for q in range(n)], ("a",), 0, {n - 1})
    assert assert_same_minimal_dfa(chain).n_states == n


def test_conjugate_even_shift():
    P2, z = conjugate_with_partial_alphabet(even_shift())
    d = factor_dfa(P2)
    assert any(d.run(z * 2, start=q) == q for q in d.accepting)
    assert set(z) < set(P2.alphabet)


def test_word_enumeration_terminates_on_finite_language():
    # accepts exactly "a": 0 -a-> 1 (accepting), everything else dead
    d = Dfa([[1, 2], [2, 2], [2, 2]], ("a", "b"), 0, {1})
    assert list(d.iter_words()) == [("a",)]


def test_word_enumeration_streams_shortlex():
    d = factor_dfa(golden_mean())
    stream = d.iter_words()
    first = [next(stream) for _ in range(6)]
    assert first == [
        ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("a", "a", "a"),
    ]


def test_words_up_to_matches_brute_force_on_random_dfas():
    rng = random.Random(7)
    for trial in range(300):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        n = rng.randint(1, 6)
        if trial % 2:
            # finite language: edges only go forward, the last state is a sink
            trans = [[rng.randint(min(q + 1, n - 1), n - 1) for _ in alphabet]
                     for q in range(n)]
            accepting = {q for q in range(n - 1) if rng.random() < 0.5}
        else:
            trans = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
            accepting = {q for q in range(n) if rng.random() < 0.4}
        d = Dfa(trans, alphabet, 0, accepting)
        for n_max in range(6):
            expected = [
                w
                for k in range(1, n_max + 1)
                for w in itertools.product(alphabet, repeat=k)
                if d.accepts(w)
            ]
            assert d.words_up_to(n_max) == expected
