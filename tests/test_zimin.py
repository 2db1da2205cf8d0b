import itertools
import os
import subprocess
import sys

import pytest

import soficsemi

from corpus import (
    chain_semilattice,
    cyclic_group,
    full_shift,
    golden_mean,
    period2_syntactic_table,
    period_shift,
    trivial_semigroup,
)
from soficsemi import (
    evaluate_zimin,
    is_aggm,
    loop_language,
    power_factorial,
    rational_bound_check,
    syntactic_semigroup,
)
from soficsemi.errors import InvalidState
from soficsemi.zimin import ZiminTerm, in_minimal_ideal, phi_image_of_language


def take(stream, k):
    return list(itertools.islice(stream, k))


def test_loop_language_full_shift():
    T = loop_language(full_shift(2), 0)
    assert T.m == 1
    assert take(T.dfa.iter_words(), 6) == [
        ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
    ]


def test_loop_language_golden_mean():
    T = loop_language(golden_mean(), 0)
    words = take(T.dfa.iter_words(), 4)
    assert words == [("a",), ("a", "a"), ("b", "a"), ("a", "a", "a")]
    assert T.dfa.accepts(("a", "b", "a"))
    assert not T.dfa.accepts(("b",))
    # path enumeration oracle to length 4
    loops = set()
    frontier = [((), 0)]
    for _ in range(4):
        nxt = []
        for w, s in frontier:
            for (_, a, t) in golden_mean().out(s):
                nxt.append((w + (a,), t))
                if t == 0:
                    loops.add(w + (a,))
        frontier = nxt
    for n in range(1, 5):
        for w in itertools.product("ab", repeat=n):
            assert T.dfa.accepts(w) == (w in loops)


def test_loop_language_period2_is_ab_plus():
    T = loop_language(period_shift(2), 0)
    assert take(T.dfa.iter_words(), 3) == [
        ("a", "b"), ("a", "b", "a", "b"), ("a", "b", "a", "b", "a", "b"),
    ]


def test_loop_language_invalid_state():
    with pytest.raises(InvalidState):
        loop_language(golden_mean(), 7)


def test_power_factorial():
    S = period2_syntactic_table()
    e = 2  # ab, idempotent
    assert power_factorial(S, e, 5) == e
    assert power_factorial(S, 0, 2) == S.zero  # a^2 = 0
    Z3 = cyclic_group(3)
    # s of period 3: s^(3!) = s^6 = identity
    assert power_factorial(Z3, 1, 3) == Z3.identity
    # small factorial below the index is not reduced: x with x^4 = x^3
    from soficsemi import FiniteSemigroup

    C = FiniteSemigroup(
        [[min(i + j + 1, 2) for j in range(3)] for i in range(3)], [0]
    )
    assert power_factorial(C, 0, 2) == C.mul(0, 0)  # x^2
    assert power_factorial(C, 0, 4) == 2  # x^24 = x^3


def test_power_factorial_against_direct_powers():
    S = period2_syntactic_table()
    import math

    for s in range(S.n):
        for n in range(1, 6):
            assert power_factorial(S, s, n) == S.power(s, math.factorial(n))


def test_evaluate_zimin_trivial_and_absorbing():
    T = loop_language(full_shift(2), 0)
    S1 = trivial_semigroup()
    res = evaluate_zimin(T, S1, {"a": 0, "b": 0})
    assert res.value == 0 and res.stop_index == 1

    SL = chain_semilattice()
    res2 = evaluate_zimin(T, SL, {"a": 1, "b": 1})
    assert res2.value == 1  # the absorbing element


def test_evaluate_zimin_period2():
    D = syntactic_semigroup(period_shift(2))
    T = loop_language(period_shift(2), 0)
    res = evaluate_zimin(T, D.semigroup, D.letter_map)
    assert D.semigroup.is_idempotent(res.value)
    assert res.value == D.image(("a", "b"))
    ok, j = is_aggm(D.semigroup)
    assert res.value in j
    assert in_minimal_ideal(D.semigroup, res.image, res.value)
    assert res.stop_index <= res.bound


def test_evaluate_zimin_image_set():
    D = syntactic_semigroup(golden_mean())
    T = loop_language(golden_mean(), 0)
    img = phi_image_of_language(T.dfa, D.semigroup, D.letter_map)
    # oracle: evaluate all loop words up to length 6
    expect = set()
    for n in range(1, 7):
        for w in itertools.product("ab", repeat=n):
            if T.dfa.accepts(w):
                expect.add(D.image(w))
    assert expect <= img


def test_zimin_term_structure():
    t = ZiminTerm.leaf(("a",))
    t = t.extend(("b",), 2)
    t = t.extend(("a", "b"), 3)
    assert t.word_length() == ((2 * (1 * 2 + 1) * 2) + 2) * 6
    assert t.pretty() == "w1=a; w2=(w1 b w1)^(2!); w3=(w2 ab w2)^(3!)"


def test_rational_bound_check():
    S1 = trivial_semigroup()
    T = loop_language(full_shift(2), 0)
    assert rational_bound_check(T.dfa, S1, {"a": 0, "b": 0})
    D = syntactic_semigroup(period_shift(2))
    d = syntactic_semigroup(period_shift(2)).dfa
    assert rational_bound_check(d, D.semigroup, D.letter_map)
    S4 = period2_syntactic_table()
    assert rational_bound_check(factor_dfa_full(), S4, {"a": 0, "b": 1})


def factor_dfa_full():
    from soficsemi import factor_dfa

    return factor_dfa(full_shift(2))


def bounded_image_oracle(d, S, gens_map, bound):
    """Elements reached by an accepted word of length at most `bound`: the
    depth-bounded product BFS that rational_bound_check once ran after the
    full one."""
    ident = object()
    seen = {(d.initial, ident)}
    frontier = [(d.initial, ident)]
    found = set()
    depth = 0
    while frontier and depth < bound:
        depth += 1
        nxt = []
        for q, s in frontier:
            for a in d.alphabet:
                q2 = d.step(q, a)
                s2 = gens_map[a] if s is ident else S.mul(s, gens_map[a])
                if q2 in d.accepting:
                    found.add(s2)
                state = (q2, s2)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return found


def rational_bound_check_oracle(dfa, S, gens_map):
    """The former two-BFS body of rational_bound_check."""
    d = dfa.minimize()
    bound = d.n_states * (S.n + 1) - 1
    return bounded_image_oracle(d, S, gens_map, bound) == phi_image_of_language(d, S, gens_map)


def test_first_depths_match_bounded_bfs_oracle():
    from corpus import corpus_presentations, random_presentation, random_transformation_semigroup
    from soficsemi.zimin import _first_depths

    cases = []
    for P in [P for _, P in corpus_presentations()] + [
        random_presentation(seed, n, "ab") for seed in range(6) for n in (3, 4, 5)
    ]:
        D = syntactic_semigroup(P)
        cases.append((loop_language(P, 0).dfa, D.semigroup, D.letter_map))
        cases.append((D.dfa, D.semigroup, D.letter_map))
        # a semigroup other than the syntactic one gives other depths
        R = random_transformation_semigroup(len(cases), 3, len(P.alphabet))
        cases.append((loop_language(P, 0).dfa, R, dict(zip(P.alphabet, R.generators))))
    for dfa, S, gens_map in cases:
        assert rational_bound_check(dfa, S, gens_map) == rational_bound_check_oracle(
            dfa, S, gens_map
        )
        d = dfa.minimize()
        depths = _first_depths(d, S, gens_map)
        assert frozenset(depths) == phi_image_of_language(d, S, gens_map)
        for bound in range(max(depths.values()) + 2):
            reached = {s for s, k in depths.items() if k <= bound}
            assert reached == bounded_image_oracle(d, S, gens_map, bound)


def test_checks_survive_optimize():
    """Bad arguments raise ValueError and a failed check raises CheckFailed
    under `python -O`, where an assert would not."""
    code = (
        "from soficsemi import FiniteSemigroup, evaluate_zimin, power_factorial\n"
        "from soficsemi.errors import CheckFailed\n"
        "from soficsemi.shiftspace import Dfa\n"
        "assert False, 'asserts are on'\n"
        "S = FiniteSemigroup([[0]], [0], check=False)\n"
        "for call in (lambda: power_factorial(S, 0, 0),\n"
        "             lambda: evaluate_zimin(Dfa([[0]], ['a'], 0, [0]), S, {}),\n"
        "             lambda: evaluate_zimin(Dfa([[0]], ['a'], 0, []), S, {'a': 0})):\n"
        "    try:\n"
        "        call()\n"
        "    except (ValueError, CheckFailed) as e:\n"
        "        print(type(e).__name__, e)\n"
    )
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ValueError power_factorial needs n >= 1, got 0",
        "ValueError generator map missing letter a",
        "CheckFailed loop language is empty",
    ]
