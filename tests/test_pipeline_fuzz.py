"""Randomized end-to-end runs over small presentations: every irreducible
sofic input must flow through the syntactic/AGGM/cover/idempotent/entropy
pipeline with all internal assertions holding."""

import random

from soficsemi import (
    Presentation,
    aggm_forward_check,
    entropy_estimate,
    evaluate_zimin,
    factor_dfa,
    fischer_cover,
    higher_block,
    is_aggm,
    is_periodic,
    loop_language,
    syntactic_semigroup,
)
from oracles import context_profile_classes, in_minimal_ideal


def spanning_cycle_presentation(seed):
    rng = random.Random(seed)
    n_states = rng.randint(2, 4)
    alphabet = "ab"
    edges = {(s, rng.choice(alphabet), (s + 1) % n_states) for s in range(n_states)}
    for _ in range(rng.randint(1, n_states)):
        edges.add((rng.randrange(n_states), rng.choice(alphabet), rng.randrange(n_states)))
    edges = sorted(edges)
    if {a for _, a, _ in edges} != set(alphabet):
        return None
    P = Presentation(n_states, edges, sorted(set(alphabet)))
    return P if P.irreducible else None


def test_pipeline_on_random_presentations():
    tested = 0
    seed = 0
    while tested < 12:
        seed += 1
        P = spanning_cycle_presentation(seed)
        if P is None:
            continue
        tested += 1
        D = syntactic_semigroup(P)
        aggm_forward_check(P)
        cover = fischer_cover(D)
        assert factor_dfa(cover).equivalent(D.dfa)
        res = evaluate_zimin(loop_language(P, 0), D.semigroup, D.letter_map)
        _, j = is_aggm(D.semigroup)
        assert res.value in j
        assert in_minimal_ideal(D.semigroup, res.image, res.value)
        h = entropy_estimate(P, n_max=10).value
        assert (is_periodic(P) is not None) == (h == 0.0)
        q = factor_dfa(P).count_words(7)
        q2 = factor_dfa(higher_block(P, 2)).count_words(6)
        assert all(q2[i] == q[i + 1] for i in range(6))


def test_syntactic_oracle_on_random_presentations():
    checked = 0
    seed = 1000
    while checked < 5:
        seed += 1
        P = spanning_cycle_presentation(seed)
        if P is None:
            continue
        D = syntactic_semigroup(P)
        if D.dfa.n_states > 5 or D.semigroup.n > 25:
            continue
        checked += 1
        classes = context_profile_classes(
            P, max_word_len=4, max_context_len=D.dfa.n_states
        )
        by_image = {}
        for words in classes:
            for w in words:
                by_image.setdefault(D.image(w), set()).add(w)
        assert {frozenset(v) for v in by_image.values()} == {
            frozenset(c) for c in classes
        }
