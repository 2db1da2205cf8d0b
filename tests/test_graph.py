"""The shared graph searches against brute-force oracles on random digraphs."""

import random

from soficsemi.graph import reach, sccs


def random_digraph(rng):
    """Adjacency lists on 0..n-1, with self-loops, repeated edges and
    isolated nodes."""
    n = rng.randint(0, 12)
    adj = [[] for _ in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        adj[rng.randrange(n)].append(rng.randrange(n))
    return adj


def closure_oracle(adj, roots):
    """Naive fixpoint: add successors until nothing changes."""
    seen = set(roots)
    while True:
        more = {w for v in seen for w in adj[v]} - seen
        if not more:
            return seen
        seen |= more


def test_reach_matches_naive_closure():
    rng = random.Random(0)
    for _ in range(400):
        adj = random_digraph(rng)
        n = len(adj)
        roots = rng.sample(range(n), rng.randint(0, min(n, 3)))
        assert reach(roots, adj.__getitem__) == closure_oracle(adj, roots)


def test_sccs_match_mutual_reachability():
    rng = random.Random(1)
    for _ in range(400):
        adj = random_digraph(rng)
        n = len(adj)
        below = [closure_oracle(adj, [v]) for v in range(n)]
        partition = {frozenset(w for w in below[v] if v in below[w]) for v in range(n)}
        expected = tuple(sorted(tuple(sorted(c)) for c in partition))
        comp, classes = sccs(n, adj.__getitem__)
        assert classes == expected
        assert all(v in classes[comp[v]] for v in range(n))
