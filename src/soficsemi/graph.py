"""Graph search shared by the toolkit: reachability and strongly connected
components of a digraph given by a successor function.

Green's relations and the J-order (Cayley graphs), the Perron root of the
entropy (live-state graph) and irreducibility of a presentation all reduce
to these two searches.
"""

from __future__ import annotations


def reach(roots, succ):
    """The set of nodes reachable from `roots` (included) along `succ(v)`."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def sccs(n, succ):
    """Iterative Tarjan on nodes 0..n-1; `succ(v)` returns an iterable and
    is called once per node.

    Returns (component id per node, classes, done): components are numbered
    by their minimal node and each class is a sorted tuple, so the result
    does not depend on the order of `succ(v)`; `done` lists the component
    ids in the order Tarjan completes them, so each component comes after
    every component it reaches.
    """
    indices = [None] * n
    low = [0] * n
    comp = [None] * n
    stack = []
    counter = 0
    comps = []
    for root in range(n):
        if indices[root] is not None:
            continue
        indices[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if indices[w] is None:
                    indices[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ(w))))
                    break
                if comp[w] is None and indices[w] < low[v]:
                    low[v] = indices[w]  # w is still on the stack
            else:
                work.pop()
                if low[v] == indices[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = len(comps)
                        members.append(w)
                        if w == v:
                            break
                    comps.append(members)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    order = sorted(range(len(comps)), key=lambda c: min(comps[c]))
    done = [0] * len(comps)
    for new, old in enumerate(order):
        done[old] = new
    comp = tuple(done[c] for c in comp)
    classes = tuple(tuple(sorted(comps[old])) for old in order)
    return comp, classes, tuple(done)
