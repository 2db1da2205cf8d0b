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
    """Iterative Tarjan on nodes 0..n-1; `succ(v)` returns a sequence.

    Returns (component id per node, classes): components are numbered by
    their minimal node and each class is a sorted tuple, so the result does
    not depend on the order of `succ(v)`.
    """
    indices = [None] * n
    low = [0] * n
    comp = [None] * n
    on_stack = [False] * n
    stack = []
    counter = 0
    comps = []
    for root in range(n):
        if indices[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                indices[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            edges = succ(v)
            while pi < len(edges):
                w = edges[pi]
                pi += 1
                if indices[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    recurse = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], indices[w])
            if recurse:
                continue
            if low[v] == indices[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(members)
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    order = sorted(range(len(comps)), key=lambda c: min(comps[c]))
    renum = {old: new for new, old in enumerate(order)}
    comp = tuple(renum[c] for c in comp)
    classes = tuple(tuple(sorted(comps[old])) for old in order)
    return comp, classes
