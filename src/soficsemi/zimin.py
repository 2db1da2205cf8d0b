"""Computable idempotents in loop subsemigroups via the Zimin-style sequence
w_1 = v_1, w_{n+1} = (w_n v_{n+1} w_n)^{(n+1)!} evaluated homomorphically.

The iteration stops once the value is an idempotent that has every element
of the image of the loop language as a factor, which certifies membership in
the minimal ideal; the theoretical stopping bound N is reported as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidState, check
from .shiftspace import Dfa, join_word, subset_construction


@dataclass(frozen=True)
class ZiminTerm:
    """Expression tree for w_n; the exponent (n)! is kept symbolic."""

    prev: object  # ZiminTerm or None for the leaf
    v: tuple
    exponent: int  # the integer whose factorial is the exponent; 0 for leaf

    @classmethod
    def leaf(cls, v1):
        return cls(None, tuple(v1), 0)

    def extend(self, v_next, n_next):
        return ZiminTerm(self, tuple(v_next), n_next)

    def _chain(self):
        """The terms w_1, ..., w_n of the sequence, leaf first."""
        terms = []
        t = self
        while t is not None:
            terms.append(t)
            t = t.prev
        return terms[::-1]

    def word_length(self):
        leaf, *rest = self._chain()
        length = len(leaf.v)
        for t in rest:
            length = (2 * length + len(t.v)) * math.factorial(t.exponent)
        return length

    def pretty(self):
        """One definition per level, linear in n:
        w1=v1; w2=(w1 v2 w1)^(2!); ...; wn=(w(n-1) vn w(n-1))^(n!)."""
        leaf, *rest = self._chain()
        defs = [f"w1={join_word(leaf.v)}"]
        for i, t in enumerate(rest, 2):
            defs.append(f"w{i}=(w{i - 1} {join_word(t.v)} w{i - 1})^({t.exponent}!)")
        return "; ".join(defs)


@dataclass
class LoopLanguage:
    """Words reading a loop at a fixed vertex of a presentation."""

    dfa: Dfa
    m: int  # state count of the minimal automaton
    vertex: int
    alphabet: tuple


def loop_language(P, v):
    P.require_irreducible()
    if not (0 <= v < P.n_states):
        raise InvalidState(f"vertex {v} out of range")
    d = subset_construction(P, [v], lambda sub: v in sub).minimize()
    lang = LoopLanguage(d, d.n_states, v, P.alphabet)
    # loops concatenate, so T is a subsemigroup: spot-check on early elements
    first = list(itertools.islice(d.iter_words(), 4))
    for x in first:
        for y in first:
            check(d.accepts(x + y), "loop language must be closed under concatenation",
                  x + y)
    return lang


def power_factorial(S, s, n):
    """s^(n!) computed through the index and period of s; n! is only ever
    reduced modulo the period, never materialized beyond the index."""
    if n < 1:
        raise ValueError(f"power_factorial needs n >= 1, got {n}")
    i, q = S.index_period(s)
    fact_capped = 1
    for j in range(2, n + 1):
        fact_capped *= j
        if fact_capped >= i:
            break
    if fact_capped < i:
        return S.power(s, fact_capped)
    fact_mod = 1
    for j in range(2, min(n, q) + 1):  # n! = 0 (mod q) once n >= q
        fact_mod = (fact_mod * j) % q
    exponent = i + ((fact_mod - i) % q)
    return S.power(s, exponent)


def _first_depths(dfa, S, gens_map):
    """BFS over the product of the DFA and S: each element of the image of
    the language, mapped to the length of the shortest word reaching it."""
    ident = object()
    start = (dfa.initial, ident)
    seen = {start}
    frontier = [start]
    depths = {}
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for q, s in frontier:
            for a in dfa.alphabet:
                q2 = dfa.step(q, a)
                s2 = gens_map[a] if s is ident else S.mul(s, gens_map[a])
                state = (q2, s2)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
                if q2 in dfa.accepting:
                    depths.setdefault(s2, depth)
        frontier = nxt
    return depths


def phi_image_of_language(dfa, S, gens_map):
    """Exact image of a rational language in S via product-automaton BFS."""
    return frozenset(_first_depths(dfa, S, gens_map))


def in_minimal_ideal(S, subset, x):
    """Is x in the minimal ideal of the subsemigroup `subset` of S?
    Equivalently: every element of the subset is a factor of x inside it."""
    subset = sorted(subset)
    sub1 = subset + [None]
    for t in subset:
        found = False
        for u in sub1:
            ut = t if u is None else S.mul(u, t)
            for v in sub1:
                w = ut if v is None else S.mul(ut, v)
                if w == x:
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def minimal_ideal_of_subset(S, subset):
    """Kernel of the subsemigroup of S on `subset` (must be closed)."""
    from .finsemi import FiniteSemigroup

    subset = sorted(subset)
    pos = {s: i for i, s in enumerate(subset)}
    table = [[pos[S.mul(x, y)] for y in subset] for x in subset]
    sub = FiniteSemigroup(table, names=subset, check=False)
    g = sub.green()
    bottoms = g.minimal_j_classes()
    check(len(bottoms) == 1, "a finite semigroup has a unique kernel", bottoms)
    return frozenset(subset[i] for i in g.j_classes[bottoms[0]])


@dataclass
class ZiminResult:
    value: int  # the idempotent rho = phi(w_{n*})
    stop_index: int  # n*
    bound: int  # guaranteed stopping bound N = |X| + ... + |X|^r (exact integer)
    term: ZiminTerm
    image: frozenset  # phi(T)


def evaluate_zimin(T, S, gens_map):
    """Evaluate the Zimin sequence over a loop language in S.

    Stops at the first n >= |S| where the value is idempotent and every
    element of phi(T) is a factor of it; checks the descending chain of
    idempotents and the theoretical bound n* <= N.
    """
    dfa = T.dfa if isinstance(T, LoopLanguage) else T
    m = T.m if isinstance(T, LoopLanguage) else dfa.minimize().n_states
    for a in dfa.alphabet:
        if a not in gens_map:
            raise ValueError(f"generator map missing letter {a}")
    image = phi_image_of_language(dfa, S, gens_map)
    check(image, "loop language is empty")
    kernel = minimal_ideal_of_subset(S, image)

    k = S.n
    r = m * (k + 1) - 1
    size = len(dfa.alphabet)
    bound = r if size == 1 else (size ** (r + 1) - size) // (size - 1)  # |X| + ... + |X|^r

    stream = dfa.iter_words()
    v1 = next(stream)
    term = ZiminTerm.leaf(v1)

    def phi_word(w):
        cur = gens_map[w[0]]
        for a in w[1:]:
            cur = S.mul(cur, gens_map[a])
        return cur

    value = phi_word(v1)
    n = 1
    prev_idem = None
    while True:
        if n >= k and S.is_idempotent(value) and value in kernel:
            break
        v_next = next(stream)
        base = S.mul(S.mul(value, phi_word(v_next)), value)
        value_next = power_factorial(S, base, n + 1)
        term = term.extend(v_next, n + 1)
        n += 1
        if n >= k:
            check(S.is_idempotent(value_next), "chain values must be idempotent", n)
            if prev_idem is not None:
                below = (
                    S.mul(value_next, prev_idem) == value_next
                    and S.mul(prev_idem, value_next) == value_next
                )
                check(below, "idempotents must form a descending chain", n)
            prev_idem = value_next
        value = value_next
        check(n <= bound, "stop index exceeded the theoretical bound", n)
    check(S.is_idempotent(value), "the value is idempotent", value)
    check(value in image, "the value lies in phi(T)", value)
    # brute-force certificate, independent of the kernel computation above
    check(in_minimal_ideal(S, image, value), "the value lies in the minimal ideal of phi(T)",
          value)
    return ZiminResult(value, n, bound, term, image)


def rational_bound_check(dfa, S, gens_map):
    """Every element of the image of the language is reached by a word of
    length at most m(|S|+1)-1, found by BFS over the product automaton."""
    d = dfa.minimize()
    depths = _first_depths(d, S, gens_map)
    return max(depths.values(), default=0) <= d.n_states * (S.n + 1) - 1
