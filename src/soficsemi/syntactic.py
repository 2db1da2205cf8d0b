"""Syntactic semigroups of sofic factor languages and the AGGM machinery.

The syntactic semigroup is computed as the transition semigroup of the
minimal complete DFA of the factor language; a context-profile oracle is
provided for independent verification on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailed, NotAGGM, NotStronglyConnected, check
from .finsemi import (
    DEFAULT_CAP,
    FiniteSemigroup,
    PartialTransformation,
    SemigroupMorphism,
    close_generators,
    lift_jclass,
)
from .shiftspace import Dfa, Presentation, factor_dfa


@dataclass
class SyntacticData:
    """Syntactic semigroup of L(X) together with the letter morphism.

    `alphabet` is the ambient alphabet X, which may strictly contain the
    letters occurring in the presentation (letters outside the shift map to
    zero)."""

    semigroup: FiniteSemigroup
    letter_map: dict
    dfa: Dfa
    source: Presentation
    zero: int  # element all non-factors map to; None when L(X) = X^+
    alphabet: tuple = None

    def image(self, w):
        """The syntactic morphism on a non-empty word."""
        w = tuple(w)
        cur = self.letter_map[w[0]]
        for a in w[1:]:
            cur = self.semigroup.mul(cur, self.letter_map[a])
        return cur

    def in_language(self, w):
        return self.image(w) != self.zero if self.zero is not None else True

    def distinguished_class(self):
        ok, j = is_aggm(self.semigroup)
        if not ok:
            raise CheckFailed("syntactic semigroup is not AGGM", self.semigroup)
        return j


def syntactic_semigroup(P, extra_letters=(), cap=DEFAULT_CAP):
    """Transition semigroup of the minimal complete DFA of L(X).

    `extra_letters` adjoins ambient letters that never occur in the shift;
    they map to the zero of the syntactic semigroup."""
    if not P.irreducible:
        raise NotStronglyConnected("presentation graph is not strongly connected")
    d = factor_dfa(P)
    if extra_letters:
        d = d.extend_alphabet(tuple(extra_letters))
    maps = [
        PartialTransformation([d.trans[q][j] for q in range(d.n_states)])
        for j in range(len(d.alphabet))
    ]
    S = close_generators(maps, cap=cap)
    letter_map = {a: S.generators[j] for j, a in enumerate(d.alphabet)}
    sink = d.dead_state()
    zero = None
    if sink is not None:
        zero = S.zero
        dead = PartialTransformation.constant(d.n_states, sink)
        check(zero is not None and S.names[zero] == dead,
              "the zero is the constant map to the dead state", sink)
    return SyntacticData(S, letter_map, d, P, zero, tuple(d.alphabet))


def context_profile_classes(P, max_word_len, max_context_len):
    """Brute-force syntactic classes of words by two-sided context profiles.

    Membership goes through the presentation directly (path existence), so
    this is independent of the DFA pipeline.  Contexts include the empty
    word on either side.
    """
    alphabet = P.alphabet
    succ = {}
    for s, a, t in P.edges:
        succ.setdefault((s, a), set()).add(t)

    def members(w):
        cur = set(range(P.n_states))
        for a in w:
            cur = {t for s in cur for t in succ.get((s, a), ())}
            if not cur:
                return False
        return True

    def upto(n):
        acc = [()]
        frontier = [()]
        for _ in range(n):
            frontier = [w + (a,) for w in frontier for a in alphabet]
            acc.extend(frontier)
        return acc

    contexts = upto(max_context_len)
    profile = {}
    for x in upto(max_word_len):
        if not x:
            continue
        key = frozenset(
            (u, v) for u in contexts for v in contexts if members(u + x + v)
        )
        profile.setdefault(key, []).append(x)
    return list(profile.values())


def is_aggm(S):
    """Generalized group mapping with aperiodic distinguished ideal.

    Returns (flag, distinguished J-class elements or None), cached on S.  A
    semigroup passes when it is trivial, or when it has a 0-minimal (or
    minimal) regular ideal on which it acts faithfully on both sides and
    whose non-zero part has only trivial H-classes.  Each x in the J-class
    is u*r with r in R0 n L_x for one fixed R-class R0, so S acts faithfully
    on the right of the ideal iff it does on R0, and dually on the left with
    one L-class L0: O(|S| * (|R0| + |L0|)) lookups instead of O(|S|^2).
    """
    if S._aggm is None:
        S._aggm = _distinguished(S)
    return S._aggm


def _distinguished(S):
    if S.n == 1:
        return True, (0,)
    g = S.green()
    if S.zero is not None:
        zcls = g.j_class[S.zero]
        candidates = [
            c
            for c in range(len(g.j_classes))
            if c != zcls and g.j_below[c] == frozenset({c, zcls})
        ]
    else:
        candidates = g.minimal_j_classes()
        if len(candidates) != 1:
            raise CheckFailed("minimal J-class is not unique", candidates)
    winners = [
        c
        for c in candidates
        if g.regular[c]
        and all(len(g.h_classes[g.h_class[x]]) == 1 for x in g.j_classes[c])
        and _faithful_both_sides(S, g.j_classes[c])
    ]
    if not winners:
        return False, None
    if len(winners) != 1:
        raise CheckFailed("distinguished ideal is not unique", winners)
    return True, tuple(g.j_classes[winners[0]])


def _faithful_both_sides(S, j_elems):
    g = S.green()
    x = j_elems[0]
    l0 = g.l_classes[g.l_class[x]] + (() if S.zero is None else (S.zero,))
    return (len(set(_right_action(S, g.r_classes[g.r_class[x]]))) == S.n
            and len(set(_left_action(S, l0))) == S.n)


def _right_action(S, points):
    """Per element s, (x*s for x in points); x*(p*g) = (x*p)*g is one lookup."""
    cay, parent, lastgen = S._cayley, S._parent, S._lastgen
    acts = [None] * S.n
    for s in S._order:
        p, j = parent[s], lastgen[s]
        acts[s] = tuple(cay[x][j] for x in (points if p is None else acts[p]))
    return acts


def _left_action(S, points):
    """Per element s, the positions of s*x for x in points, which must be
    closed under left multiplication; s*x = p*(g*x) is one lookup."""
    pos = {x: i for i, x in enumerate(points)}
    gens = [tuple(pos[S.mul(g, x)] for x in points) for g in S.generators]
    acts = [None] * S.n
    for s in S._order:
        p, gen = S._parent[s], gens[S._lastgen[s]]
        acts[s] = gen if p is None else tuple(acts[p][i] for i in gen)
    return acts


def separating_contexts(S, j_elems):
    """The Rhodes criterion: elements are separated by J-class membership of
    two-sided translates into the distinguished class.

    Groups s by the pairs (x, y) in J x J with x*s*y in J, under an
    equivalent key.  With r in R0 n L_x for one R-class R0, x*s*y is in J
    iff r*s is in J and L(r*s) n R(y) holds an idempotent (Clifford-Miller).
    So the key is the tuple, over one r in R0 per L-class, of the R-classes
    of the idempotents in L(r*s), or None where there are none (as when r*s
    is not in J): |S| * #L products instead of |S| * |J|^2.
    """
    g = S.green()
    lsig = {
        l: frozenset(g.r_class[e] for e in g.l_classes[l] if S.is_idempotent(e)) or None
        for l in {g.l_class[x] for x in j_elems}
    }
    reps = {g.l_class[r]: r for r in g.r_classes[g.r_class[j_elems[0]]]}
    profiles = {}
    for s, act in enumerate(_right_action(S, tuple(reps.values()))):
        profiles.setdefault(tuple(lsig.get(g.l_class[v]) for v in act), []).append(s)
    return profiles


def aggm_forward_check(P, cap=DEFAULT_CAP):
    """Forward half of the equivalence: syntactic semigroups are AGGM."""
    D = syntactic_semigroup(P, cap=cap)
    ok, j = is_aggm(D.semigroup)
    if not ok:
        raise CheckFailed("syntactic semigroup is not AGGM")
    profiles = separating_contexts(D.semigroup, j)
    if any(len(v) != 1 for v in profiles.values()):
        bad = next(v for v in profiles.values() if len(v) != 1)
        raise CheckFailed("distinguished class fails to separate", bad[:2])
    return {
        "semigroup_size": D.semigroup.n,
        "is_aggm": True,
        "distinguished_class_size": len(j),
        "subgroup_trivial": True,
        "data": D,
        "jclass": j,
    }


def aggm_backward_check(S, alphabet=None):
    """Backward half: an AGGM semigroup is the syntactic semigroup of the
    factor language it defines.

    Checks, with witnesses: S \\ {0} is factorial and irreducible inside S
    (the algebraic criterion), every pair of distinct elements is separated
    by a context (r, s) in S^1, and the transition semigroup of the minimal
    DFA of the reconstructed language is generator-isomorphic to S.
    """
    ok, j = is_aggm(S)
    if not ok:
        raise NotAGGM("input semigroup is not AGGM")
    if alphabet is None:
        alphabet = tuple(chr(97 + i) for i in range(len(S.generators)))
    if len(alphabet) != len(S.generators):
        raise ValueError(f"{len(alphabet)} letters for {len(S.generators)} generators")
    if S.n == 1:
        dfa = Dfa([[0] * len(alphabet)], alphabet, 0, {0})
        return dfa, {"semigroup_size": 1, "is_aggm": True}

    zero = S.zero
    check(zero is not None, "non-trivial AGGM semigroup must have a zero", S)
    nonzero = [s for s in range(S.n) if s != zero]
    g = S.green()
    # factorial: factors of non-zero elements are non-zero
    for a in nonzero:
        for b in range(S.n):
            if g.leq_j(g.j_class[a], g.j_class[b]) and b == zero:
                raise CheckFailed("S minus zero is not factorial", (a, b))
    # irreducible: connecting elements exist inside S
    for u in nonzero:
        for v in nonzero:
            if all(S.mul(S.mul(u, w), v) == zero for w in range(S.n)):
                raise CheckFailed("S minus zero is not irreducible", (u, v))
    # syntactic minimality: contexts over S^1 separate distinct elements
    for m in nonzero + [zero]:
        for n_ in range(m + 1, S.n):
            if not _separated(S, zero, m, n_):
                raise CheckFailed("elements not separated by contexts", (m, n_))
    # language-level reconstruction: minimal DFA over S^1 states
    dfa = _language_dfa(S, alphabet).minimize()
    maps = [
        PartialTransformation([dfa.trans[q][j] for q in range(dfa.n_states)])
        for j in range(len(alphabet))
    ]
    T = close_generators(maps, cap=DEFAULT_CAP)
    iso = generator_isomorphic(S, T)
    if not iso:
        raise CheckFailed("reconstructed syntactic semigroup differs from input")
    return dfa, {
        "semigroup_size": S.n,
        "is_aggm": True,
        "distinguished_class_size": len(j),
    }


def _separated(S, zero, m, n_):
    ids = list(range(S.n)) + [None]  # None stands for the adjoined identity
    for r in ids:
        rm = m if r is None else S.mul(r, m)
        rn = n_ if r is None else S.mul(r, n_)
        for s in ids:
            rms = rm if s is None else S.mul(rm, s)
            rns = rn if s is None else S.mul(rn, s)
            if (rms == zero) != (rns == zero):
                return True
    return False


def _language_dfa(S, alphabet):
    """DFA over states S^1 accepting words with non-zero image."""
    n = S.n
    ident = n  # adjoined identity state
    trans = []
    for q in range(n):
        trans.append([S.mul(q, S.generators[j]) for j in range(len(alphabet))])
    trans.append([S.generators[j] for j in range(len(alphabet))])
    accepting = {q for q in range(n) if q != S.zero}
    return Dfa(trans, alphabet, ident, accepting)


def generator_isomorphic(S, T):
    """Isomorphism test for equally generated semigroups (generator i maps
    to generator i)."""
    if S.n != T.n or len(S.generators) != len(T.generators):
        return False
    try:
        m = SemigroupMorphism.from_generator_map(S, T, list(T.generators))
    except ValueError:
        return False
    return m.is_surjective()


def fischer_cover(D):
    """Minimal right-resolving presentation, as the right-action graph on an
    R-class of the distinguished J-class."""
    S = D.semigroup
    alphabet = D.alphabet if D.alphabet is not None else tuple(sorted(D.letter_map))
    if S.n == 1:
        cover = Presentation(1, [(0, a, 0) for a in alphabet], alphabet)
    else:
        ok, j = is_aggm(S)
        if not ok:
            raise NotAGGM("Fischer cover needs an AGGM syntactic semigroup")
        cover = _schutzenberger_graph(S, j, D.letter_map)
    d = factor_dfa(cover)
    if not d.equivalent(D.dfa):
        witness = (d.difference_witness(D.dfa), D.dfa.difference_witness(d))
        raise CheckFailed("cover language differs from the source", witness)
    return cover


def _schutzenberger_graph(S, j_elems, letter_map):
    g = S.green()
    e0 = min(x for x in j_elems if S.is_idempotent(x))
    members = g.r_classes[g.r_class[e0]]
    pos = {x: i for i, x in enumerate(members)}
    edges = []
    for x in members:
        for a, s in sorted(letter_map.items()):
            y = S.mul(x, s)
            if y in pos:
                edges.append((pos[x], a, pos[y]))
    # right-resolving by construction: the action is a partial function
    seen = set()
    for s, a, _ in edges:
        if (s, a) in seen:
            raise CheckFailed("Schutzenberger graph is not right-resolving", (s, a))
        seen.add((s, a))
    cover = Presentation(len(members), edges)
    if not cover.irreducible:
        raise CheckFailed("Schutzenberger graph is not strongly connected", e0)
    return cover


def image_apex(psi, D):
    """Unique minimal J-class of psi's source mapping into the distinguished
    class of the syntactic semigroup (finite analogue of the lifting lemma)."""
    from .errors import NoCompatibleTriangle

    if psi.target is not D.semigroup and psi.target.table != D.semigroup.table:
        raise NoCompatibleTriangle("target is not the syntactic semigroup")
    if len(psi.source.generators) != len(psi.target.generators):
        raise NoCompatibleTriangle("generator counts differ")
    for i, gs in enumerate(psi.source.generators):
        if psi(gs) != psi.target.generators[i]:
            raise NoCompatibleTriangle(f"generator {i} not respected")
    if not psi.is_surjective():
        raise NoCompatibleTriangle("morphism is not surjective")
    j = D.distinguished_class()
    gt = D.semigroup.green()
    return lift_jclass(psi, gt.j_class[j[0]])
