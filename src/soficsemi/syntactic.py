"""Syntactic semigroups of sofic factor languages and the AGGM machinery.

The syntactic semigroup is closed on the Fischer cover, the terminal strongly
connected component of the live states of the minimal DFA of L(X) (Lind and
Marcus, section 3.3), on which the letters act as partial maps.
"""

from __future__ import annotations

from .errors import CheckFailed, NoCompatibleTriangle, NotAGGM, check
from .finsemi import (
    DEFAULT_CAP,
    PartialTransformation,
    SemigroupMorphism,
    apex,
    close_generators,
    gatherer,
    lift_jclass,
    right_table,
)
from .graph import sccs
from .shiftspace import Dfa, Presentation, factor_dfa


class SyntacticData:
    """Syntactic semigroup of L(X) together with the letter morphism.

    `alphabet` is the ambient alphabet X, which may strictly contain the
    letters occurring in the presentation (letters outside the shift map to
    zero)."""

    __slots__ = ("semigroup", "letter_map", "dfa", "source", "zero", "alphabet", "states")

    def __init__(self, semigroup, letter_map, dfa, source, zero, alphabet, states):
        self.semigroup = semigroup
        self.letter_map = letter_map
        self.dfa = dfa
        self.source = source
        self.zero = zero  # element all non-factors map to; None when L(X) = X^+
        self.alphabet = alphabet
        self.states = states  # DFA states of the Fischer cover; point i of a carrier is states[i]

    def image(self, w):
        """The syntactic morphism on a non-empty word; letter j of the
        alphabet is generator j."""
        return self.semigroup.eval_word(self.dfa.letter_pos[a] for a in w)

    def distinguished_class(self):
        ok, j = is_aggm(self.semigroup)
        if not ok:
            raise CheckFailed("syntactic semigroup is not AGGM", self.semigroup)
        return j


def close_on_component(d, cap=DEFAULT_CAP):
    """The closure of the letters of the DFA d as partial maps on the
    terminal strongly connected component of its live states (undefined where
    they leave it, for the dead state), and that component's states, point i
    standing for states[i]."""
    dead = d.dead_state()
    comp, classes, _ = sccs(d.n_states, d.trans.__getitem__)
    terminal = [c for c, members in enumerate(classes) if dead not in members
                and all(comp[t] == c for q in members for t in d.trans[q] if t != dead)]
    check(len(terminal) == 1, "the live states have one terminal component", terminal)
    states = classes[terminal[0]]
    point = {q: i for i, q in enumerate(states)}
    rows = map(d.trans.__getitem__, states)
    maps = [PartialTransformation(map(point.get, col)) for col in zip(*rows)]
    return close_generators(maps, cap=cap), states


def syntactic_semigroup(P, extra_letters=(), cap=DEFAULT_CAP):
    """The syntactic semigroup of L(X), closed on the Fischer cover's states.

    `extra_letters` adjoins ambient letters that never occur in the shift;
    they map to the zero of the syntactic semigroup."""
    d = factor_dfa(P)  # raises NotStronglyConnected unless P is irreducible
    if extra_letters:
        d = d.extend_alphabet(tuple(extra_letters))
    S, states = close_on_component(d, cap)
    letter_map = {a: S.generators[j] for j, a in enumerate(d.alphabet)}
    sink = d.dead_state()
    zero = None if sink is None else S.zero
    check(sink is None or zero is not None and S.names[zero].rank == 0,
          "the zero is the empty map", sink)
    return SyntacticData(S, letter_map, d, P, zero, tuple(d.alphabet), states)


def is_aggm(S):
    """Generalized group mapping with aperiodic distinguished ideal.

    Returns (flag, distinguished J-class elements or None), cached on S.  A
    semigroup passes when it is trivial, or when it has a 0-minimal (or
    minimal) regular ideal on which it acts faithfully on both sides and
    whose non-zero part has only trivial H-classes.  Each x in the J-class
    is u*r with r in R0 n L_x for one fixed R-class R0, so S acts faithfully
    on the right of the ideal iff it does on R0, and dually on the left with
    one L-class L0: one gather per element on each, not |S|^2 products.
    """
    if S._aggm is None:
        S._aggm = _distinguished(S)
    return S._aggm


def _distinguished(S):
    if S.n == 1:
        return True, (0,)
    g = S.green()
    if S.zero is not None:
        candidates = g.zero_minimal_j_classes(S.zero)
    else:
        candidates = g.minimal_among(range(len(g.j_classes)))
        if len(candidates) != 1:
            raise CheckFailed("minimal J-class is not unique", candidates)
    winners = [
        c
        for c in candidates
        if g.regular[c]
        and _h_trivial(g, g.j_classes[c])
        and _faithful_both_sides(S, g.j_classes[c])
    ]
    if not winners:
        return False, None
    if len(winners) != 1:
        raise CheckFailed("distinguished ideal is not unique", winners)
    return True, tuple(g.j_classes[winners[0]])


def _h_trivial(g, j_elems):
    """Whether the H-classes of a J-class are trivial: its cells R x L, all
    of one size, are then as many as its elements."""
    rows, cols = {g.r_class[x] for x in j_elems}, {g.l_class[x] for x in j_elems}
    return len(rows) * len(cols) == len(j_elems)


def _faithful_both_sides(S, j_elems):
    g = S.green()
    # the left action first, so that it is gone before the kept right one is built
    return (len(set(S.left_action(g.l_classes[g.l_class[j_elems[0]]]))) == S.n
            and len(set(_r0_action(S, j_elems))) == S.n)


def _r0_action(S, j_elems):
    """The right action on the R-class of j_elems[0], kept on S for the last
    R-class asked: `is_aggm` and `separating_contexts` read the same one."""
    g = S.green()
    r_id = g.r_class[j_elems[0]]
    if S._r0_action is None or S._r0_action[0] != r_id:
        S._r0_action = (r_id, S.right_action(g.r_classes[r_id]))
    return S._r0_action[1]


def separating_contexts(S, j_elems):
    """The Rhodes criterion: elements are separated by J-class membership of
    two-sided translates into the distinguished class.

    Groups s by the pairs (x, y) in J x J with x*s*y in J, under an
    equivalent key.  With r in R0 n L_x for one R-class R0, x*s*y is in J
    iff r*s is in J and L(r*s) n R(y) holds an idempotent (Clifford-Miller).
    So the key of s is its positions on R0 read through one table, from
    position to the signature of L(r*s): the set of R-classes of its
    idempotents, one id standing for none and for r*s outside J.  L is a
    right congruence, so all of R0 groups s as one r per L-class does: one
    gather per element instead of |S| * |J|^2 products.
    """
    g = S.green()
    r0 = g.r_classes[g.r_class[j_elems[0]]]
    m = len(r0)
    sigs = {l: frozenset(g.r_class[e] for e in g.l_classes[l] if S.is_idempotent(e))
            for l in set(map(g.l_class.__getitem__, r0))}
    ids = {frozenset(): m}  # the sentinel's id; the others are below m
    table = right_table([ids.setdefault(sigs[g.l_class[r]], len(ids) - 1) for r in r0], m)
    profiles = {}
    for s, act in enumerate(_r0_action(S, j_elems)):
        profiles.setdefault(gatherer(act)(table), []).append(s)
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


def aggm_backward_check(S):
    """Backward half: an AGGM semigroup is the syntactic semigroup of the
    factor language it defines.

    Checks, with witnesses: S \\ {0} is factorial and irreducible inside S
    (the algebraic criterion), every pair of distinct elements is separated
    by a context (r, s) in S^1, and the transition semigroup of the minimal
    DFA of the reconstructed language is generator-isomorphic to S. The
    generators are read as the letters a, b, c, ... in order.
    """
    ok, j = is_aggm(S)
    if not ok:
        raise NotAGGM("input semigroup is not AGGM")
    alphabet = tuple(chr(97 + i) for i in range(len(S.generators)))
    if S.n == 1:
        dfa = Dfa([[0] * len(alphabet)], alphabet, 0, {0})
        return dfa, {"semigroup_size": 1, "is_aggm": True}

    zero = S.zero
    check(zero is not None, "non-trivial AGGM semigroup must have a zero", S)
    nonzero = [s for s in range(S.n) if s != zero]
    # S minus zero is factorial and irreducible, with the distinguished class
    # as its apex
    top = apex(S, nonzero)
    check(S.green().j_classes[top] == j, "the apex of S minus zero is the distinguished class",
          top)
    # language-level reconstruction: the minimal DFA of the words with
    # non-zero image, its letters closed on its terminal live component
    dfa = _language_dfa(S, alphabet).minimize()
    T, _ = close_on_component(dfa)
    # syntactic minimality: contexts over S^1 separate distinct elements
    pair = first_unseparated(S, T)
    check(pair is None, "elements not separated by contexts", pair)
    check(generator_isomorphic(S, T), "reconstructed syntactic semigroup differs from input")
    return dfa, {
        "semigroup_size": S.n,
        "is_aggm": True,
        "distinguished_class_size": len(j),
    }


def first_unseparated(S, T):
    """The first pair (m, n), m < n, that no context (r, s) in S^1 separates
    (r*m*s is zero exactly when r*n*s is), m ascending and the zero last, or
    None.  T is the syntactic semigroup of the words with non-zero image, so
    the generator map S -> T is the quotient by that context congruence: m
    and n are unseparated exactly when they have one image."""
    image = SemigroupMorphism.from_generator_map(S, T, list(T.generators), check=False).mapping
    later, last = [None] * S.n, {}
    for x in reversed(range(S.n)):  # per element, the next one with its image
        later[x], last[image[x]] = last.get(image[x]), x
    return next(((m, later[m]) for m in sorted(range(S.n), key=lambda x: x == S.zero)
                 if later[m] is not None), None)


def _language_dfa(S, alphabet):
    """DFA over states S^1, the adjoined identity last, accepting words with
    non-zero image."""
    trans = [[S.mul(q, g) for g in S.generators] for q in range(S.n)] + [list(S.generators)]
    return Dfa(trans, alphabet, S.n, set(range(S.n)) - {S.zero})


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
    """Minimal right-resolving presentation: the letter action on the
    terminal live component of the factor DFA.  Point q is numbered by the
    index of its member of the R-class of e0, the least idempotent of rank 1:
    the map with e0's domain and image {q}.  Edges follow the letter maps,
    letters sorted."""
    S, k = D.semigroup, len(D.states)
    if S.n == 1:
        cover = Presentation(1, [(0, a, 0) for a in D.alphabet], D.alphabet)
    else:
        e0 = next((x for x in range(S.n) if S.names[x].rank == 1 and S.is_idempotent(x)), None)
        check(e0 is not None, "S has an idempotent of rank 1", D.states)
        domain = S.names[e0].domain()
        member = []
        for q in range(k):
            try:
                member.append(S.names.index(
                    PartialTransformation([q if i in domain else None for i in range(k)])))
            except ValueError:
                raise CheckFailed("every component state has its R-class member",
                                  D.states[q]) from None
        number = {q: i for i, q in enumerate(sorted(range(k), key=member.__getitem__))}
        acts = sorted((a, S.names[s].mapping) for a, s in D.letter_map.items())
        cover = Presentation(k, [(number[q], a, number[act[q]]) for q in number
                                 for a, act in acts if act[q] is not None])
        check(cover.irreducible, "the Fischer cover is strongly connected", e0)
    d = factor_dfa(cover)
    if not d.equivalent(D.dfa):
        witness = (d.difference_witness(D.dfa), D.dfa.difference_witness(d))
        raise CheckFailed("cover language differs from the source", witness)
    return cover


def image_apex(psi, D):
    """Unique minimal J-class of psi's source mapping into the distinguished
    class of the syntactic semigroup (finite analogue of the lifting lemma)."""
    if not psi.target.same_table(D.semigroup):
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
