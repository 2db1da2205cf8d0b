"""Sofic shift presentations, factor-language DFAs, and recodings.

A presentation is a labeled directed graph; its factor language is the set
of non-empty label words of paths.  Words are tuples of letters (letters are
arbitrary strings, so higher-block alphabets fit the same machinery).
"""

from __future__ import annotations

import itertools

from .errors import (
    CapExceeded,
    NotPrimitive,
    NotStronglyConnected,
    ShiftIsMinimal,
    check,
)
from .finsemi import DEFAULT_CAP
from .graph import reach


def word(s):
    """Convenience: split a plain string into a letter tuple."""
    if isinstance(s, tuple):
        return s
    return tuple(s)


def join_word(w):
    return "".join(w) if all(len(a) == 1 for a in w) else ",".join(w)


def parse_word(s, alphabet):
    """Parse a word against an alphabet; comma-split for multi-char letters."""
    if "," in s:
        letters = tuple(s.split(","))
    elif all(len(a) == 1 for a in alphabet):
        letters = tuple(s)
    else:
        letters = (s,)
    for a in letters:
        if a not in alphabet:
            raise ValueError(f"letter {a!r} not in alphabet")
    return letters


def block_label(letters):
    """Name for an N-block used as a single letter of the recoded alphabet."""
    return "".join(letters) if all(len(a) == 1 for a in letters) else "|".join(letters)


class Presentation:
    """Labeled directed graph presenting a sofic shift."""

    def __init__(self, n_states, edges, alphabet=None):
        edges = [(int(s), str(a), int(t)) for (s, a, t) in edges]
        if not edges:
            raise ValueError("presentation needs at least one edge")
        seen = {a for _, a, _ in edges}
        if alphabet is None:
            alphabet = sorted(seen)
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet repeats a letter")
        if set(alphabet) != seen:
            raise ValueError("alphabet must be exactly the set of edge labels")
        for s, _, t in edges:
            if not (0 <= s < n_states and 0 <= t < n_states):
                raise ValueError("edge endpoint out of range")
        self.n_states = n_states
        self.edges = tuple(edges)
        self.alphabet = alphabet
        self._irr = None
        self._factor_dfa = None
        self._witness = None

    @property
    def irreducible(self):
        if self._irr is None:
            self._irr = self._strongly_connected()
        return self._irr

    def _strongly_connected(self):
        n = self.n_states
        if n > len(self.edges):  # each state needs an out-edge of its own
            return False
        fwd = [[] for _ in range(n)]
        bwd = [[] for _ in range(n)]
        for s, _, t in self.edges:
            fwd[s].append(t)
            bwd[t].append(s)
        return all(len(reach([0], adj.__getitem__)) == n for adj in (fwd, bwd))

    def require_irreducible(self):
        if not self.irreducible:
            raise NotStronglyConnected("presentation graph is not strongly connected")

    def __repr__(self):
        return f"Presentation(states={self.n_states}, edges={len(self.edges)})"


def parse_presentation(text):
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0][0] != "presentation" or len(lines[0]) < 2:
        raise ValueError("expected 'presentation <#states> <letters...>' header")
    n = int(lines[0][1])
    alphabet = lines[0][2:]
    edges = []
    for parts in lines[1:]:
        if parts[0] != "edge" or len(parts) != 4:
            raise ValueError(f"bad edge line {' '.join(parts)}")
        edges.append((int(parts[1]), parts[2], int(parts[3])))
    return Presentation(n, edges, alphabet)


def format_presentation(P):
    out = [f"presentation {P.n_states} " + " ".join(P.alphabet)]
    for s, a, t in P.edges:
        out.append(f"edge {s} {a} {t}")
    return "\n".join(out) + "\n"


class Dfa:
    """Complete DFA; transitions indexed by (state, letter position)."""

    def __init__(self, trans, alphabet, initial, accepting):
        self.trans = tuple(tuple(row) for row in trans)
        self.alphabet = tuple(alphabet)
        self.letter_pos = {a: i for i, a in enumerate(self.alphabet)}
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.n_states = len(self.trans)

    def step(self, q, letter):
        return self.trans[q][self.letter_pos[letter]]

    def run(self, w, start=None):
        q = self.initial if start is None else start
        for a in w:
            q = self.trans[q][self.letter_pos[a]]
        return q

    def accepts(self, w):
        """Membership for non-empty words (the empty word is out of scope)."""
        if not w:
            raise ValueError("membership is defined for non-empty words only")
        return self.run(w) in self.accepting

    # -- structure -------------------------------------------------------

    def reachable(self):
        return reach([self.initial], self.trans.__getitem__)

    def minimize(self):
        """Moore refinement (Moore, 1956), then canonical BFS renumbering.

        Blocks start as accepting or not over the reachable states; each
        round numbers every state's signature (its block, then the block of
        each letter successor) afresh, until the block count stops growing.
        A round costs states x letters, one round per level of
        distinguishing depth, so chain-like DFAs take quadratic time. States
        are numbered by BFS from the initial block in letter order, so the
        result does not depend on the refinement.
        """
        reach = sorted(self.reachable())
        idx = {q: i for i, q in enumerate(reach)}
        cols = [[idx[self.trans[q][a]] for q in reach] for a in range(len(self.alphabet))]
        block = [q in self.accepting for q in reach]
        count = len(set(block))
        while True:
            ids = {}
            sigs = zip(block, *[map(block.__getitem__, col) for col in cols])
            block = [ids.setdefault(sig, len(ids)) for sig in sigs]
            if len(ids) == count:
                break
            count = len(ids)

        rep = {}
        for q, b in enumerate(block):
            rep.setdefault(b, q)
        order = [block[idx[self.initial]]]
        renum = {order[0]: 0}
        for b in order:  # grows as blocks are reached
            for col in cols:
                nb = block[col[rep[b]]]
                if nb not in renum:
                    renum[nb] = len(order)
                    order.append(nb)
        trans = [[renum[block[col[rep[b]]]] for col in cols] for b in order]
        accepting = {i for i, b in enumerate(order) if reach[rep[b]] in self.accepting}
        return Dfa(trans, self.alphabet, 0, accepting)

    def dead_state(self):
        for q in range(self.n_states):
            if q not in self.accepting and all(t == q for t in self.trans[q]):
                return q
        return None

    def extend_alphabet(self, letters):
        """Total extension: unknown letters go to a dead state (reused when
        one exists, so minimality is preserved)."""
        extra = [a for a in letters if a not in self.letter_pos]
        if not extra:
            return self
        alphabet = self.alphabet + tuple(extra)
        sink = self.dead_state()
        trans = [list(row) for row in self.trans]
        if sink is None:
            sink = self.n_states
            trans.append([sink] * len(self.alphabet))
        for row in trans:
            row.extend([sink] * len(extra))
        return Dfa(trans, alphabet, self.initial, self.accepting)

    def difference_witness(self, other):
        """Shortest non-empty word accepted by self but not other, or None."""
        letters = list(dict.fromkeys(self.alphabet + other.alphabet))
        a = self.extend_alphabet(letters)
        b = other.extend_alphabet(letters)
        start = (a.initial, b.initial)
        seen = {start}
        frontier = [(start, ())]
        while frontier:
            nxt = []
            for (p, q), w in frontier:
                for letter in letters:
                    p2, q2 = a.step(p, letter), b.step(q, letter)
                    w2 = w + (letter,)
                    if p2 in a.accepting and q2 not in b.accepting:
                        return w2
                    if (p2, q2) not in seen:
                        seen.add((p2, q2))
                        nxt.append(((p2, q2), w2))
            frontier = nxt
        return None

    def equivalent(self, other):
        return self.difference_witness(other) is None and other.difference_witness(self) is None

    def count_words(self, n_max):
        """[q(1), ..., q(n_max)]: accepted words per length."""
        vec = [0] * self.n_states
        vec[self.initial] = 1
        counts = []
        for _ in range(n_max):
            nxt = [0] * self.n_states
            for q, c in enumerate(vec):
                if c:
                    for r in self.trans[q]:
                        nxt[r] += c
            vec = nxt
            counts.append(sum(vec[q] for q in self.accepting))
        return counts

    def words_up_to(self, n_max):
        """All accepted words of length 1..n_max in shortlex order."""
        return list(itertools.takewhile(lambda w: len(w) <= n_max, self.iter_words()))

    def iter_words(self):
        """Lazy shortlex enumeration of the accepted language."""
        reach_acc = [[q in self.accepting for q in range(self.n_states)]]

        def ensure(r):
            while len(reach_acc) <= r:
                prev = reach_acc[-1]
                reach_acc.append(
                    [any(prev[t] for t in self.trans[q]) for q in range(self.n_states)]
                )

        length = 1
        gap = 0
        while True:
            ensure(length)
            if not reach_acc[length][self.initial]:
                gap += 1
                if gap > self.n_states:
                    return  # no longer words exist past a full pump window
                length += 1
                continue
            gap = 0

            def walk(prefix, q, remaining):
                if remaining == 0:
                    yield prefix
                    return
                for a in self.alphabet:
                    r = self.step(q, a)
                    if reach_acc[remaining - 1][r]:
                        yield from walk(prefix + (a,), r, remaining - 1)

            yield from walk((), self.initial, length)
            length += 1


def subset_construction(P, initial_set, accept_pred):
    """Deterministic powerset automaton of a presentation."""
    start = frozenset(initial_set)
    index = {start: 0}
    order = [start]
    trans = []
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        row = []
        for a in P.alphabet:
            nxt = frozenset(t for (s, lab, t) in P.edges if lab == a and s in cur)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        trans.append(row)
    accepting = {i for i, sub in enumerate(order) if accept_pred(sub)}
    return Dfa(trans, P.alphabet, 0, accepting)


def factor_dfa(P):
    """Minimal complete DFA of the factor language of an irreducible
    presentation, built once per presentation."""
    if P._factor_dfa is None:
        P.require_irreducible()
        d = subset_construction(P, range(P.n_states), lambda sub: len(sub) > 0)
        P._factor_dfa = d.minimize()
    return P._factor_dfa


class BiInfinitePoint:
    """Periodic bi-infinite point given by its primitive period word, kept
    as its least rotation; equal and hashed by that word."""

    __slots__ = ("period",)

    def __init__(self, period):
        if not period:
            raise ValueError("a period word must be non-empty")
        if not is_primitive(period):
            raise NotPrimitive(f"{join_word(period)} is a proper power")
        self.period = least_rotation(period)

    def __eq__(self, other):
        return isinstance(other, BiInfinitePoint) and self.period == other.period

    def __hash__(self):
        return hash(self.period)

    def __repr__(self):
        return f"BiInfinitePoint({join_word(self.period)})"


def is_primitive(w):
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and tuple(w) == tuple(w[:d]) * (n // d):
            return False
    return True


def least_rotation(w):
    w = tuple(w)
    return min(w[i:] + w[:i] for i in range(len(w)))


def rotations(w):
    w = tuple(w)
    return {w[i:] + w[:i] for i in range(len(w))}


def periodic_factors(u, n):
    """Distinct length-n factors of the periodic point with period u."""
    s = tuple(u) * (n // len(u) + 2)
    return {s[i:i + n] for i in range(len(u))}


def is_periodic(P):
    """Period word of the shift if it is a single periodic orbit, else None.

    Decided by eventual constancy of the complexity function: a stall
    q(n) = q(n+1) forces every length-n factor to extend uniquely, which for
    an irreducible shift means one finite orbit.
    """
    P.require_irreducible()
    d = factor_dfa(P)
    horizon = 2 * d.n_states + 2
    q = d.count_words(horizon)
    stall = None
    for i in range(len(q) - 1):
        if q[i] == q[i + 1]:
            stall = i + 1  # q(stall) == q(stall+1), 1-based
            break
    if stall is None:
        return None
    c = q[stall - 1]
    check(q[-1] == c, "complexity stays constant once it stalls", stall)
    # extract the period from any window of length 2c
    sample = next(w for w in d.words_up_to(2 * c) if len(w) == 2 * c)
    check(sample[:c] == sample[c:], "a periodic window repeats", sample)
    point = BiInfinitePoint(sample[:c])
    u = point.period
    # confirm against factor enumeration up to 3|u|
    upto = 3 * len(u)
    lang = {w for w in d.words_up_to(upto)}
    expect = set()
    for n in range(1, upto + 1):
        expect |= periodic_factors(u, n)
    check(lang == expect, "the extracted period matches the factor language", u)
    return point


def higher_block(P, N, cap=DEFAULT_CAP):
    """Presentation of the N-th higher block shift (conjugate recoding).

    States are paths of N-1 edges; each length-N path contributes one edge
    labeled by the block it reads, so consecutive blocks overlap in N-1
    letters.  The states are counted before any is built, and more than
    `cap` of them raise CapExceeded.
    """
    P.require_irreducible()
    if N < 1:
        raise ValueError(f"block length must be at least 1, got {N}")
    out = [[] for _ in range(P.n_states)]  # per state, the ids of the edges leaving it
    for e, (s, _, _) in enumerate(P.edges):
        out[s].append(e)
    counts = [1] * P.n_states  # per state, the paths of k edges leaving it
    for _ in range(N - 1):
        if sum(counts) > cap:  # the total never falls, so it stays above the cap
            break
        counts = [sum(counts[P.edges[e][2]] for e in es) for es in out]
    if sum(counts) > cap:
        raise CapExceeded(cap, "higher-block states")
    if N == 1:
        return Presentation(P.n_states, P.edges, P.alphabet)
    paths = _paths(P, out, N - 1)
    state_of = {p: i for i, p in enumerate(paths)}
    edges = []
    for p in paths:
        word = tuple(P.edges[e][1] for e in p)
        edges += [(state_of[p], block_label(word + (P.edges[f][1],)), state_of[p[1:] + (f,)])
                  for f in out[P.edges[p[-1]][2]]]
    pos = {a: i for i, a in enumerate(P.alphabet)}
    labels = sorted(
        {lab for _, lab, _ in edges},
        key=lambda lab: tuple(pos[a] for a in _split_block(lab, P.alphabet)),
    )
    return Presentation(len(paths), edges, labels)


def _paths(P, out, length):
    """Every path of `length` edges, in lexicographic order of edge ids.

    A depth-first walk grows one shared prefix, so each path tuple is built
    once and the work is linear in the output; every prefix extends to a
    path (each state of an irreducible presentation has an edge out), so no
    walk is wasted.
    """
    paths, prefix = [], []
    stack = [iter(range(len(P.edges)))]  # per prefix length, the edges still to try
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if prefix:
                prefix.pop()
        elif len(prefix) == length - 1:
            paths.append((*prefix, e))
        else:
            prefix.append(e)
            stack.append(iter(out[P.edges[e][2]]))
    return paths


def _split_block(label, alphabet):
    if "|" in label:
        return tuple(label.split("|"))
    return tuple(label)


def non_minimal_witness(P):
    """A pair (w, v): w^+ in L(X), |v| = |w|, v in L(X), v not a rotation of w.

    w is the shortest lex-least cycle word at an accepting state of the
    minimal DFA; v is the lex-least non-rotation factor of the same length
    (one exists because a non-periodic shift has q(n) > n).  Computed once
    per presentation.
    """
    if P._witness is None:
        P._witness = _witness_pair(P)
    return P._witness


def _witness_pair(P):
    P.require_irreducible()
    if is_periodic(P) is not None:
        raise ShiftIsMinimal("shift is periodic, no witness exists")
    d = factor_dfa(P)
    w = None
    length = 1
    while w is None:
        for cand in itertools.product(d.alphabet, repeat=length):
            if any(d.run(cand, start=q) == q for q in sorted(d.accepting)):
                w = cand
                break
        length += 1
    rot = rotations(w)
    v = None
    for cand in itertools.product(d.alphabet, repeat=len(w)):
        if cand not in rot and d.accepts(cand):
            v = cand
            break
    check(v is not None, "a non-periodic shift has a word that is no rotation of w", w)
    check(d.accepts(w) and d.accepts(v), "w and v are in the language", (w, v))
    check(all(d.accepts(w * m) for m in range(1, 4)), "w^m is in the language", w)
    check(len(v) == len(w) and v not in rot, "v has the length of w and is no rotation of it",
          (w, v))
    return w, v


def conjugate_with_partial_alphabet(P, cap=DEFAULT_CAP):
    """Recode to X^[N] so some block word z has z^+ in the language but
    alph(z) is a proper subset of the recoded alphabet."""
    w, v = non_minimal_witness(P)
    n = len(w)
    P2 = higher_block(P, n, cap)
    z = tuple(block_label(w[i:] + w[:i]) for i in range(n))
    check(set(z) <= set(P2.alphabet), "the rotations of w are letters of the recoding", z)
    d2 = factor_dfa(P2)
    check(any(d2.run(z, start=q) == q for q in d2.accepting), "z^+ is in the language", z)
    v_lab = block_label(v)
    check(v_lab in P2.alphabet and v_lab not in set(z), "v is a letter outside z", v_lab)
    check(set(z) < set(P2.alphabet), "z uses a proper sub-alphabet", z)
    return P2, z


def check_sync_delay(u, m, bound, alphabet=None):
    """Brute-force the synchronization property of powers of a primitive word:
    x u^m y lands in u^+ exactly when x and y are powers of u."""
    u = word(u)
    if not is_primitive(u):
        raise NotPrimitive(join_word(u))
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if alphabet is None:
        alphabet = sorted(set(u))
    core = u * m

    def in_u_star(w):
        return len(w) % len(u) == 0 and w == u * (len(w) // len(u))

    contexts = [()]
    for n in range(1, bound + 1):
        contexts.extend(itertools.product(alphabet, repeat=n))
    for x in contexts:
        for y in contexts:
            full = x + core + y
            lhs = in_u_star(full)  # non-empty by construction, so u^+ = u^* here
            rhs = in_u_star(x) and in_u_star(y)
            if lhs != rhs:
                return False
    return True
