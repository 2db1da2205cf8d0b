"""Complexity functions and entropy of sofic shifts.

q(n) counts distinct factors of length n (dynamic programming on the minimal
DFA, so no double counting); entropy is log base 2 of the spectral radius of
the live-state adjacency matrix, cross-checked against the counting bounds
(1/n) log2 q(n), which decrease to the entropy.
"""

from __future__ import annotations

import math

from .errors import NotASubshift, ToleranceNotReached, check
from .graph import sccs
from .shiftspace import factor_dfa


def _ratio_estimate(counts):
    """Ratio-based estimate log2(q(n)/q(n-1)); 0 exactly when q stalls."""
    if len(counts) < 2 or counts[-1] == counts[-2]:
        return 0.0
    return math.log2(counts[-1] / counts[-2])


def _live_adjacency(d):
    live = sorted(d.accepting)
    pos = {q: i for i, q in enumerate(live)}
    n = len(live)
    mat = [[0] * n for _ in range(n)]
    for q in live:
        for r in d.trans[q]:
            if r in pos:
                mat[pos[q]][pos[r]] += 1
    return mat


def spectral_radius(mat, tol=1e-9, max_iter=200000):
    """Spectral radius of a non-negative integer matrix.

    Tarjan decomposition into strongly connected components, then shifted
    power iteration per component with Collatz-Wielandt bracketing (the
    shift by the identity makes each irreducible block primitive).
    """
    n = len(mat)
    adj = [[j for j in range(n) if mat[i][j]] for i in range(n)]
    best = 0.0
    for nodes in sccs(n, adj.__getitem__)[1]:
        if len(nodes) == 1:
            i = nodes[0]
            best = max(best, float(mat[i][i]))
            continue
        sub = [[mat[i][j] for j in nodes] for i in nodes]
        best = max(best, _primitive_radius(sub, tol, max_iter))
    return best


def _primitive_radius(sub, tol, max_iter):
    n = len(sub)
    shifted = [[sub[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    x = [1.0] * n
    for _ in range(max_iter):
        y = [sum(shifted[i][j] * x[j] for j in range(n)) for i in range(n)]
        ratios = [y[i] / x[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * hi:
            return (lo + hi) / 2.0 - 1.0
        norm = max(y)
        x = [v / norm for v in y]
    raise ToleranceNotReached((min(ratios) - 1.0, max(ratios) - 1.0))


class EntropyResult:
    __slots__ = ("value", "certificate", "counting")

    def __init__(self, value, certificate, counting):
        self.value = value
        self.certificate = certificate  # (n, q(n), upper bound) rows
        self.counting = counting

    def __float__(self):
        return self.value


def entropy_estimate(P, n_max=24, tol=1e-9):
    """Entropy as log2 of the live-state spectral radius, certified by the
    factor counts q(1..n_max): they must be positive and submultiplicative,
    and every counting bound (1/n) log2 q(n) must dominate the entropy.
    A tolerance of 1 or more would pass the bracket test at once and make
    the 10*tol slack of the counting check vacuous."""
    if not 1 <= n_max <= 64:
        raise ValueError(f"n_max must lie in 1..64, got {n_max}")
    if not 0 < tol < 1:  # also rejects nan
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol}")
    d = factor_dfa(P)
    counts = d.count_words(n_max)
    check(all(c > 0 for c in counts), "factor counts must be positive", counts)
    for n in range(1, n_max + 1):
        for m in range(1, n_max - n + 1):
            check(counts[n + m - 1] <= counts[n - 1] * counts[m - 1],
                  "submultiplicativity fails", (n, m))
    value = math.log2(spectral_radius(_live_adjacency(d), tol))
    cert = tuple((n, q, math.log2(q) / n) for n, q in enumerate(counts, 1))
    for n, _, ub in cert:
        check(ub >= value - 10 * tol, "counting bound below the entropy", n)
    return EntropyResult(value, cert, _ratio_estimate(counts))


def subshift_inclusion_witnesses(P, P_sub):
    """(missing, extra): a factor of the candidate subshift outside L(P),
    and a factor of P outside the candidate (None when none exists)."""
    d = factor_dfa(P)
    d_sub = factor_dfa(P_sub)
    missing = d_sub.difference_witness(d)
    extra = d.difference_witness(d_sub)
    return missing, extra


def entropy_gap_check(P, P_sub, tol=1e-6):
    """True iff L(P_sub) is strictly contained in L(P) and the entropies are
    separated by more than tol."""
    missing, extra = subshift_inclusion_witnesses(P, P_sub)
    if missing is not None:
        raise NotASubshift("candidate is not contained in the shift", missing)
    if extra is None:
        raise NotASubshift("inclusion is not strict")
    h = entropy_estimate(P).value
    h_sub = entropy_estimate(P_sub).value
    return h_sub < h - tol
