import itertools
import math

import pytest

from corpus import even_shift, full_shift, golden_mean, period_shift
from soficsemi import (
    entropy_estimate,
    entropy_gap_check,
    factor_dfa,
    spectral_radius,
)
from soficsemi.errors import NotASubshift

GOLDEN = (1 + math.sqrt(5)) / 2


def counts(res):
    """q(1..n_max), read off the certificate rows (n, q(n), bound)."""
    return [q for _, q, _ in res.certificate]


def brute_count(P, n):
    """Oracle: count distinct length-n factors by enumerating all words."""
    d = factor_dfa(P)
    return sum(1 for w in itertools.product(P.alphabet, repeat=n) if d.accepts(w))


def test_full_shift_counts_and_entropy():
    res = entropy_estimate(full_shift(2), 12, tol=1e-12)
    assert counts(res) == [2 ** n for n in range(1, 13)]
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert entropy_estimate(full_shift(3)).value == pytest.approx(math.log2(3), abs=1e-9)


def test_period2_counts_and_entropy():
    res = entropy_estimate(period_shift(2), 10, tol=1e-12)
    assert all(c == 2 for c in counts(res))
    assert res.value == 0.0
    assert entropy_estimate(period_shift(2)).value == 0.0


def test_golden_mean_counts_fibonacci():
    res = entropy_estimate(golden_mean(), 12, tol=1e-12)
    q = counts(res)
    assert q[:4] == [2, 3, 5, 8]
    for n in (5, 9, 12):
        assert q[n - 1] == brute_count(golden_mean(), n)
    assert res.value == pytest.approx(math.log2(GOLDEN), abs=1e-9)


def test_counting_and_perron_methods_agree():
    for P, expect in [
        (golden_mean(), math.log2(GOLDEN)),
        (even_shift(), math.log2(GOLDEN)),
        (full_shift(2), 1.0),
    ]:
        res = entropy_estimate(P, n_max=24)
        assert res.value == pytest.approx(expect, abs=1e-6)
        assert res.counting == pytest.approx(expect, abs=1e-4)


def test_submultiplicativity_and_upper_bounds():
    for P in (golden_mean(), even_shift(), full_shift(2), period_shift(3)):
        res = entropy_estimate(P, 16, tol=1e-12)
        q = counts(res)
        for n in range(1, 16):
            for m in range(1, 16 - n + 1):
                assert q[n + m - 1] <= q[n - 1] * q[m - 1]
            assert math.log2(q[n - 1]) / n >= res.value - 1e-9


def test_entropy_gap_checks():
    assert entropy_gap_check(full_shift(2), golden_mean())
    assert entropy_gap_check(golden_mean(), period_shift(2))
    assert entropy_gap_check(full_shift(2), even_shift())
    with pytest.raises(NotASubshift):
        entropy_gap_check(golden_mean(), golden_mean())
    with pytest.raises(NotASubshift):
        entropy_gap_check(golden_mean(), full_shift(2))  # not contained


def test_spectral_radius_basics():
    assert spectral_radius([[2]]) == 2.0
    assert spectral_radius([[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius([[1, 1], [1, 0]]) == pytest.approx(GOLDEN, abs=1e-9)
    # reducible: the radius is the max over components
    assert spectral_radius([[1, 1, 1], [1, 0, 1], [0, 0, 1]]) == pytest.approx(
        GOLDEN, abs=1e-9
    )


def test_gap_witnesses_are_genuine():
    from soficsemi.entropy import subshift_inclusion_witnesses

    missing, extra = subshift_inclusion_witnesses(full_shift(2), golden_mean())
    assert missing is None
    assert factor_dfa(full_shift(2)).accepts(extra)
    assert not factor_dfa(golden_mean()).accepts(extra)


def test_tolerance_not_reached():
    from soficsemi.errors import ToleranceNotReached

    with pytest.raises(ToleranceNotReached):
        spectral_radius([[1, 1], [1, 0]], tol=1e-15, max_iter=3)
