"""Time change and block rescalings."""

import numpy as np
import pytest

from marginalrg.errors import DomainError
from marginalrg.timechange import TimeChange

POWER = TimeChange(p=1.0, delta=0.5, coeff=1.0)


def test_validation():
    with pytest.raises(DomainError):
        TimeChange(p=0.0)
    # coeff says whether a remainder exists; there is no model name
    with pytest.raises(TypeError):
        TimeChange(p=1.0, r_model="power")
    with pytest.raises(DomainError, match="delta > 0"):
        TimeChange(p=1.0, delta=0.0, coeff=1.0)
    with pytest.raises(DomainError, match=r"\[0, p\+1\)"):
        TimeChange(p=1.0, delta=2.0, coeff=1.0)
    with pytest.raises(DomainError, match=r"\[0, p\+1\)"):
        TimeChange(p=1.0, delta=-0.5)
    with pytest.raises(DomainError, match=">= 0"):
        TimeChange(p=1.0, delta=0.5, coeff=-1.0)
    with pytest.raises(DomainError, match=">= 0"):
        TimeChange(p=1.0, delta=0.5, coeff=float("inf"))
    # a vanishing coefficient takes any delta in [0, p+1)
    assert TimeChange(p=1.0, delta=0.5).vanishes


def test_time_domain():
    tc = TimeChange(p=1.0)
    with pytest.raises(DomainError):
        tc.elapsed(0.5)
    with pytest.raises(DomainError):
        tc.block_elapsed(0, 2.0, 2.5)


def test_elapsed_zero_model():
    tc = TimeChange(p=2.0)
    assert float(tc.elapsed(2.0)) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert float(tc.elapsed(1.0)) == 0.0
    assert np.all(tc.remainder(np.array([1.0, 3.0, 9.0])) == 0.0)


def test_elapsed_power_model():
    # closed-form antiderivative of c(t) = t + sqrt(t):
    # s(4) = 15/2 + (2/3)(4^{3/2} - 1) = 7.5 + 14/3
    assert float(POWER.elapsed(4.0)) == pytest.approx(7.5 + 14.0 / 3.0, rel=1e-14)


def test_block_values_closed_form():
    # r_10(2) = 2^{-5} (2^{3/2} - 1)/(3/2) and s_10(2) = 3/2 + r_10(2),
    # from the rescaling identity r_n(t) = coeff L^{-n delta}(t^e - 1)/e
    r = 2.0**-5 * (2.0**1.5 - 1.0) / 1.5
    assert float(POWER.block_remainder(10, 2.0, 2.0)) == pytest.approx(r, rel=1e-14)
    assert float(POWER.block_elapsed(10, 2.0, 2.0)) == pytest.approx(1.5 + r, rel=1e-14)
    assert float(POWER.block_elapsed(10, 2.0, 1.0)) == 0.0
    # zero model: s_n(L)/L^{p+1} = (1 - L^{-2})/2 at every level
    for n in range(0, 6):
        ratio = float(TimeChange(p=1.0).block_elapsed(n, 2.0, 2.0)) / 4.0
        assert ratio == pytest.approx(0.375, rel=1e-15)


def test_block_matches_naive_rescaling():
    # direct evaluation of [r(L^n t) - r(L^n)] L^{-n(p+1)} at small n,
    # where the naive form is still well conditioned
    for n in range(0, 6):
        for t in (1.3, 2.0):
            naive = float(
                (POWER.remainder(2.0**n * t) - POWER.remainder(2.0**n)) * 2.0 ** (-2 * n)
            )
            assert float(POWER.block_remainder(n, 2.0, t)) == pytest.approx(
                naive, rel=1e-11, abs=1e-15
            )


def test_composition_identity():
    # s(L^{n+1}) - s(L^n) = L^{n(p+1)} s_n(L)
    for tc in (TimeChange(p=1.0), POWER, TimeChange(p=0.5, delta=0.7, coeff=0.3)):
        for n in range(0, 9):
            lhs = float(tc.elapsed(2.0 ** (n + 1)) - tc.elapsed(2.0**n))
            rhs = 2.0 ** (n * (tc.p + 1.0)) * float(tc.block_elapsed(n, 2.0, 2.0))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_remainder_ratio():
    # rho_n = r(L^n) L^{-n(p+1)} = coeff/e (L^{-n delta} - L^{-n(p+1)})
    oracle = (1.0 / 1.5) * (2.0**-5 - 2.0**-20)
    assert POWER.remainder_ratio(10, 2.0) == pytest.approx(oracle, rel=1e-14)
    assert POWER.remainder_ratio(2, 2.0) == pytest.approx(0.29166666666666663, rel=1e-13)
    naive = float(POWER.remainder(2.0**4)) * 2.0**-8
    assert POWER.remainder_ratio(4, 2.0) == pytest.approx(naive, rel=1e-12)
    assert TimeChange(p=1.0).remainder_ratio(10, 2.0) == 0.0


def test_remainder_ratio_decreases():
    vals = [POWER.remainder_ratio(n, 2.0) for n in range(1, 15)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_a_vanishing_power_is_the_zero_model():
    # coeff = 0 makes every remainder term an exact zero, so the power
    # formula reproduces the zero model bit for bit
    zero = TimeChange(p=1.0)
    flat = TimeChange(p=1.0, delta=0.5, coeff=0.0)
    assert zero.vanishes and flat.vanishes and not POWER.vanishes
    t = np.linspace(1.0, 2.0, 33)
    assert np.array_equal(flat.elapsed(8.0 * t), zero.elapsed(8.0 * t))
    for n in (0, 1, 5, 40):
        assert np.array_equal(flat.block_elapsed(n, 2.0, t), zero.block_elapsed(n, 2.0, t))
        assert flat.remainder_ratio(n, 2.0) == zero.remainder_ratio(n, 2.0) == 0.0
