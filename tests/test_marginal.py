"""Marginal-sector constants: overlap, decay coefficients, amplitude law."""

import json
import math

import numpy as np
import pytest
from block_oracles import marginal_response_loop
from scipy.integrate import quad

from marginalrg import funcspace as fs
from marginalrg import marginal as mg
from marginalrg.errors import DomainError
from marginalrg.kernel import ScalingKernel, fixed_point_profile, heat_kernel
from marginalrg.timechange import TimeChange

GRID = fs.GridSpec()
HEAT = heat_kernel()
TC0 = TimeChange(p=1.0)
TCP = TimeChange(p=1.0, delta=0.5, coeff=1.0)

BETA_EXACT = math.log(2.0) / (2.0 * math.sqrt(math.pi))


def test_critical_exponent():
    assert mg.critical_exponent(1.0, 2.0) == 2
    assert mg.critical_exponent(1.0, 4.0) == 3
    assert mg.critical_exponent(2.0, 3.0) == 2
    assert mg.critical_exponent(1.0, 2.0 + 1e-10) == 2
    with pytest.raises(DomainError):
        mg.critical_exponent(1.0, 1.0)
    with pytest.raises(DomainError):
        mg.critical_exponent(1.0, 2.01)


def test_overlap_constant_heat():
    # closed-form Gaussian integral: int e^{-2x^2} dx = sqrt(pi/2)
    ov = mg.overlap_constant(HEAT, 2)
    assert ov.direct == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    assert ov.discrepancy < 1e-6
    assert ov.value == ov.direct


def test_overlap_constant_quartic():
    # no closed form; the two independent routes are each other's oracle
    ov = mg.overlap_constant(ScalingKernel(d=4.0), 3)
    assert ov.direct > 0.0
    assert ov.discrepancy < 1e-5


def test_overlap_constant_high_power_uses_oracle_route():
    ov = mg.overlap_constant(ScalingKernel(d=6.0), 4)
    assert ov.direct is None
    assert ov.discrepancy is None
    assert ov.value == ov.oracle > 0.0


def test_linear_profile():
    for n in (0, 7):
        h = mg.linear_profile(HEAT, TC0, n, 2.0, GRID)
        fp = fixed_point_profile(HEAT, 1.0, GRID)
        assert np.array_equal(h.fhat, fp.fhat)
    # power remainder shifts the time argument to 1/2 + rho_10
    rho = TCP.remainder_ratio(10, 2.0)
    h10 = mg.linear_profile(HEAT, TCP, 10, 2.0, GRID)
    want = np.exp(-(0.5 + rho) * GRID.omega**2)
    assert np.max(np.abs(h10.fhat - want)) < 1e-15
    assert rho == pytest.approx(0.020832697550455727, rel=1e-13)


def test_linear_profile_approaches_fixed_point():
    fp = fixed_point_profile(HEAT, 1.0, GRID)
    gaps = [
        fs.weighted_norm(mg.linear_profile(HEAT, TCP, n, 2.0, GRID) - fp, 2)
        for n in range(1, 13)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 15.0


def test_marginal_response_basics():
    nu = mg.marginal_response(0, HEAT, TC0, 2.0, GRID)
    assert nu.at_zero.real > 0.0
    assert abs(nu.at_zero.imag) < 1e-15
    # with a vanishing remainder the response cannot depend on the level
    nu7 = mg.marginal_response(7, HEAT, TC0, 2.0, GRID)
    assert np.max(np.abs(nu.fhat - nu7.fhat)) < 1e-14


@pytest.mark.parametrize(
    "n, kernel, tc, L, alpha_c, grid, m_tau",
    [
        (0, HEAT, TC0, 2.0, 2, GRID, 64),
        (3, HEAT, TC0, 2.0, 2, GRID, 64),
        (10, HEAT, TC0, 2.0, 2, GRID, 64),
        (2, HEAT, TCP, 2.0, 2, GRID, 64),
        (1, ScalingKernel(d=4.0, kappa=0.5), TC0, 2.0, 3, fs.GridSpec(1024, 40.0), 32),
        # a non-integral L, and 18 rows that fill part of one power chunk
        (0, HEAT, TC0, 3.3, 2, fs.GridSpec(2048, 40.0), 17),
        (0, ScalingKernel(d=1.5), TimeChange(p=0.5), 2.0, 2, GRID, 64),
    ],
)
def test_marginal_response_matches_per_tau_loop(n, kernel, tc, L, alpha_c, grid, m_tau):
    # the stacked response holds the numbers of the per-tau loop; values,
    # not sign bits: a zero imaginary part may differ in sign. The response
    # derives its power; the loop is given the one written out here.
    assert mg.critical_exponent(tc.p, kernel.d) == alpha_c
    got = mg.marginal_response(n, kernel, tc, L, grid, m_tau)
    want = marginal_response_loop(n, kernel, tc, L, alpha_c, grid, m_tau)
    assert np.array_equal(got.fhat, want.fhat)


@pytest.mark.parametrize("m_tau", [16.5, float("nan"), True, 7])
def test_marginal_response_refuses_a_bad_m_tau(m_tau):
    # an integer of at least 8, as SolverParams.m; a bool is no count
    small = fs.GridSpec(256, 10.0)
    with pytest.raises(DomainError, match="m_tau must be an integer >= 8"):
        mg.marginal_response(0, HEAT, TC0, 2.0, small, m_tau)
    with pytest.raises(DomainError, match="m_tau"):
        next(mg.marginal_responses([0], HEAT, TC0, 2.0, small, m_tau))
    with pytest.raises(DomainError, match="m_tau"):
        mg.marginal_constants(HEAT, TC0, 2.0, 0.05, grid=small, m_tau=m_tau)


def test_marginal_response_takes_a_numpy_integer_m_tau():
    small = fs.GridSpec(256, 10.0)
    got = mg.marginal_response(0, HEAT, TC0, 2.0, small, np.int64(16))
    want = mg.marginal_response(0, HEAT, TC0, 2.0, small, 16)
    assert np.array_equal(got.fhat, want.fhat)


def test_marginal_response_refinement_order():
    vals = {
        m: mg.marginal_response(0, HEAT, TC0, 2.0, GRID, m_tau=m).at_zero.real
        for m in (16, 32, 64)
    }
    ratio = (vals[16] - vals[64]) / (vals[32] - vals[64])
    # trapezoid rule: Richardson ratio for the (16, 32, 64) triple is 5
    assert ratio == pytest.approx(5.0, abs=1.0)


def test_decay_coefficient_routes_agree():
    direct = mg.marginal_response(0, HEAT, TC0, 2.0, GRID).at_zero.real
    closed = mg.decay_coefficient(0, HEAT, TC0, 2.0)
    assert abs(direct - closed) < 5e-6
    # 1-D closed form: beta = ln(2)/(2 sqrt(pi)) for the heat kernel, L=2
    assert closed == pytest.approx(BETA_EXACT, rel=1e-12)
    assert direct == pytest.approx(BETA_EXACT, abs=5e-6)


def _adaptive_closed_form(n, tc, L, alpha_c, r_value):
    # the closed-form integral in tau by adaptive quadrature, with the
    # block remainder coeff L^(-n delta) (t^e - 1)/e written out in floats
    p, rho = tc.p, tc.remainder_ratio(n, L)
    e = p + 1.0 - tc.delta
    scale = tc.coeff * L ** (-n * tc.delta) / e

    def integrand(tau):
        remainder = scale * ((L - tau) ** e - 1.0) + rho
        return ((L - tau) ** (p + 1.0) + (p + 1.0) * remainder) ** (-1.0 / (p + 1.0))

    integral, _ = quad(integrand, 0.0, L - 1.0, epsabs=1e-13, epsrel=1e-12)
    return r_value * (p + 1.0) ** (1.0 / (p + 1.0)) / (2.0 * math.pi) ** (alpha_c - 1) * integral


def test_closed_form_matches_adaptive_quadrature():
    worst = 0.0
    for p in (0.25, 0.5, 1.0, 2.0, 3.0):
        tcs = [TimeChange(p=p)] + [
            TimeChange(p=p, delta=delta, coeff=coeff)
            for delta in (0.1, 0.5, 1.0, p + 0.9)
            for coeff in (0.1, 1.0, 10.0)
        ]
        for L in (1.1, 1.5, 2.0, 4.0, 8.0, 32.0, 1000.0):
            for tc in tcs:
                for n in (0, 1, 2, 5, 10, 20):
                    got = mg._closed_form_coefficient(n, HEAT, tc, L, 2, 1.0)
                    want = _adaptive_closed_form(n, tc, L, 2, 1.0)
                    worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-13


def test_closed_form_rejects_a_degenerate_integrand(monkeypatch):
    # a remainder that drives the base to zero anywhere in the block
    monkeypatch.setattr(TimeChange, "block_remainder", lambda self, n, L, t: -np.asarray(t) ** 2)
    with pytest.raises(DomainError, match="degenerate at tau="):
        mg._closed_form_coefficient(0, HEAT, TC0, 2.0, 2, 1.0)


def test_decay_coefficient_level_independent_without_remainder():
    b0 = mg.decay_coefficient(0, HEAT, TC0, 2.0)
    b5 = mg.decay_coefficient(5, HEAT, TC0, 2.0)
    assert b0 == pytest.approx(b5, abs=1e-14)


def test_decay_limit():
    beta = mg.decay_limit(HEAT, 1.0, 2.0)
    assert beta == pytest.approx(BETA_EXACT, rel=1e-12)
    assert mg.decay_limit(HEAT, 1.0, 4.0) / beta == pytest.approx(2.0, rel=1e-12)


def test_decay_bracket():
    lo, hi = mg.decay_bracket(HEAT, 1.0, 2.0)
    scale = math.sqrt(math.pi / 2.0) / (2.0 * math.pi)
    assert lo == pytest.approx(scale * math.sqrt(0.5) * (1.0 - 3.0**-0.5), rel=1e-10)
    assert hi == pytest.approx(scale * math.sqrt(12.0), rel=1e-10)
    assert lo < BETA_EXACT < hi
    for n in range(0, 6):
        bn = mg.decay_coefficient(n, HEAT, TCP, 2.0)
        assert lo < bn < hi


def test_decay_convergence_zero_remainder():
    rows = mg.decay_convergence(HEAT, TC0, 2.0, range(2, 8))
    assert all(row.gap < 1e-12 for row in rows)
    # alpha_c = 3 for d = 4, derived on both sides of the gap
    rows = mg.decay_convergence(ScalingKernel(d=4.0, kappa=0.5), TC0, 2.0, range(2, 5))
    assert all(row.gap < 1e-12 for row in rows)


def test_decay_convergence_power_remainder():
    rows = mg.decay_convergence(HEAT, TCP, 2.0, range(2, 21))
    gaps = [row.gap for row in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the reference envelope is a fit at the first level; the gaps drop
    # below it once the remainder enters its asymptotic regime
    assert rows[0].gap == rows[0].envelope
    for row in rows:
        assert row.envelope == pytest.approx(
            rows[0].envelope * (rows[0].n / row.n), rel=1e-12
        )
        if row.n >= 10:
            assert row.gap < row.envelope
    tail = [(math.log(row.n), math.log(row.gap)) for row in rows if row.n >= 8]
    slope = np.polyfit([t[0] for t in tail], [t[1] for t in tail], 1)[0]
    # the generic rate bound is -(p+1)/d; the power model decays faster
    assert slope <= -(1.0 + 1.0) / 2.0 + 0.3


def test_amplitude_prefactor():
    # heat chain collapses to A = 2 sqrt(pi)/mu
    assert mg.amplitude_prefactor(HEAT, 1.0, 1.0) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-12
    )
    assert mg.amplitude_prefactor(HEAT, 1.0, 0.05) == pytest.approx(
        2.0 * math.sqrt(math.pi) / 0.05, rel=1e-10
    )
    a = mg.amplitude_prefactor(HEAT, 1.0, 0.2)
    assert a * 0.2 == pytest.approx(mg.amplitude_prefactor(HEAT, 1.0, 1.0), rel=1e-12)


def test_amplitude_consistency_identity():
    # the amplitude law [mu (alpha_c - 1) beta n]^{-(p+1)/d} at level n
    # equals prefactor * (n ln L)^{-(p+1)/d}
    beta = mg.decay_limit(HEAT, 1.0, 2.0)
    lhs = (0.05 * (2 - 1.0) * beta * 10) ** (-(1.0 + 1.0) / 2.0)
    rhs = mg.amplitude_prefactor(HEAT, 1.0, 0.05) / (10.0 * math.log(2.0))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_marginal_constants_mapping():
    out = mg.marginal_constants(HEAT, TC0, 2.0, 0.05, grid=GRID)
    assert set(out) == {
        "R_direct",
        "R_oracle",
        "beta",
        "beta_star_lo",
        "beta_star_hi",
        "beta_n_table",
        "A_prefactor",
    }
    json.dumps(out)
    assert [row["n"] for row in out["beta_n_table"]] == list(range(11))
    assert out["beta_star_lo"] < out["beta"] < out["beta_star_hi"]
    for row in out["beta_n_table"]:
        assert abs(row["direct"] - row["closed_form"]) < 5e-6
        assert out["beta_star_lo"] < row["closed_form"] < out["beta_star_hi"]


def _count_responses(monkeypatch):
    calls = []

    def response(n, *args, _response=mg.marginal_response, **kwargs):
        calls.append(n)
        return _response(n, *args, **kwargs)

    monkeypatch.setattr(mg, "marginal_response", response)
    return calls


@pytest.mark.parametrize(
    "tc, responses", [(TC0, 1), (TimeChange(p=1.0, delta=0.5, coeff=0.3), 11)]
)
def test_marginal_constants_compute_one_response_without_a_remainder(monkeypatch, tc, responses):
    # without a remainder the response does not depend on n: the table is
    # read off one response, bitwise equal to the per-n routes
    calls = _count_responses(monkeypatch)
    out = mg.marginal_constants(HEAT, tc, 2.0, 0.05, grid=GRID)
    assert len(calls) == responses
    calls.clear()
    for n, row in enumerate(out["beta_n_table"]):
        direct = mg.marginal_response(n, HEAT, tc, 2.0, GRID).at_zero.real
        closed = mg.decay_coefficient(n, HEAT, tc, 2.0)
        assert row["n"] == n
        assert np.float64(row["direct"]).tobytes() == np.float64(direct).tobytes()
        assert np.float64(row["closed_form"]).tobytes() == np.float64(closed).tobytes()
    assert calls == list(range(11))


def test_marginal_responses_default_grid_and_laziness(monkeypatch):
    calls = _count_responses(monkeypatch)
    small = fs.GridSpec(256, 10.0)
    tcp = TimeChange(p=1.0, delta=0.5, coeff=0.3)
    responses = mg.marginal_responses(range(5), HEAT, tcp, 2.0, small, m_tau=16)
    assert calls == []  # nothing is computed before it is asked for
    assert next(responses).grid is small and calls == [0]
    assert next(responses).grid is small and calls == [0, 1]
    calls.clear()
    (only,) = mg.marginal_responses([3], HEAT, TC0, 2.0, m_tau=16)
    assert only.grid == fs.GridSpec() and calls == [3]


def test_one_overlap_constant_per_kernel():
    # for alpha_c = 4 R is the spectral oracle; the constants that
    # marginalrg beta prints and the prefactor the flow uses read the same
    # R whatever grid the run names
    kern, tc = ScalingKernel(d=6.0), TimeChange(p=1.0)
    out = mg.marginal_constants(kern, tc, 2.0, 0.05, grid=fs.GridSpec(256, 10.0))
    assert out["R_direct"] is None
    assert out["R_oracle"] == mg.overlap_constant(kern, 4).value
    assert out["A_prefactor"] == mg.amplitude_prefactor(kern, 1.0, 0.05)
    assert out["beta"] == mg.decay_limit(kern, 1.0, 2.0)
