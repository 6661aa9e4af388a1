"""Single-block Picard solver against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from marginalrg import blocksolver
from marginalrg import funcspace as fs
from marginalrg.blocksolver import (
    BlockSolution,
    Nonlinearity,
    SolverParams,
    block_to_csv,
    damping_term,
    forcing_term,
    linear_block,
    solve_block,
)
from marginalrg.errors import Divergence, DomainError, NoConvergence, UnderResolvedWarning
from marginalrg.kernel import fixed_point_profile, heat_kernel
from marginalrg.timechange import TimeChange

GRID = fs.GridSpec(n_points=1024, x_max=40.0)
KERNEL = heat_kernel()
TC = TimeChange(p=1.0)
NL = Nonlinearity(mu=0.05, lam=0.01, critical_power=2, terms=((3, 1.0),))


def profile():
    return fixed_point_profile(KERNEL, 1.0, GRID)


def test_nonlinearity_validation():
    with pytest.raises(DomainError):
        Nonlinearity(mu=0.1, critical_power=1)
    with pytest.raises(DomainError):
        Nonlinearity(mu=0.1, lam=0.2, terms=((2, 1.0),))
    with pytest.raises(DomainError):
        Nonlinearity(mu=0.1, lam=0.2, terms=((3, 1.0), (3, 2.0)))
    with pytest.raises(DomainError):
        Nonlinearity(mu=0.1, lam=0.2)


def test_coupling_decay():
    # L^{-n (j - alpha_c)(p+1)/d} halves per level for j=3, p=1, d=2, L=2
    assert NL.combined_coefficients(0, 2.0, 1.0, 2.0)[3] == pytest.approx(0.01, rel=1e-15)
    assert NL.combined_coefficients(5, 2.0, 1.0, 2.0)[3] == pytest.approx(0.01 / 32.0, rel=1e-13)
    c = NL.combined_coefficients(3, 2.0, 1.0, 2.0)
    assert c[2] == -0.05
    assert c[3] == pytest.approx(0.00125, rel=1e-13)
    none = Nonlinearity(mu=0.0).combined_coefficients(0, 2.0, 1.0, 2.0)
    assert none == {}


def test_solver_params_validation():
    with pytest.raises(DomainError):
        SolverParams(m=4)
    with pytest.raises(DomainError):
        SolverParams(picard_tol=0.0)
    with pytest.raises(DomainError):
        SolverParams(picard_max=0)
    with pytest.raises(DomainError):
        SolverParams(norm_guard=-1.0)


def test_linear_block_is_exact_evolution():
    params = SolverParams(m=16)
    sol = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    assert sol.iterations == 0
    assert sol.times.shape == (17,)
    assert sol.times[0] == 1.0 and sol.times[-1] == 2.0
    for i, t in enumerate(sol.times):
        s = float(TC.block_elapsed(0, 2.0, float(t)))
        want = fs.apply_multiplier(profile(), KERNEL, s)
        assert np.max(np.abs(sol.slices[i].fhat - want.fhat)) == 0.0


def test_zero_nonlinearity_converges_immediately():
    params = SolverParams(m=16)
    free = Nonlinearity(mu=0.0)
    sol = solve_block(profile(), KERNEL, TC, free, 0, 2.0, params)
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    assert sol.iterations == 1
    assert sol.final_delta == 0.0
    assert np.array_equal(sol.final.fhat, lin.final.fhat)


def test_solve_block_converges():
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, SolverParams(m=64))
    assert 1 <= sol.iterations <= 8
    assert sol.final_delta < 1e-10
    assert sol.block_norm(2) > 0.0


def test_mass_identity_is_preserved():
    # at omega = 0 the multiplier is 1, so the zero mode obeys the plain
    # trapezoid rule; the semigroup accumulation must reproduce it exactly
    params = SolverParams(m=32)
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    out = damping_term(lin, NL, KERNEL, TC, 0, 2.0, params.m)
    vals = [0.05 * fs.pointwise_power(s, 2).at_zero.real for s in lin.slices]
    h = float(lin.times[1] - lin.times[0])
    assert out.at_zero.real == pytest.approx(float(np.trapezoid(vals, dx=h)), abs=1e-15)
    # for the solved block the zero-mode drift closes up to the last update
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    coeffs = NL.combined_coefficients(0, 2.0, TC.p, KERNEL.d)
    quad = float(
        np.trapezoid(
            [
                sum(c * fs.pointwise_power(s, k).at_zero.real for k, c in coeffs.items())
                for s in sol.slices
            ],
            dx=h,
        )
    )
    drift = sol.final.at_zero.real - profile().at_zero.real
    assert drift == pytest.approx(quad, abs=2.0 * params.picard_tol)


def test_against_spectral_ode_oracle():
    # independent oracle: integrate the equivalent spectral ODE
    # d uhat/dt = -t^p |w|^2 uhat + Fhat(u) with solve_ivp at tight
    # tolerances, then compare the final slice
    f = profile()
    w2 = GRID.omega**2

    def rhs(t, y):
        u = fs.SpectralFunction(GRID, y)
        fnl = -0.05 * fs.pointwise_power(u, 2).fhat + 0.01 * fs.pointwise_power(u, 3).fhat
        return -t * w2 * y + fnl

    res = solve_ivp(rhs, (1.0, 2.0), f.fhat.astype(np.complex128), rtol=1e-11, atol=1e-13)
    sol = solve_block(f, KERNEL, TC, NL, 0, 2.0, SolverParams(m=256))
    assert np.max(np.abs(sol.final.fhat - res.y[:, -1])) < 1e-6


def test_trapezoid_order_of_accuracy():
    f = profile()
    finals = {}
    for m in (64, 128, 256):
        finals[m] = solve_block(f, KERNEL, TC, NL, 0, 2.0, SolverParams(m=m)).final.fhat
    coarse = np.max(np.abs(finals[64] - finals[256]))
    fine = np.max(np.abs(finals[128] - finals[256]))
    # second-order quadrature: the Richardson ratio for (64,128,256) is 5
    assert coarse / fine == pytest.approx(5.0, abs=1.5)


def test_residual_consistency():
    params = SolverParams(m=16)
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    worst = 0.0
    for i in range(len(sol.times)):
        target = (
            lin.slices[i]
            - damping_term(sol, NL, KERNEL, TC, 0, 2.0, i)
            + forcing_term(sol, NL, KERNEL, TC, 0, 2.0, i)
        )
        worst = max(worst, fs.weighted_norm(sol.slices[i] - target, 2))
    assert worst <= 2.0 * params.picard_tol


def test_damping_term_oracle():
    # evaluated on the linear solution of the heat profile, the zero mode
    # of the damping term is mu int_1^L dt/(2 sqrt(pi) t) = mu ln(L)/(2 sqrt(pi))
    params = SolverParams(m=512)
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    out = damping_term(lin, NL, KERNEL, TC, 0, 2.0, 512)
    oracle = 0.05 * math.log(2.0) / (2.0 * math.sqrt(math.pi))
    assert out.at_zero.real == pytest.approx(oracle, abs=1e-8)
    assert np.all(damping_term(lin, NL, KERNEL, TC, 0, 2.0, 0).fhat == 0.0)


def test_forcing_term_oracle():
    # same setup for the cubic term: lam int_1^L dt/(2 pi sqrt(3) t^2)
    # = lam (1 - 1/L) / (2 pi sqrt(3))
    params = SolverParams(m=512)
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    out = forcing_term(lin, NL, KERNEL, TC, 0, 2.0, 512)
    oracle = 0.01 * 0.5 / (2.0 * math.pi * math.sqrt(3.0))
    assert out.at_zero.real == pytest.approx(oracle, abs=1e-8)


def test_perturbation_scaling():
    # u - u0 + M(u0) should shrink like mu^2 when lam = 0
    f = profile()
    params = SolverParams(m=16)
    lin = linear_block(f, KERNEL, TC, 0, 2.0, params)
    errs = {}
    for mu in (0.02, 0.002):
        nl = Nonlinearity(mu=mu)
        sol = solve_block(f, KERNEL, TC, nl, 0, 2.0, params)
        m_lin = damping_term(lin, nl, KERNEL, TC, 0, 2.0, params.m)
        errs[mu] = fs.weighted_norm(sol.final - lin.final + m_lin, 2)
    assert errs[0.02] / errs[0.002] == pytest.approx(100.0, rel=0.4)


def test_divergence_guard():
    # mu < 0 turns the damping into self-reinforcing growth; the default
    # guard (10x the linear block norm) trips inside the Picard loop
    wild = Nonlinearity(mu=-60.0)
    with pytest.raises(Divergence) as info:
        solve_block(profile(), KERNEL, TC, wild, 0, 2.0, SolverParams(m=16))
    assert info.value.iteration >= 1
    assert info.value.norm > info.value.guard
    # the guard norm is taken with the running derivative stack: it matches
    # a fresh evaluation of the same first iterate up to rounding
    loose = SolverParams(m=16, picard_max=1, picard_tol=1e300, norm_guard=1e300)
    fresh = solve_block(profile(), KERNEL, TC, wild, 0, 2.0, loose).block_norm(2)
    with pytest.raises(Divergence) as info:
        solve_block(profile(), KERNEL, TC, wild, 0, 2.0, SolverParams(m=16, norm_guard=0.5 * fresh))
    assert info.value.iteration == 1
    assert info.value.norm == pytest.approx(fresh, rel=1e-12)
    tiny_guard = SolverParams(m=16, norm_guard=1e-6)
    with pytest.raises(Divergence) as info:
        solve_block(profile(), KERNEL, TC, NL, 0, 2.0, tiny_guard)
    assert info.value.iteration == 0


def test_stacked_integrand_and_norm_match_rows():
    # 77 rows: not a multiple of the chunk of either the padded (2N) or the
    # plain (N) transforms on this grid, and more than one chunk of each
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, SolverParams(m=76))
    rows = np.array([s.fhat for s in lin.slices])
    for width in (GRID.n_points, 2 * GRID.n_points):
        chunk = fs._CHUNK_BYTES // (16 * width)
        assert chunk < rows.shape[0] and rows.shape[0] % chunk != 0
    coeffs = NL.combined_coefficients(0, 2.0, TC.p, KERNEL.d)
    integrand = blocksolver._integrand_rows(rows, coeffs, GRID)
    for row, got in zip(rows, integrand):
        # bitwise: a stacked chunk gives what the same transform gives one row
        assert np.array_equal(got, fs._padded_power(row, coeffs, GRID))
        # the fused sum against separate powers: the coefficients are applied
        # before or after the forward transform, so they agree to rounding
        want = np.zeros_like(row)
        for k in sorted(coeffs):
            want = want + coeffs[k] * fs.pointwise_power(fs.SpectralFunction(GRID, row), k).fhat
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    deriv = np.empty_like(rows)
    norm = blocksolver._block_norm(rows, GRID, 2, deriv)
    assert np.array_equal(deriv, np.array([fs._deriv_rows(r, GRID) for r in rows]))
    assert norm == max(fs.weighted_norm(fs.SpectralFunction(GRID, r), 2) for r in rows)


def test_solve_block_warns_when_under_resolved():
    slow = fs.from_profile(GRID, lambda w: 1e-3 / (1.0 + w**2))
    assert not slow.is_resolved()
    with pytest.warns(UnderResolvedWarning):
        sol = solve_block(slow, KERNEL, TC, NL, 0, 2.0, SolverParams(m=16))
    assert sol.final_delta < 1e-10


def test_no_convergence_error():
    starved = SolverParams(m=16, picard_max=2, picard_tol=1e-14)
    with pytest.raises(NoConvergence) as info:
        solve_block(profile(), KERNEL, TC, NL, 0, 2.0, starved)
    assert info.value.iterations == 2


def test_slice_lookup_and_csv(tmp_path):
    params = SolverParams(m=16)
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    mid = sol.slice_at(1.5)
    assert np.array_equal(mid.fhat, sol.slices[8].fhat)
    with pytest.raises(DomainError):
        sol.slice_at(1.51)
    path = tmp_path / "block.csv"
    block_to_csv(sol, path, times=[2.0])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (GRID.n_points, 4)
    assert np.array_equal(data[:, 1], GRID.omega)
    assert np.max(np.abs(data[:, 2] + 1j * data[:, 3] - sol.final.fhat)) == 0.0
