"""Single-block Picard solver against independent oracles."""

import math

import numpy as np
import pytest
from block_oracles import (
    FullRealLayout,
    block_norm,
    damping_term,
    deriv_rows,
    forcing_term,
    linear_block,
)
from scipy.integrate import solve_ivp

from marginalrg import blocksolver, verify
from marginalrg import funcspace as fs
from marginalrg.blocksolver import (
    BlockSolution,
    Nonlinearity,
    SolverParams,
    block_to_csv,
    solve_block,
)
from marginalrg.errors import Divergence, DomainError, NoConvergence, UnderResolvedWarning
from marginalrg.kernel import fixed_point_profile, heat_kernel
from marginalrg.timechange import TimeChange

GRID = fs.GridSpec(n_points=1024, x_max=40.0)
KERNEL = heat_kernel()
TC = TimeChange(p=1.0)
NL = Nonlinearity(mu=0.05, lam=0.01, terms=((3, 1.0),))


def profile():
    return fixed_point_profile(KERNEL, 1.0, GRID)


def test_nonlinearity_validation():
    # alpha_c is derived from (p, d), so a term at or below it is caught
    # where the block is known
    with pytest.raises(TypeError):
        Nonlinearity(mu=0.1, critical_power=2)
    cubic = Nonlinearity(mu=0.1, lam=0.05, terms=((3, 1.0),))
    assert cubic.combined_coefficients(0, 2.0, 1.0, 2.0) == {2: -0.1, 3: 0.05}
    with pytest.raises(DomainError, match="power 3 must exceed the critical power 3"):
        cubic.combined_coefficients(0, 2.0, 1.0, 4.0)
    with pytest.raises(DomainError, match="power 2 must exceed the critical power 2"):
        Nonlinearity(mu=0.1, lam=0.2, terms=((2, 1.0),)).combined_coefficients(0, 2.0, 1.0, 2.0)
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
    # the damped power is the marginal one of the block: u^3 for d = 4
    assert Nonlinearity(mu=0.1).combined_coefficients(0, 2.0, 1.0, 4.0) == {3: -0.1}


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
    assert block_norm(sol, 2) > 0.0


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


def ode_oracle_final(f):
    # independent oracle: integrate the equivalent spectral ODE
    # d uhat/dt = -t^p |w|^2 uhat + Fhat(u) with solve_ivp at tight
    # tolerances, and return the final slice
    w2 = GRID.omega**2

    def rhs(t, y):
        u = fs.SpectralFunction(GRID, y)
        fnl = -0.05 * fs.pointwise_power(u, 2).fhat + 0.01 * fs.pointwise_power(u, 3).fhat
        return -t * w2 * y + fnl

    res = solve_ivp(rhs, (1.0, 2.0), f.fhat.astype(np.complex128), rtol=1e-11, atol=1e-13)
    return res.y[:, -1]


def test_against_spectral_ode_oracle():
    f = profile()
    sol = solve_block(f, KERNEL, TC, NL, 0, 2.0, SolverParams(m=256))
    assert np.max(np.abs(sol.final.fhat - ode_oracle_final(f))) < 1e-6


def test_non_real_field_keeps_the_full_layout():
    # a real odd part in the spectrum makes the field complex: the solve
    # holds full rows with complex transforms, matches the same oracle, and
    # its final slice is not forced into Hermitian symmetry
    f = profile() + fs.from_profile(GRID, lambda w: 1e-3 * w * np.exp(-(w**2)))
    assert not fs._is_real_field(f.fhat)
    sol = solve_block(f, KERNEL, TC, NL, 0, 2.0, SolverParams(m=256))
    assert sol._rows.shape[-1] == GRID.n_points
    assert not fs._is_real_field(sol.final.fhat)
    assert np.max(np.abs(sol.final.fhat - ode_oracle_final(f))) < 1e-6


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
    fresh = block_norm(solve_block(profile(), KERNEL, TC, wild, 0, 2.0, loose), 2)
    with pytest.raises(Divergence) as info:
        solve_block(profile(), KERNEL, TC, wild, 0, 2.0, SolverParams(m=16, norm_guard=0.5 * fresh))
    assert info.value.iteration == 1
    assert info.value.norm == pytest.approx(fresh, rel=1e-12)
    tiny_guard = SolverParams(m=16, norm_guard=1e-6)
    with pytest.raises(Divergence) as info:
        solve_block(profile(), KERNEL, TC, NL, 0, 2.0, tiny_guard)
    assert info.value.iteration == 0
    # an iterate that overflows to NaN fails the guard at once instead of
    # running out the Picard budget
    huge = fixed_point_profile(KERNEL, 1.0, fs.GridSpec(256)) * 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Divergence) as info:
        solve_block(huge, KERNEL, TC, NL, 0, 2.0, SolverParams())
    assert info.value.iteration == 1
    assert math.isnan(info.value.norm)


def test_stacked_integrand_and_norm_match_rows():
    # 77 and 65 rows: not a multiple of the chunk of the padded (2N) or the
    # plain (N) full-layout transforms, nor of the padded half-layout ones,
    # and more than one chunk of each. One workspace serves every stacked
    # call, so its scratch is reused across chunk shapes and layouts.
    work = fs._Workspace()
    for m in (76, 64):
        check_stacked_rows(m, work)


def check_stacked_rows(m, work):
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, SolverParams(m=m))
    rows = np.array([s.fhat for s in lin.slices])
    half_width = GRID.n_points // 2 + 1
    for width in (GRID.n_points, 2 * GRID.n_points, 2 * half_width):
        chunk = fs._CHUNK_BYTES // (16 * width)
        assert chunk < rows.shape[0] and rows.shape[0] % chunk != 0
    coeffs = NL.combined_coefficients(0, 2.0, TC.p, KERNEL.d)
    full = FullRealLayout(GRID)
    half = fs._Layout(GRID, True)
    integrand = full.power(rows, coeffs, np.empty_like(rows), work)
    for row, got in zip(rows, integrand):
        # bitwise: a stacked chunk gives what the same transform gives one row
        assert np.array_equal(got, full.power(row, coeffs))
        # the fused sum against separate powers: the coefficients are applied
        # before or after the forward transform, so they agree to rounding
        want = np.zeros_like(row)
        for k in sorted(coeffs):
            want = want + coeffs[k] * fs.pointwise_power(fs.SpectralFunction(GRID, row), k).fhat
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    held = half.rows(rows)
    half_integrand = half.power(held, coeffs, np.empty_like(held), work)
    for row, got in zip(held, half_integrand):
        assert np.array_equal(got, half.power(row, coeffs))
    assert np.array_equal(half.expand(half_integrand), integrand)
    deriv = np.empty_like(rows)
    norm = blocksolver._block_norm(rows, full, 2, work, deriv)
    assert np.array_equal(deriv, np.array([deriv_rows(r, GRID) for r in rows]))
    assert norm == max(fs.weighted_norm(fs.SpectralFunction(GRID, r), 2) for r in rows)
    half_deriv = np.empty_like(held)
    assert blocksolver._block_norm(held, half, 2, work, half_deriv) == norm
    assert np.array_equal(half_deriv, deriv[:, fs._to_half(np.arange(GRID.n_points))])
    # a field that is not real keeps the full layout and complex transforms
    odd = 1e-3 * GRID.omega * np.exp(-(GRID.omega**2))
    skew = rows + odd
    assert not any(fs._is_real_field(r) for r in skew)
    plain = fs._Layout(GRID, False)
    skew_integrand = plain.power(skew, coeffs, np.empty_like(skew), work)
    for row, got in zip(skew, skew_integrand):
        assert np.array_equal(got, plain.power(row, coeffs))
    skew_deriv = np.empty_like(skew)
    skew_norm = blocksolver._block_norm(skew, plain, 2, work, skew_deriv)
    assert np.array_equal(skew_deriv, np.array([deriv_rows(r, GRID) for r in skew]))
    assert skew_norm == max(fs.weighted_norm(fs.SpectralFunction(GRID, r), 2) for r in skew)


def real_input():
    # a real field with both an even and an odd part: imaginary odd spectrum
    w = GRID.omega
    return profile() * 0.5 + fs.SpectralFunction(GRID, 2e-3j * w * np.exp(-(w**2)))


def solve_in_layouts(monkeypatch, solve):
    """solve() once in the half layout and once in the full one."""
    f = real_input()
    assert fs._is_real_field(f.fhat)
    half = solve(f)
    with monkeypatch.context() as patch:
        patch.setattr(blocksolver, "_layout_of", lambda fhat, grid: FullRealLayout(grid))
        full = solve(f)
    assert half._rows.shape[-1] == GRID.n_points // 2 + 1
    assert full._rows.shape[-1] == GRID.n_points
    for sol in (half, full):
        # row 0 is the input spectrum itself, signed zeros included
        assert sol.slices[0].fhat is f.fhat
    for a, b in zip(half.slices, full.slices):
        assert np.array_equal(a.fhat, b.fhat)
    assert block_norm(half, 2) == block_norm(full, 2)
    assert (half.iterations, half.final_delta) == (full.iterations, full.final_delta)
    return half, full


def test_layouts_agree_bitwise(monkeypatch):
    # every element-wise step of the Picard loop maps the half of a
    # Hermitian input to the half of its Hermitian output, so the half
    # layout holds exactly the numbers of the full one
    params = SolverParams(m=76)
    half, full = solve_in_layouts(
        monkeypatch, lambda f: solve_block(f, KERNEL, TC, NL, 0, 2.0, params)
    )
    for term in (damping_term, forcing_term):
        a = term(half, NL, KERNEL, TC, 0, 2.0, params.m)
        b = term(full, NL, KERNEL, TC, 0, 2.0, params.m)
        assert np.array_equal(a.fhat, b.fhat)
    # the stacked octaves of the direct oracle: non-uniform steps
    times, elapsed = verify._composite_nodes(TC, 2.0, 8.0, 16)
    coeffs = NL.combined_coefficients(0, 2.0, TC.p, KERNEL.d)
    solve_in_layouts(
        monkeypatch,
        lambda f: blocksolver._picard_rows(f, KERNEL, times, elapsed, coeffs, params),
    )


def test_duhamel_sums_in_place():
    # the integrand stack becomes the Duhamel sums of the two-row recurrence
    rng = np.random.default_rng(3)
    integrand = rng.normal(size=(9, 17)) + 1j * rng.normal(size=(9, 17))
    emult = rng.uniform(0.5, 1.0, size=(8, 17))
    h = rng.uniform(0.1, 0.3, size=8)
    want = np.zeros_like(integrand)
    for i in range(1, 9):
        want[i] = emult[i - 1] * (want[i - 1] + 0.5 * h[i - 1] * integrand[i - 1]) + (
            0.5 * h[i - 1]
        ) * integrand[i]
    sums = integrand.copy()
    assert blocksolver._duhamel_rows(sums, emult, h, fs._Workspace()) is sums
    assert np.array_equal(sums, want)


def test_solve_allocates_its_stacks_once(monkeypatch):
    # six stacks whatever the iteration count: u0 and its multipliers, du,
    # the step multipliers and two iterate stacks that trade places; mapped
    # stacks hold the same numbers as heap ones
    params = SolverParams(m=16)
    heap = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    assert heap.iterations >= 3
    shapes = []
    make = fs._empty_stack

    def counted(shape, dtype=np.complex128):
        shapes.append(shape)
        return make(shape, dtype)

    monkeypatch.setattr(fs, "_empty_stack", counted)
    monkeypatch.setattr(fs, "_MAPPED_STACK_BYTES", 0)
    mapped = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    assert len(shapes) == 6
    assert mapped.iterations == heap.iterations
    for a, b in zip(mapped.slices, heap.slices):
        assert np.array_equal(a.fhat, b.fhat)


def test_solutions_sharing_a_workspace_keep_their_values(monkeypatch):
    # the stack that ends as a solution's rows is handed over to it: a later
    # solve in the same workspace never writes it while the solution lives,
    # and reuses it once the solution is gone
    params = SolverParams(m=16)
    work = fs._Workspace()
    first = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params, work)
    kept = [s.fhat.copy() for s in first.slices]
    second = solve_block(profile() * 0.5, KERNEL, TC, NL, 1, 2.0, params, work)
    assert not np.shares_memory(first._rows, second._rows)
    for a, b in zip(first.slices, kept):
        assert np.array_equal(a.fhat, b)
    alone = solve_block(profile() * 0.5, KERNEL, TC, NL, 1, 2.0, params)
    for a, b in zip(second.slices, alone.slices):
        assert np.array_equal(a.fhat, b.fhat)
    del first, second
    shapes = []
    make = fs._empty_stack

    def counted(shape, dtype=np.complex128):
        shapes.append(shape)
        return make(shape, dtype)

    monkeypatch.setattr(fs, "_empty_stack", counted)
    third = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params, work)
    assert shapes == []
    for a, b in zip(third.slices, kept):
        assert np.array_equal(a.fhat, b)


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
