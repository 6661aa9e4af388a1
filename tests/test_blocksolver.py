"""Single-block Picard solver against independent oracles."""

import math
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from block_oracles import (
    FullRealLayout,
    block_norm,
    damping_term,
    deriv_rows,
    forcing_term,
    linear_block,
    norm_rows,
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


def test_nonlinearity_refuses_non_integral_powers():
    # a power is an integer or an integral float, never truncated: u^3.5
    # used to damp as u^3, and "3" and True passed as 3 and 1
    assert Nonlinearity(mu=0.05, lam=0.01, terms=((3.0, 1.0), (np.int64(4), 2.0))).terms == (
        (3, 1.0),
        (4, 2.0),
    )
    for power in (3.5, "3", True, np.bool_(True), math.nan, math.inf):
        with pytest.raises(DomainError, match=re.escape(f"term ({power!r}, 1.0)")):
            Nonlinearity(mu=0.05, lam=0.01, terms=((power, 1.0),))


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
    # True is an int to Python, but no iteration cap, as on the YAML path
    with pytest.raises(DomainError, match="picard_max must be an integer"):
        SolverParams(picard_max=True)
    assert SolverParams(picard_max=np.int64(3)).picard_max == 3


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
    # once the norm bound nears the guard, the guard compares the norm of
    # the iterate itself, evaluated afresh: here that of the first iterate
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
    # running out the Picard budget; u0 is resolved relative to its peak,
    # and the NaN iterate's tail warns
    huge = fixed_point_profile(KERNEL, 1.0, fs.GridSpec(256)) * 1e200
    with (
        pytest.warns(UnderResolvedWarning),
        np.errstate(over="ignore", invalid="ignore"),
        pytest.raises(Divergence) as info,
    ):
        solve_block(huge, KERNEL, TC, NL, 0, 2.0, SolverParams())
    assert info.value.iteration == 1
    assert math.isnan(info.value.norm)


def record_exact_norms(monkeypatch):
    """(rows, (norm, tail)) of every exact stack evaluation, in order."""
    seen = []
    exact = blocksolver._norm_and_tail

    def recorded(rows, layout, q, work):
        seen.append((rows.copy(), exact(rows, layout, q, work)))
        return seen[-1][1]

    monkeypatch.setattr(blocksolver, "_norm_and_tail", recorded)
    return seen


def test_converging_solve_bounds_the_guard_norm(monkeypatch):
    # ||u_new|| <= ||u|| + ||u_new - u||: from the linear norm on, taken
    # as u0 is formed, the guard and tail checks of a converging solve run
    # on the bounds alone
    seen = record_exact_norms(monkeypatch)
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, SolverParams(m=16))
    assert sol.iterations >= 3
    assert seen == []


def test_guard_crossed_by_the_bound_only_keeps_solving(monkeypatch):
    # every iterate keeps row 0, the input, whose norm is the linear norm
    # here: with the guard at that norm each bound crosses it and each exact
    # norm of an iterate meets it, so the solve runs on to the unguarded bits
    free = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, SolverParams(m=16))
    guard = block_norm(linear_block(profile(), KERNEL, TC, 0, 2.0, SolverParams(m=16)), 2)
    seen = record_exact_norms(monkeypatch)
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, SolverParams(m=16, norm_guard=guard))
    assert len(seen) == sol.iterations
    assert all(norm == guard for _, (norm, _) in seen)
    assert (sol.iterations, sol.final_delta) == (free.iterations, free.final_delta)
    for a, b in zip(sol.slices, free.slices):
        assert np.array_equal(a.fhat, b.fhat)


def test_divergence_reports_the_exact_norm(monkeypatch):
    # the bound trips at the iteration the running guard norm did (3 at
    # mu = -10), and the norm reported is the iterate's, not the bound
    wild = Nonlinearity(mu=-10.0)
    seen = record_exact_norms(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        with pytest.raises(Divergence) as info:
            solve_block(profile(), KERNEL, TC, wild, 0, 2.0, SolverParams(m=16))
        assert info.value.iteration == 3
        assert info.value.norm > info.value.guard
        times, _ = blocksolver._block_nodes(TC, 0, 2.0, 16)
        layout = fs._Layout(GRID)
        iterate = BlockSolution(layout, times, profile().fhat, seen[-1][0], 3, math.nan)
        assert info.value.norm == block_norm(iterate, 2)


def test_errstate_applies_on_every_thread(monkeypatch):
    # numpy's errstate is a context variable, which a new thread does not
    # inherit: the helpers run the chunks in a copy of the caller's context
    monkeypatch.setattr(fs, "_WORKERS", max(2, fs._WORKERS))
    huge = fixed_point_profile(KERNEL, 1.0, fs.GridSpec(256)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UnderResolvedWarning)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Divergence):
            solve_block(huge, KERNEL, TC, NL, 0, 2.0, SolverParams())


def test_under_resolved_stacks_warn_once_at_the_solver_line(monkeypatch):
    # one warning for the linear stack and one per Picard iteration, each
    # raised on the calling thread at the line that asked for the norm
    monkeypatch.setattr(fs, "_WORKERS", max(2, fs._WORKERS))
    slow = fs.from_profile(GRID, lambda w: 1e-3 / (1.0 + w**2))
    params = SolverParams(m=16)
    assert len(fs._chunks(params.m + 1, GRID.n_points // 2 + 1)) > 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_block(slow, KERNEL, TC, NL, 0, 2.0, params)
    assert [w.category for w in caught] == [UnderResolvedWarning] * (1 + sol.iterations)
    source = Path(blocksolver.__file__).read_text().splitlines()
    assert caught[0].filename == blocksolver.__file__
    assert "_start_rows(" in source[caught[0].lineno - 1]
    for w in caught[1:]:
        assert w.filename == blocksolver.__file__
        assert "return _picard_rows(" in source[w.lineno - 1]


def test_threads_change_no_bit(monkeypatch):
    # the transforms, norms and kernel multipliers of a row depend on that
    # row alone, and the Duhamel recurrence runs in row order across chunks
    # whatever thread holds them, so the chunks give the same bits on one
    # thread as on several. With a time-change remainder each chunk of a
    # warm start takes the start's u0 off with the start's own multipliers
    params = SolverParams(m=76)
    coeffs = NL.combined_coefficients(0, 2.0, TC.p, KERNEL.d)
    rows = np.array([s.fhat for s in linear_block(profile(), KERNEL, TC, 0, 2.0, params).slices])
    half = fs._Layout(GRID)
    held = half.rows(rows)

    def run():
        work = fs._Workspace()
        deriv = half.deriv(held, work=work)
        norm, _ = blocksolver._norm_and_tail(held, half, 2, work)
        out = [half.power(held, coeffs, work=work), deriv, norm]
        for tc in (TC, TimeChange(p=1.0, delta=0.5, coeff=0.3)):
            sol = solve_block(real_input(), KERNEL, tc, NL, 0, 2.0, params)
            out += [[s.fhat for s in sol.slices], (sol.iterations, sol.final_delta)]
            # a warm start forms u0 and takes its norm chunk by chunk
            warm = solve_block(fs.dilate(sol.final, 2.0), KERNEL, tc, NL, 1, 2.0, params, start=sol)
            out += [
                [s.fhat for s in warm.slices],
                (warm.iterations, warm.final_delta, *warm.correction_bound),
            ]
        return out

    monkeypatch.setattr(fs, "_WORKERS", 1)
    serial = run()
    monkeypatch.setattr(fs, "_WORKERS", max(2, fs._WORKERS))
    assert len(fs._chunks(*held.shape)) > 1
    threaded = run()
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_stacked_integrand_and_norm_match_rows():
    # 77 and 65 rows: more than one chunk of the padded (2N) and the plain
    # (N) full-width transforms and of the padded half-layout ones. One
    # workspace serves every stacked call, so its scratch is reused across
    # chunk shapes and layouts.
    work = fs._Workspace()
    for m in (76, 64):
        check_stacked_rows(m, work)


def check_stacked_rows(m, work):
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, SolverParams(m=m))
    rows = np.array([s.fhat for s in lin.slices])
    half_width = GRID.n_points // 2 + 1
    for width in (GRID.n_points, 2 * GRID.n_points, 2 * half_width):
        assert len(fs._chunks(rows.shape[0], width)) > 1
    coeffs = NL.combined_coefficients(0, 2.0, TC.p, KERNEL.d)
    full = FullRealLayout(GRID)
    half = fs._Layout(GRID)
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
    deriv = full.deriv(rows, work=work)
    norm, _ = blocksolver._norm_and_tail(rows, full, 2, work)
    # bitwise against each row alone; the N-point derivative, transformed
    # on the whole grid, agrees to 1e-13 of each row's peak
    assert np.array_equal(deriv, np.array([full.deriv(r) for r in rows]))
    ref = deriv_rows(rows, GRID)
    assert np.all(np.max(np.abs(deriv - ref), axis=-1) <= 1e-13 * np.max(np.abs(ref), axis=-1))
    assert norm == max(fs.weighted_norm(fs.SpectralFunction(GRID, r), 2) for r in rows)
    assert norm == pytest.approx(np.max(norm_rows(rows, GRID, 2)), rel=2e-14, abs=0.0)
    half_deriv = half.deriv(held, work=work)
    assert blocksolver._norm_and_tail(held, half, 2, work)[0] == norm
    assert np.array_equal(half_deriv, deriv[:, fs._to_half(np.arange(GRID.n_points))])


def real_input():
    # a real field with both an even and an odd part: imaginary odd spectrum
    w = GRID.omega
    return profile() * 0.5 + fs.SpectralFunction(GRID, 2e-3j * w * np.exp(-(w**2)))


def solve_in_layouts(monkeypatch, solve, f=None):
    """solve() once in the half layout and once in the full one."""
    f = real_input() if f is None else f
    assert fs._is_real_field(f.fhat)
    half = solve(f)
    with monkeypatch.context() as patch:
        patch.setattr(blocksolver, "_Layout", FullRealLayout)
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
    assert half.correction_bound == full.correction_bound
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
    # an under-resolved input: its tail crosses tail_tol at every iterate,
    # so the solve evaluates each iterate's norm and tail afresh
    slow = fs.from_profile(GRID, lambda w: 1e-3 / (1.0 + w**2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        solve_in_layouts(
            monkeypatch,
            lambda f: solve_block(f, KERNEL, TC, NL, 0, 2.0, SolverParams(m=16)),
            slow,
        )


def test_full_layout_tail_is_the_outer_octaves():
    # the sorted rows' tail is read on the nodes |omega| >= omega_max/4,
    # the nodes the half rows' tail reads
    w = GRID.omega
    rows = np.array([np.exp(-(w**2) / s) for s in (1.0, 40.0, 400.0)], dtype=np.complex128)
    full, half = FullRealLayout(GRID), fs._Layout(GRID)
    held = half.rows(rows)
    _, full_tail = full.norm(rows, 2)
    _, half_tail = half.norm(held, 2)
    assert full_tail == half_tail > GRID.tail_tol


def test_duhamel_sums_in_place():
    # the integrand stack becomes the two-row recurrence started from the
    # given first row, whether in one chunk or in chunks of any sizes
    # called in row order with the carried rows
    rng = np.random.default_rng(3)
    integrand = rng.normal(size=(9, 17)) + 1j * rng.normal(size=(9, 17))
    emult = rng.uniform(0.5, 1.0, size=(8, 17))
    h = rng.uniform(0.1, 0.3, size=8)
    first = rng.normal(size=17) + 1j * rng.normal(size=17)
    want = np.empty_like(integrand)
    want[0] = first
    for i in range(1, 9):
        want[i] = emult[i - 1] * (want[i - 1] + 0.5 * h[i - 1] * integrand[i - 1]) + (
            0.5 * h[i - 1]
        ) * integrand[i]
    work = fs._Workspace()
    for sizes in ([9], [1] * 9, [2, 2, 2, 2, 1], [1, 4, 2, 2], [3, 1, 5]):
        sums = integrand.copy()
        carry = np.full((2, 17), np.nan, dtype=np.complex128)  # read only from row 1 on
        start = 0
        for size in sizes:
            chunk = sums[start : start + size]
            mult = emult[max(start, 1) - 1 : start + size - 1]  # the chunk's rows past row 0
            assert blocksolver._duhamel_rows(chunk, start, mult, h, carry, first, work) is chunk
            start += size
        assert start == 9
        assert np.array_equal(sums, want), sizes
        assert np.array_equal(carry[1], want[-1])


def test_duhamel_recurrence_from_the_input_row_is_the_linear_evolution():
    # with a zero integrand the recurrence multiplies the input row by the
    # step multipliers, the linear evolution by the semigroup: it matches
    # u0 to rounding, and exactly at omega = 0 where every multiplier is 1.
    # exp(-s |omega|^d) carries the rounding of its exponent, a relative
    # error of s |omega|^d eps, so each node's bound scales with it; a
    # subnormal u0 has no relative precision to compare
    params = SolverParams(m=64)
    lin = linear_block(profile(), KERNEL, TC, 0, 2.0, params)
    _, elapsed = blocksolver._block_nodes(TC, 0, 2.0, params.m)
    layout = fs._Layout(GRID)
    work = fs._Workspace()
    emult = KERNEL._multiplier_rows(layout.abs_omega_pow(KERNEL.d), np.diff(elapsed))
    h = np.diff(lin.times)
    rows = np.zeros_like(lin._rows)
    carry = np.empty((2, rows.shape[1]), np.complex128)
    blocksolver._duhamel_rows(rows, 0, emult, h, carry, layout.rows(profile().fhat), work)
    size = np.abs(lin._rows)
    condition = 1.0 + elapsed[:, None] * layout.abs_omega_pow(KERNEL.d)
    normal = size >= np.finfo(float).tiny
    gap = np.abs(rows - lin._rows)
    assert np.all((gap <= 64 * np.finfo(float).eps * condition * size)[normal])
    assert np.array_equal(rows[:, 0], lin._rows[:, 0])


def test_solve_allocates_its_stacks_once(monkeypatch):
    # one stack whatever the iteration count: the iterate, u0 formed in it
    # and each iteration swept over it in place, every chunk evaluating its
    # multipliers in scratch; mapped stacks hold the same numbers as heap
    # ones
    params = SolverParams(m=16)
    heap = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    assert heap.iterations >= 3
    shapes = []
    make = fs._empty_stack

    def counted(shape):
        shapes.append(shape)
        return make(shape)

    monkeypatch.setattr(fs, "_empty_stack", counted)
    monkeypatch.setattr(fs, "_MAPPED_STACK_BYTES", 0)
    mapped = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    assert shapes == [(17, 513)]
    assert mapped.iterations == heap.iterations
    for a, b in zip(mapped.slices, heap.slices):
        assert np.array_equal(a.fhat, b.fhat)


def count_live_stacks(monkeypatch):
    """Make every stack mapped; returns the live count after each allocation."""
    live, peak = set(), []
    make = fs._empty_stack

    def counted(shape):
        stack = make(shape)
        # views of a mapped stack keep its frombuffer base alive, not it
        key = id(stack.base)
        live.add(key)
        peak.append(len(live))
        weakref.finalize(stack.base, live.discard, key)
        return stack

    monkeypatch.setattr(fs, "_empty_stack", counted)
    monkeypatch.setattr(fs, "_MAPPED_STACK_BYTES", 0)
    return peak


def test_solve_holds_one_stack_at_a_time(monkeypatch):
    # the iterate is all a mapped solve holds at its peak: the multipliers
    # of u0 and of the steps live in chunk scratch
    peak = count_live_stacks(monkeypatch)
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, SolverParams(m=16))
    assert sol.iterations >= 3
    assert peak == [1]


def test_solutions_sharing_a_workspace_keep_their_values(monkeypatch):
    # a solution owns its rows: a later solve in the same workspace never
    # writes them, and a cold one allocates its iterate afresh, the one
    # stack it allocates
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

    def counted(shape):
        shapes.append(shape)
        return make(shape)

    monkeypatch.setattr(fs, "_empty_stack", counted)
    third = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params, work)
    assert shapes == [(17, 513)]
    for a, b in zip(third.slices, kept):
        assert np.array_equal(a.fhat, b)


def test_warm_solve_holds_no_more_stacks_than_a_cold_one(monkeypatch):
    # a solve started from the block before takes its rows as the iterate
    # and forms u0 chunk by chunk in scratch, so it allocates no stack,
    # with or without a remainder (where each chunk takes the start's u0
    # off with the start's multipliers before it evaluates its own): it
    # holds the start's rows alone, one stack, as a cold solve does
    params = SolverParams(m=16)
    peak = count_live_stacks(monkeypatch)
    for tc in (TC, TimeChange(p=1.0, delta=0.5, coeff=0.3)):
        before = solve_block(profile(), KERNEL, tc, NL, 0, 2.0, params)
        f1 = fs.dilate(before.final, 2.0)  # the next block's input, L^((p+1)/d) = 2
        cold = solve_block(f1, KERNEL, tc, NL, 1, 2.0, params)
        cold_iterations, cold_final = cold.iterations, cold.final.fhat
        del cold
        peak.clear()
        warm = solve_block(f1, KERNEL, tc, NL, 1, 2.0, params, start=before)
        assert peak == []
        if tc.vanishes:  # with this remainder the start saves no iteration
            assert warm.iterations < cold_iterations
        assert np.max(np.abs(warm.final.fhat - cold_final)) < params.picard_tol
        del warm


def test_a_warm_start_is_u0_plus_the_correction_before():
    # the start pass turns the start's rows into u0 + (u - u0 of start),
    # the start's u0 taken off with the multipliers of its own elapsed
    # times, which differ from the block's with a time-change remainder;
    # the same operands as the written-out sum, so bitwise
    params = SolverParams(m=16)
    for tc in (TC, TimeChange(p=1.0, delta=0.5, coeff=0.3)):
        before = solve_block(profile(), KERNEL, tc, NL, 0, 2.0, params)
        f1 = fs.dilate(before.final, 2.0)
        correction = before._rows - linear_block(profile(), KERNEL, tc, 0, 2.0, params)._rows
        want = linear_block(f1, KERNEL, tc, 1, 2.0, params)._rows + correction
        _, elapsed = blocksolver._block_nodes(tc, 1, 2.0, params.m)
        assert np.array_equal(elapsed, before.elapsed) == tc.vanishes
        rows, layout = before._rows, before._layout
        first = layout.rows(f1.fhat)
        blocksolver._start_rows(rows, first, KERNEL, layout, elapsed, KERNEL.q, fs._Workspace(), before)
        assert np.array_equal(rows[1:], want[1:])
        assert np.array_equal(rows[0], first)


def test_a_start_is_spent_once():
    params = SolverParams(m=16)
    before = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    kept = before.final.fhat.copy()
    with pytest.raises(DomainError, match="same grid and nodes"):
        solve_block(profile(), KERNEL, TC, NL, 1, 2.0, SolverParams(m=32), start=before)
    # rows of the same shape on another grid: its multipliers differ, so
    # the start's correction_bound would bound nothing there
    other = fs.SpectralFunction(fs.GridSpec(GRID.n_points, 0.5 * GRID.x_max), profile().fhat)
    with pytest.raises(DomainError, match="same grid and nodes"):
        solve_block(other, KERNEL, TC, NL, 1, 2.0, params, start=before)
    assert np.array_equal(before.final.fhat, kept)  # a refused start is not spent
    solve_block(profile() * 0.5, KERNEL, TC, NL, 1, 2.0, params, start=before)
    with pytest.raises(DomainError, match="spent"):
        before.final
    with pytest.raises(DomainError, match="spent"):
        solve_block(profile() * 0.5, KERNEL, TC, NL, 1, 2.0, params, start=before)


def test_a_linear_warm_solve_is_the_linear_block():
    # with no integrand the start's correction has no use: u0 is written
    # over the start's spent rows, with or without a time-change remainder
    params = SolverParams(m=16)
    for tc in (TC, TimeChange(p=1.0, delta=0.5, coeff=0.3)):
        before = solve_block(profile(), KERNEL, tc, NL, 0, 2.0, params)
        held = before._rows
        f1 = fs.dilate(before.final, 2.0)
        sol = solve_block(f1, KERNEL, tc, Nonlinearity(mu=0.0), 1, 2.0, params, start=before)
        assert sol._rows is held
        assert np.array_equal(sol._rows, linear_block(f1, KERNEL, tc, 1, 2.0, params)._rows)
        assert (sol.iterations, sol.correction_bound) == (1, (0.0, 0.0))
        with pytest.raises(DomainError, match="spent"):
            before.final


def test_each_tail_crossing_takes_one_exact_norm(monkeypatch):
    # an under-resolved input crosses tail_tol at every iterate while its
    # norm bound stays below the guard: each iterate's norm and tail are
    # evaluated afresh, once, so the normed rows (each with its derivative)
    # are u0's and two stacks per iteration, the update's and the
    # iterate's, whatever the number of chunks
    slow = fs.from_profile(GRID, lambda w: 1e-3 / (1.0 + w**2))
    rows = [0]
    norm = fs._Layout.norm

    def counted(self, chunk, q, out=None, work=None):
        rows[0] += chunk.shape[0]
        return norm(self, chunk, q, out, work)

    monkeypatch.setattr(fs._Layout, "norm", counted)
    seen = record_exact_norms(monkeypatch)
    params = SolverParams(m=16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_block(slow, KERNEL, TC, NL, 0, 2.0, params)
    assert [w.category for w in caught] == [UnderResolvedWarning] * (1 + sol.iterations)
    assert sol.iterations >= 2
    assert len(seen) == sol.iterations
    assert rows[0] == (params.m + 1) * (1 + 2 * sol.iterations)


def test_solve_block_warns_when_under_resolved():
    slow = fs.from_profile(GRID, lambda w: 1e-3 / (1.0 + w**2))
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


def test_slices_are_built_on_demand(monkeypatch, tmp_path):
    # a read-only sequence: it builds a slice for each index or iteration
    # step and keeps none, so iterating holds one sorted slice at a time
    params = SolverParams(m=16)
    sol = solve_block(profile(), KERNEL, TC, NL, 0, 2.0, params)
    built = [0]
    expand = fs._Layout.expand

    def counted(self, rows):
        built[0] += 1
        return expand(self, rows)

    monkeypatch.setattr(fs._Layout, "expand", counted)
    slices = sol.slices
    assert len(slices) == params.m + 1 and built[0] == 0
    counts, listed = [], []
    for piece in slices:
        counts.append(built[0])
        listed.append(piece)
    assert counts == list(range(params.m + 1))  # slice 0 is the input, built from no row
    for t, piece in zip(sol.times, listed):
        assert np.array_equal(piece.fhat, sol.slice_at(t).fhat)
    assert np.array_equal(slices[-1].fhat, sol.final.fhat)
    assert np.array_equal(slices[np.int64(3)].fhat, slices[3 - len(slices)].fhat)
    assert slices[-len(slices)].fhat is slices[0].fhat
    for bad in (len(slices), -len(slices) - 1):
        with pytest.raises(IndexError):
            slices[bad]
    with pytest.raises(TypeError):
        slices[1.0]
    with pytest.raises(TypeError):
        slices[0] = slices[1]
    # the callers' idioms: +=, zip, comprehensions, indexing
    listed = []
    listed += sol.slices
    assert len(listed) == len(slices)
    assert len([s for s in sol.slices]) == len(slices)
    for a, b in zip(listed, sol.slices):
        assert np.array_equal(a.fhat, b.fhat)
    assert np.array_equal(sol.slices[8].fhat, listed[8].fhat)
    # the block CSV holds the slices' values
    path = tmp_path / "block.csv"
    block_to_csv(sol, path)
    lines = ["t,omega,re_fhat,im_fhat"]
    for t, s in zip(sol.times, listed):
        for w, v in zip(sol.grid.omega, s.fhat):
            lines.append(f"{float(t)!r},{float(w)!r},{float(v.real)!r},{float(v.imag)!r}")
    assert path.read_text() == "\n".join(lines) + "\n"
