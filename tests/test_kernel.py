"""Stable kernel identities and constants."""

import math
from pathlib import Path

import numpy as np
import pytest
from block_oracles import inverse_sorted

from marginalrg import funcspace as fs
from marginalrg import verify
from marginalrg.blocksolver import _block_nodes
from marginalrg.config import load_config
from marginalrg.errors import DomainError
from marginalrg.kernel import (
    _EXP_FLOOR,
    ScalingKernel,
    fixed_point_profile,
    heat_kernel,
    selfsim_residual,
    semigroup_residual,
)

GRID = fs.GridSpec()
CANONICAL = Path(__file__).resolve().parents[1] / "configs" / "canonical.yaml"


def test_parameter_validation():
    with pytest.raises(DomainError):
        ScalingKernel(d=0.5)
    with pytest.raises(DomainError):
        ScalingKernel(kappa=0.0)
    with pytest.raises(DomainError):
        ScalingKernel(q=1)


def test_ghat_values():
    k = heat_kernel()
    assert k.ghat(0.0, 5.0) == 1.0
    assert k.ghat(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    with pytest.raises(DomainError):
        k.ghat(1.0, 0.0)
    with pytest.raises(DomainError):
        k.ghat(1.0, -2.0)


def test_self_similarity():
    for d in (1.0, 1.5, 2.0, 4.0):
        k = ScalingKernel(d=d)
        for t in (0.3, 1.7, 3.7, 9.99):
            assert selfsim_residual(k, GRID, t) < 1e-13


def test_semigroup_residual():
    assert semigroup_residual(heat_kernel(), GRID, 2.0, 1.0) < 1e-14
    assert semigroup_residual(ScalingKernel(d=4.0), GRID, 3.0, 0.5) < 1e-14
    small = fs.GridSpec(n_points=1024, x_max=40.0)
    assert semigroup_residual(ScalingKernel(d=1.5), small, 1.1, 0.4) < 1e-13
    with pytest.raises(DomainError):
        semigroup_residual(heat_kernel(), GRID, 1.0, 1.0)


def test_stacked_multiplier_matches_rows():
    for k in (heat_kernel(), ScalingKernel(d=1.5, kappa=0.7)):
        times = np.array([0.05, 0.7, 2.5, 9.0])
        rows = k.multiplier(GRID, times)
        assert rows.shape == (times.shape[0], GRID.n_points)
        for row, t in zip(rows, times):
            assert np.array_equal(row, k.multiplier(GRID, t))
    for bad in ([0.5, 0.0], [0.5, -1.0], [np.inf], [0.3, np.nan], [[1.0]]):
        with pytest.raises(DomainError):
            heat_kernel().multiplier(GRID, np.array(bad))
    with pytest.raises(DomainError):
        heat_kernel().multiplier(GRID, 0.0)


def test_multiplier_error_names_the_first_bad_time():
    # the message names one time, not the whole array
    times = np.linspace(0.1, 2.0, 192)
    times[[57, 90]] = [-0.25, np.nan]
    with pytest.raises(DomainError, match=r"got t\[57\] = -0\.25$"):
        heat_kernel().multiplier(GRID, times)
    times[57] = 0.3
    with pytest.raises(DomainError, match=r"got t\[90\] = nan$"):
        heat_kernel().multiplier(GRID, times)
    with pytest.raises(DomainError, match=r"got 0\.0$"):
        heat_kernel().multiplier(GRID, 0.0)
    with pytest.raises(DomainError, match=r"shape \(1, 1\)"):
        heat_kernel().multiplier(GRID, np.array([[1.0]]))


def _bitwise_equal(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def _solver_node_sets():
    # (grid, elapsed times) of a canonical block and of the direct oracle
    flow = load_config(str(CANONICAL)).flow
    _, block = _block_nodes(flow.tc, 0, flow.L, flow.solver.m)
    t_end = flow.L**3
    wide = verify.widened_grid(flow.grid, verify.direct_widening(flow, t_end))
    # at L^3 direct_integrate spans three octaves of m nodes each
    _, direct = verify._composite_nodes(flow.tc, flow.L, t_end, flow.solver.m)
    return [(flow.grid, block), (wide, direct)]


@pytest.mark.parametrize("d", [2.0, 4.0])
@pytest.mark.parametrize("kappa", [1.0, 0.5])
def test_multiplier_rows_skip_exp_only_where_it_is_zero(d, kappa):
    # exp below _EXP_FLOOR is not evaluated: the rows the solver uses
    # (u0's multipliers at the elapsed times, the step multipliers) are
    # bitwise those of a plain exp, subnormal band and zeros included
    kernel = ScalingKernel(d=d, kappa=kappa)
    seen_subnormal = seen_zero = False
    for grid, elapsed in _solver_node_sets():
        for t in (elapsed[1:], np.diff(elapsed)):
            for half in (True, False):
                abs_pow = fs._abs_omega_pow(grid, kernel.d, half)
                want = np.exp(np.multiply.outer(-kernel.kappa * t, abs_pow))
                assert _bitwise_equal(kernel._multiplier_rows(abs_pow, t), want)
                out = np.full(want.shape, np.nan)
                assert kernel._multiplier_rows(abs_pow, t, out=out) is out
                assert _bitwise_equal(out, want)
                for i in (0, t.shape[0] // 2, -1):  # one time: one row
                    assert _bitwise_equal(kernel._multiplier_rows(abs_pow, t[i]), want[i])
                seen_subnormal |= bool(np.any((want > 0.0) & (want < np.finfo(float).tiny)))
                seen_zero |= bool(np.any(want == 0.0))
    assert seen_subnormal and seen_zero
    # arguments on either side of the floor, and a NaN one, kept NaN
    x = -_EXP_FLOOR / kernel.kappa
    edge = np.array(
        [0.0, 700.0, 745.0, 745.2, np.nextafter(x, 0.0), x, np.nextafter(x, np.inf), 2 * x, np.inf, np.nan]
    )
    want = np.exp(np.multiply.outer(-kernel.kappa * np.array([1.0]), edge))
    got = kernel._multiplier_rows(edge, np.array([1.0]))
    assert _bitwise_equal(got, want) and np.isnan(got[0, -1])


def test_exp_is_exactly_zero_below_the_floor():
    # the premise of _multiplier_rows: a platform whose exp gives anything
    # but +0.0 below the floor fails here
    steps = [_EXP_FLOOR]
    for _ in range(10000):
        steps.append(np.nextafter(steps[-1], -np.inf))
    x = np.concatenate([steps, np.linspace(_EXP_FLOOR, -1e6, 200001), [-np.inf]])
    y = np.exp(x)
    assert np.all(y == 0.0) and not np.any(np.signbit(y))


def test_evenness():
    m = heat_kernel().multiplier(GRID, 0.7)
    assert np.array_equal(m[1:], m[1:][::-1])


def test_physical_mass():
    for k, t in ((heat_kernel(), 0.5), (heat_kernel(), 2.0), (ScalingKernel(d=4.0), 1.0)):
        phys = inverse_sorted(k.multiplier(GRID, t), GRID.dx)
        assert np.sum(phys.real) * GRID.dx == pytest.approx(1.0, abs=1e-8)


def test_fixed_point_profile_heat():
    fp = fixed_point_profile(heat_kernel(), 1.0, GRID)
    assert np.max(np.abs(fp.fhat - np.exp(-GRID.omega**2 / 2.0))) < 1e-15
    assert fp.at_zero == 1.0
    with pytest.raises(DomainError):
        fixed_point_profile(heat_kernel(), 0.0, GRID)


def test_fixed_point_profile_quartic_norm_is_grid_converged():
    # norm of the d=4 profile against a refined-grid evaluation
    k = ScalingKernel(d=4.0)
    coarse = fs.weighted_norm(fixed_point_profile(k, 1.0, GRID), 2)
    fine_grid = fs.GridSpec(n_points=16384, x_max=40.0)
    fine = fs.weighted_norm(fixed_point_profile(k, 1.0, fine_grid), 2)
    assert math.isfinite(coarse)
    assert coarse == pytest.approx(fine, abs=1e-4)


def test_profile_evolution_is_gaussian_algebra():
    k = heat_kernel()
    fp = fixed_point_profile(k, 1.0, GRID)
    out = fs.apply_multiplier(fp, k, 0.8)
    assert np.max(np.abs(out.fhat - np.exp(-1.3 * GRID.omega**2))) < 1e-14
