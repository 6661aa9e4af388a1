"""Stable kernel identities and constants."""

import math

import numpy as np
import pytest

from marginalrg import funcspace as fs
from marginalrg.errors import DomainError
from marginalrg.kernel import (
    ScalingKernel,
    fixed_point_profile,
    heat_kernel,
    selfsim_residual,
    semigroup_residual,
)

GRID = fs.GridSpec()


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


def test_evenness():
    m = heat_kernel().multiplier(GRID, 0.7)
    assert np.array_equal(m[1:], m[1:][::-1])


def test_physical_mass():
    for k, t in ((heat_kernel(), 0.5), (heat_kernel(), 2.0), (ScalingKernel(d=4.0), 1.0)):
        phys = GRID.inverse(k.multiplier(GRID, t))
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
