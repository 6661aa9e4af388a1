"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test asserts first and then prints a single pass line with the
measured numbers, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  A failed assertion leaves the criterion marked FAILED by
pytest itself, with no misleading pass line.

Criteria 7 through 10 share one canonical flow: criterion 7 runs the
shipped 12-step config as-is, criteria 8 to 10 extend it to 20 levels
through a module fixture.  Frozen constants carry a comment naming the
oracle they came from.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from marginalrg.config import load_config
from marginalrg.funcspace import GridSpec, eval_at_zero, weighted_norm
from marginalrg.kernel import (
    ScalingKernel,
    fixed_point_profile,
    heat_kernel,
    selfsim_residual,
    semigroup_residual,
)
from marginalrg.marginal import (
    decay_bracket,
    decay_coefficient,
    decay_convergence,
    decay_limit,
    linear_profile,
    marginal_response,
    overlap_constant,
)
from marginalrg.rgflow import linear_rg_step, run_flow
from marginalrg.timechange import TimeChange
from marginalrg.verify import (
    WIDE_GRID,
    contraction_check,
    contraction_samples,
    direct_integrate,
    rescaled_direct_slice,
)

CANONICAL = Path(__file__).resolve().parents[1] / "configs" / "canonical.yaml"


def _report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def _strictly_decreasing(seq):
    return all(x > y for x, y in zip(seq, seq[1:]))


@pytest.fixture(scope="module")
def canonical():
    return load_config(CANONICAL).flow


@pytest.fixture(scope="module")
def trace20(canonical):
    trace = run_flow(replace(canonical, n_steps=20))
    assert trace.completed, trace.failure
    return trace


def test_criterion_01_kernel_identities():
    # Semigroup and self-similarity residuals at 1e-13 on 1024-point
    # grids, across the stable-exponent range.
    grid = GridSpec(n_points=1024, x_max=40.0)
    pairs = ((0.5, 0.2), (2.0, 1.0), (3.7, 0.4))
    worst = 0.0
    for d in (1.0, 1.5, 2.0, 4.0):
        kern = ScalingKernel(d=d, kappa=1.0, q=2)
        for t, s in pairs:
            worst = max(worst, semigroup_residual(kern, grid, t, s))
            worst = max(worst, selfsim_residual(kern, grid, t + s))
    assert worst <= 1e-13
    _report(1, f"worst kernel identity residual {worst:.2e} <= 1e-13")


def test_criterion_02_linear_fixed_point():
    # The linear block map with no remainder must fix the scaling
    # profile to 1e-8 on the default grid.  kappa 0.5 keeps the quartic
    # profile resolved at x_max 40.
    grid = GridSpec()
    tc = TimeChange(p=1.0)
    gaps = {}
    for kern in (heat_kernel(), ScalingKernel(d=4.0, kappa=0.5, q=2)):
        target = fixed_point_profile(kern, tc.p, grid)
        image = linear_rg_step(target, kern, tc, 0, 2.0)
        gaps[kern.d] = weighted_norm(image - target, kern.q)
    assert all(v <= 1e-8 for v in gaps.values())
    _report(
        2,
        "fixed-point residuals "
        + ", ".join(f"d={d:g}: {v:.2e}" for d, v in gaps.items())
        + " <= 1e-8",
    )


def test_criterion_03_contraction():
    # Mass-free samples: the per-block contraction ratio scaled by
    # L^{(p+1)/d} must agree within 25% across L in {2, 4, 8}, with
    # every raw ratio below one.
    samples = contraction_samples(WIDE_GRID, seed=0)
    rows, variation = contraction_check(
        heat_kernel(), TimeChange(p=1.0), (2.0, 4.0, 8.0), samples
    )
    ratios = [row.ratio for row in rows]
    assert all(r < 1.0 for r in ratios)
    assert variation <= 0.25
    _report(
        3,
        f"scaled spread {variation:.1%} <= 25% across L in (2, 4, 8), "
        f"max ratio {max(ratios):.3f} < 1",
    )


def test_criterion_04_overlap_dual_route():
    # Self-interaction constant by tensor quadrature vs the spectral
    # route; the heat value has a closed Gaussian form.
    heat = overlap_constant(heat_kernel(), 2)
    quartic = overlap_constant(ScalingKernel(d=4.0, kappa=0.5, q=2), 3)
    exact = math.sqrt(math.pi / 2.0)  # closed-form Gaussian oracle
    assert heat.discrepancy <= 1e-5
    assert quartic.discrepancy <= 1e-5
    assert abs(heat.value - exact) <= 1e-6
    _report(
        4,
        f"route gaps heat {heat.discrepancy:.2e}, quartic "
        f"{quartic.discrepancy:.2e} <= 1e-5; heat value off closed form "
        f"by {abs(heat.value - exact):.2e} <= 1e-6",
    )


def test_criterion_05_decay_constant():
    # With no time-change remainder the per-level coefficient is level
    # independent: both routes sit within 5e-6 of the limit for every
    # n <= 20, inside the analytic bracket.
    kern = heat_kernel()
    tc = TimeChange(p=1.0)
    L = 2.0
    limit = decay_limit(kern, tc.p, L)
    exact = math.log(2.0) / (2.0 * math.sqrt(math.pi))  # closed form, heat at L = 2
    assert abs(limit - exact) <= 1e-9
    lo, hi = decay_bracket(kern, tc.p, L)
    grid = GridSpec()
    worst = 0.0
    for n in range(21):
        direct = marginal_response(n, kern, tc, L, grid).at_zero.real
        closed = decay_coefficient(n, kern, tc, L)
        for val in (direct, closed):
            assert lo < val < hi
            worst = max(worst, abs(val - limit))
    assert worst <= 5e-6
    _report(
        5,
        f"both routes within {worst:.2e} <= 5e-6 of "
        f"(ln 2)/(2 sqrt(pi)) for n <= 20, bracket holds",
    )


def test_criterion_06_decay_convergence_rate():
    # A power remainder t^{-1/2} makes the coefficient level dependent;
    # the gap to the limit must fall strictly on [2, 20] with log-log
    # slope at most -(p+1)/d + 0.3.
    kern = heat_kernel()
    tc = TimeChange(p=1.0, delta=0.5, coeff=1.0)
    rows = decay_convergence(kern, tc, 2.0, range(2, 21))
    gaps = [row.gap for row in rows]
    assert _strictly_decreasing(gaps)
    ns = np.array([row.n for row in rows], dtype=float)
    tail = ns >= 8
    slope = np.polyfit(np.log(ns[tail]), np.log(np.array(gaps)[tail]), 1)[0]
    bound = -(tc.p + 1.0) / kern.d + 0.3
    assert slope <= bound
    _report(
        6,
        f"gaps strictly decreasing on [2, 20], tail slope {slope:.2f} "
        f"<= {bound:.2f}",
    )


def test_criterion_07_flow_monotonicity(canonical):
    # The shipped 12-step config: positive strictly decreasing
    # amplitude, remainder below the amplitude squared, mass-free
    # remainder.  The per-step split residual (1e-9) and remainder mass
    # (1e-10) are hard gates inside rg_step, so a completed run
    # certifies them at every level; the final split is rechecked here.
    trace = run_flow(canonical)
    assert trace.completed, trace.failure
    amps = trace.amplitude
    assert len(amps) == canonical.n_steps + 1
    assert all(a > 0.0 for a in amps)
    assert _strictly_decreasing(amps)
    assert all(g < a * a for a, g in zip(amps, trace.g_norm))
    mass = abs(eval_at_zero(trace.final_remainder))
    assert mass <= 1e-10
    here = linear_profile(
        canonical.kernel, canonical.tc, canonical.n_steps, canonical.L,
        trace.final_profile.grid,
    )
    split = np.max(np.abs(
        trace.final_profile.fhat
        - (amps[-1] * here.fhat + trace.final_remainder.fhat)
    ))
    assert split <= 1e-9
    _report(
        7,
        f"12 levels: amplitude {amps[0]:.4f} -> {amps[-1]:.4f} strictly "
        f"decreasing, remainder mass {mass:.1e} <= 1e-10, final split "
        f"residual {split:.1e} <= 1e-9",
    )


def test_criterion_08_increment_law(canonical, trace20):
    # D_n = A_n^{-(alpha_c - 1)} gains mu (alpha_c - 1) beta per level;
    # the deviation shrinks past the transient and ends within 20%.
    alpha = canonical.alpha_c
    target = canonical.mu * (alpha - 1.0) * decay_limit(
        canonical.kernel, canonical.tc.p, canonical.L
    )
    inv = np.asarray(trace20.amplitude) ** (-(alpha - 1.0))
    dev = np.abs(np.diff(inv) - target)
    assert _strictly_decreasing(dev[3:])
    rel = dev[-1] / target
    assert rel <= 0.20
    _report(
        8,
        f"increment deviation decreasing past level 3, relative "
        f"{rel:.1e} <= 0.20 at n = 20",
    )


def test_criterion_09_renormalization_residual(canonical, trace20):
    # |A_{n+1} - A_n + mu beta_n A_n^alpha| stays below the correction
    # norm at every step, and the normalized correction decays.
    mu, alpha = canonical.mu, canonical.alpha_c
    rows = list(zip(
        trace20.amplitude, trace20.mass_shift, trace20.decay_coeff,
        trace20.w_norm,
    ))
    assert len(rows) == 20
    for amp, shift, beta, w in rows:
        assert abs(shift + mu * beta * amp ** alpha) <= w
    ratios = [w / amp ** alpha for amp, _, _, w in rows]
    assert ratios[-1] < ratios[0]
    assert _strictly_decreasing(ratios[3:])
    _report(
        9,
        f"residual under the correction norm at all 20 steps; "
        f"normalized correction {ratios[0]:.1e} -> {ratios[-1]:.1e}",
    )


def test_criterion_10_theorem_trend(canonical, trace20):
    # The rescaled-profile gap to the predicted limit shape must fall
    # monotonically from level 5 on.
    gaps = trace20.theorem_gap[5:]
    assert len(gaps) == 16
    assert all(math.isfinite(g) for g in gaps)
    assert _strictly_decreasing(gaps)
    _report(
        10,
        f"limit-shape gap decreasing on [5, 20]: {gaps[0]:.2f} -> "
        f"{gaps[-1]:.2f}",
    )


def test_criterion_11_direct_oracle(canonical):
    # One whole-interval integration to t = L^3, rescaled, against
    # three RG steps on the same (auto-widened) grid.
    sol = direct_integrate(canonical, canonical.L ** 3)
    trace = run_flow(replace(canonical, grid=sol.grid, n_steps=3))
    assert trace.completed, trace.failure
    gap = weighted_norm(
        rescaled_direct_slice(canonical, sol, 3) - trace.final_profile,
        canonical.kernel.q,
    )
    assert gap <= 1e-4
    _report(
        11,
        f"direct vs 3-step flow gap {gap:.2e} <= 1e-4 on "
        f"{sol.grid.n_points} points",
    )
