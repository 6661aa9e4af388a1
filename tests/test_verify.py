import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import marginalrg.funcspace as fs
from marginalrg.blocksolver import Nonlinearity, SolverParams
from marginalrg.errors import DomainError
from marginalrg.funcspace import GridSpec
from marginalrg.kernel import ScalingKernel, fixed_point_profile
from marginalrg.marginal import amplitude_prefactor
from marginalrg.rgflow import FlowConfig, initial_state, run_flow
from marginalrg.timechange import TimeChange
from marginalrg import marginal as mg
from marginalrg import verify

HEAT = ScalingKernel(d=2.0, kappa=1.0, q=2)
TC0 = TimeChange(p=1.0)
TCP = TimeChange(p=1.0, delta=0.5, coeff=1.0)


def make_config(**overrides):
    base = dict(
        kernel=HEAT,
        tc=TC0,
        nonlinearity=Nonlinearity(0.05, 0.01, ((3, 1.0),)),
        grid=GridSpec(4096, 40.0),
        solver=SolverParams(),
        L=2.0,
        n_steps=12,
        A0=0.05,
        g0_kind="even-bump",
        g0_eps=1e-3,
    )
    base.update(overrides)
    return FlowConfig(**base)


# ---------------------------------------------------------------------------
# direct integration


def test_direct_integrate_rejects_bad_span():
    cfg = make_config()
    with pytest.raises(DomainError, match="capped"):
        verify.direct_integrate(cfg, cfg.L**3 * 1.5)
    with pytest.raises(DomainError, match="t_end"):
        verify.direct_integrate(cfg, 1.0)


def test_direct_widening_factors():
    cfg = make_config()
    assert verify.direct_widening(cfg, cfg.L) == 1
    # s grows like t^2 for the heat instance, so L^3 needs a 4x wider grid
    assert verify.direct_widening(cfg, cfg.L**3) == 4
    assert verify.widened_grid(cfg.grid, 1) is cfg.grid
    wide = verify.widened_grid(cfg.grid, 4)
    assert (wide.n_points, wide.x_max) == (16384, 160.0)


def test_direct_linear_closed_form():
    # mu = lam = 0: every slice is the kernel multiplier applied to the
    # initial data, and landmark times must be exact nodes even for a
    # non-dyadic L
    cfg = make_config(
        nonlinearity=Nonlinearity(0.0, 0.0, ()),
        grid=GridSpec(1024, 40.0),
        g0_kind="zero",
        g0_eps=0.0,
        L=3.0,
        n_steps=1,
    )
    sol = verify.direct_integrate(cfg, 27.0)
    assert sol.grid.n_points == 16384
    f0, _, _ = initial_state(replace(cfg, grid=sol.grid))
    worst = 0.0
    for t in (1.0, 3.0, 9.0, 27.0):
        got = sol.slice_at(t)
        want = fs.apply_multiplier(f0, cfg.kernel, float(cfg.tc.elapsed(t)))
        worst = max(worst, float(np.max(np.abs(got.fhat - want.fhat))))
    assert worst <= 1e-14


def test_direct_one_block_matches_flow():
    # single octave: direct uses 3x finer time nodes than the block solve,
    # so the gap is the m=64 trapezoid refinement error, well under 1e-8
    cfg = make_config(n_steps=1)
    sol = verify.direct_integrate(cfg, cfg.L)
    assert sol.grid.n_points == cfg.grid.n_points
    trace = run_flow(cfg)
    gap = fs.weighted_norm(
        verify.rescaled_direct_slice(cfg, sol, 1) - trace.profile(1), HEAT.q
    )
    assert 0.0 < gap <= 1e-8


def test_direct_three_blocks_match_flow():
    cfg = make_config(n_steps=3)
    sol = verify.direct_integrate(cfg, cfg.L**3)
    assert sol.grid.n_points == 16384
    trace = run_flow(replace(cfg, grid=sol.grid))
    assert trace.completed
    gaps = [
        fs.weighted_norm(
            verify.rescaled_direct_slice(cfg, sol, n) - trace.profile(n), HEAT.q
        )
        for n in (1, 2, 3)
    ]
    # matched node spacing: errors cancel far below the 1e-4 / 1e-8 bounds
    assert gaps[0] <= 1e-9
    assert all(g <= 1e-9 for g in gaps)


# ---------------------------------------------------------------------------
# contraction


def test_contraction_rejects_mass_carrying_sample():
    grid = GridSpec(1024, 40.0)
    target = fixed_point_profile(HEAT, 1.0, grid)
    with pytest.raises(DomainError, match="mass-free"):
        verify.contraction_check(HEAT, TC0, (2.0,), [target])


def test_contraction_canonical_pins():
    samples = verify.contraction_samples(verify.WIDE_GRID, seed=0)
    assert len(samples) == 5
    rows, variation = verify.contraction_check(HEAT, TC0, (2.0, 4.0, 8.0), samples)
    ratios = [r.ratio for r in rows]
    assert all(r < 1.0 for r in ratios)
    assert [r.L for r in rows] == [2.0, 4.0, 8.0]
    # pinned regression, measured with this build
    assert ratios[0] == pytest.approx(0.7542572297524991, rel=1e-9)
    assert ratios[1] == pytest.approx(0.4406992947983614, rel=1e-9)
    assert ratios[2] == pytest.approx(0.230369927095949, rel=1e-9)
    assert variation == pytest.approx(0.2217048402521366, rel=1e-9)
    assert variation <= 0.25


def test_contraction_worst_mode_is_seed_independent():
    # seeded widths stay at or below the literal sample's, so the per-L
    # worst ratio is the literal mode for any seed
    a, va = verify.contraction_check(
        HEAT, TC0, (2.0, 8.0), verify.contraction_samples(verify.WIDE_GRID, seed=0)
    )
    b, vb = verify.contraction_check(
        HEAT, TC0, (2.0, 8.0), verify.contraction_samples(verify.WIDE_GRID, seed=99)
    )
    assert [r.ratio for r in a] == [r.ratio for r in b]
    assert va == vb


# ---------------------------------------------------------------------------
# fixed point


def test_fixed_point_zero_branch_ladder():
    grids = [GridSpec(n, 40.0) for n in (1024, 2048, 4096)]
    rows = verify.fixed_point_check(HEAT, TC0, grids)
    assert [r.ok for r in rows] == [True, True, True]
    assert max(r.value for r in rows) <= 1e-10


@pytest.mark.filterwarnings("ignore::marginalrg.errors.UnderResolvedWarning")
def test_fixed_point_coarse_grid_fails_cleanly():
    # 256 points at x_max=80 leaves the profile tail unresolved; the row
    # records the failure and refinement recovers
    grids = [GridSpec(256, 80.0), GridSpec(1024, 80.0), GridSpec(4096, 80.0)]
    rows = verify.fixed_point_check(HEAT, TC0, grids)
    assert not rows[0].ok and math.isinf(rows[0].value)
    assert rows[1].ok and rows[2].ok


def test_fixed_point_power_branch_envelope():
    rows = verify.fixed_point_check(HEAT, TCP, [GridSpec(4096, 40.0)])
    assert [r.label for r in rows] == [f"level {n}" for n in range(2, 13)]
    assert all(r.ok for r in rows)
    assert rows[0].value == pytest.approx(rows[0].bound, rel=1e-12)
    values = [r.value for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    for n, row in zip(range(2, 13), rows):
        expect = rows[0].bound * (
            TCP.remainder_ratio(n, 2.0) / TCP.remainder_ratio(2, 2.0)
        ) ** (1.0 / HEAT.d)
        assert row.bound == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# theorem error


def test_theorem_error_matches_flow_column():
    cfg = make_config(n_steps=6)
    trace = run_flow(cfg)
    pref = amplitude_prefactor(HEAT, cfg.tc.p, cfg.mu)
    target = fixed_point_profile(HEAT, cfg.tc.p, cfg.grid)
    for n in range(2, 7):
        stretch = (n * math.log(cfg.L)) ** ((cfg.tc.p + 1.0) / HEAT.d)
        err = fs.weighted_norm(trace.profile(n) * stretch - target * pref, HEAT.q)
        assert err == pytest.approx(trace.theorem_gap[n], rel=1e-12)
    passed, measured = verify._theorem_trend_body(trace)
    assert passed and measured["window"] == [5, 6]
    # one level past the transient is too few to judge a trend
    trace.theorem_gap.pop()
    assert verify._theorem_trend_body(trace) == (False, {"error": "needs levels past 5"})


# ---------------------------------------------------------------------------
# report plumbing


def test_report_sanitizes_and_renders():
    report = verify.VerificationReport()
    report.checks.append(
        verify.CheckResult(
            name="demo",
            statement="a synthetic failing check",
            passed=False,
            tolerance="<= 1",
            measured={"x": float("nan"), "y": [1.0, float("inf")], "n": np.int64(3)},
            runtime_s=0.01,
        )
    )
    assert not report.passed
    data = report.as_dict()
    assert data["passed"] is False
    measured = data["checks"][0]["measured"]
    assert measured["x"] is None
    assert measured["y"] == [1.0, None]
    assert measured["n"] == 3
    json.dumps(data)
    text = report.as_text()
    assert "[FAIL] demo" in text
    assert text.endswith("overall: FAIL")


def test_beta_constant_computes_one_response(monkeypatch):
    # without a remainder beta_0, beta_10 and beta_20 read one response
    calls = []

    def response(n, *args, _response=mg.marginal_response, **kwargs):
        calls.append(n)
        return _response(n, *args, **kwargs)

    monkeypatch.setattr(mg, "marginal_response", response)
    cfg = make_config(solver=SolverParams(m=32), n_steps=1)
    _, measured = verify._beta_constant_body(cfg)
    assert calls == [0]
    direct = mg.decay_coefficient(20, cfg.kernel, cfg.tc, cfg.L, cfg.grid, 32)
    assert measured["worst_gap"] == abs(direct - measured["limit"])


def test_beta_constant_checks_the_flow_m():
    # the check measures the direct beta_n at the m the flow runs with: at
    # m = 32 the flow's beta_0 is 1.7e-5 from the limit, past the 5e-6 bound
    cfg = make_config(solver=SolverParams(m=32), n_steps=1)
    passed, measured = verify._beta_constant_body(cfg)
    beta_0 = run_flow(cfg).decay_coeff[0]
    assert measured["worst_gap"] >= abs(beta_0 - measured["limit"]) > 5e-6
    assert not passed
    passed, measured = verify._beta_constant_body(make_config())
    assert passed and measured["worst_gap"] <= 5e-6


def test_run_verification_power_model_branches():
    # mu = 0 skips the flow checks; a power remainder selects the
    # convergence variant of the beta check
    cfg = make_config(
        tc=TCP,
        nonlinearity=Nonlinearity(0.0, 0.0, ()),
        g0_kind="zero",
        g0_eps=0.0,
        n_steps=3,
    )
    report = verify.run_verification(cfg, seed=0)
    names = [c.name for c in report.checks]
    assert names == [
        "kernel_identities",
        "fixed_point",
        "contraction",
        "overlap_routes",
        "beta_convergence",
        "direct_consistency",
    ]
    assert report.passed
    assert all(c.runtime_s >= 0.0 for c in report.checks)
    json.dumps(report.as_dict())


def test_run_verification_vanishing_power_remainder():
    # a power remainder with coeff = 0 is the zero remainder: the fixed-point
    # check takes its exact branch (the envelope would divide by rho_n = 0)
    # and the beta check its constant variant, and every check passes
    flat = TimeChange(p=1.0, delta=0.5, coeff=0.0)
    report = verify.run_verification(make_config(tc=flat, grid=GridSpec(1024, 40.0)))
    assert [c.name for c in report.checks][4] == "beta_constant"
    assert len(report.checks) == 10
    assert report.passed, report.as_text()


def test_verify_times_the_shared_flow(monkeypatch):
    # the 20-step flow that four checks share runs inside the timed
    # flow_monotonicity check, so the report accounts for its seconds
    def slow_flow(cfg, _run_flow=verify.run_flow):
        time.sleep(0.2)
        return _run_flow(cfg)

    monkeypatch.setattr(verify, "run_flow", slow_flow)
    for body in ("_fixed_point_body", "_contraction_body", "_overlap_body", "_beta_constant_body", "_direct_body"):
        monkeypatch.setattr(verify, body, lambda *args: (True, {}))
    cfg = make_config(grid=GridSpec(1024, 40.0), solver=SolverParams(m=16))
    report = verify.run_verification(cfg, seed=0)
    assert [c.name for c in report.checks] == [
        "kernel_identities",
        "fixed_point",
        "contraction",
        "overlap_routes",
        "beta_constant",
        "flow_monotonicity",
        "renorm_residual",
        "increment_law",
        "theorem_trend",
        "direct_consistency",
    ]
    flow = report.checks[5]
    assert flow.measured["completed"]
    assert 0.2 <= flow.measured["flow_s"] <= flow.runtime_s


def test_flow_check_bodies_match_their_loop_form():
    # reference: the per-level loops that the array forms replace; they
    # agree bit for bit wherever the powers of A stay floats
    cfg = make_config(grid=GridSpec(1024, 40.0), solver=SolverParams(m=16), n_steps=7)
    trace = run_flow(cfg)
    mu, alpha = cfg.mu, cfg.alpha_c
    levels = list(zip(trace.mass_shift, trace.decay_coeff, trace.amplitude, trace.w_norm))
    ineq = all(abs(shift + mu * beta * amp**alpha) <= wn for shift, beta, amp, wn in levels)
    ratios = [wn / amp**alpha for _, _, amp, wn in levels]
    trend = all(x > y for x, y in zip(ratios[3:], ratios[4:])) and ratios[-1] < ratios[0]
    assert verify._renorm_residual_body(trace, mu, alpha) == (
        ineq and trend,
        {
            "inequality_all": ineq,
            "ratio_first": ratios[0],
            "ratio_last": ratios[-1],
            "trend_past_transient": trend,
        },
    )
    target = mu * (alpha - 1) * mg.decay_limit(cfg.kernel, cfg.tc.p, cfg.L)
    inv = [a ** (-(alpha - 1.0)) for a in trace.amplitude]
    dev = [abs(b - a - target) for a, b in zip(inv, inv[1:])]
    trend = all(x > y for x, y in zip(dev[3:], dev[4:]))
    assert verify._increment_body(trace, cfg) == (
        trend and dev[-1] / target <= 0.2,
        {"target": target, "final_rel_dev": dev[-1] / target, "trend_past_transient": trend},
    )


def test_flow_checks_fail_cleanly_at_extreme_amplitudes():
    # A^alpha and A^-(alpha-1) leave the float range at such amplitudes: the
    # mass shift underflows, so A_n cannot move, and the bodies report failed
    # checks instead of raising ZeroDivisionError or OverflowError
    d4 = ScalingKernel(d=4.0, kappa=0.5)
    tiny = dict(
        grid=GridSpec(1024, 40.0), solver=SolverParams(m=16), n_steps=3, g0_kind="zero", g0_eps=0.0
    )
    heat = make_config(A0=1e-300, **tiny)
    quartic = make_config(kernel=d4, nonlinearity=Nonlinearity(0.05, 0.0, ()), A0=1e-200, **tiny)
    assert (heat.alpha_c, quartic.alpha_c) == (2, 3)
    rel_dev = []
    for cfg in (heat, quartic):
        trace = run_flow(cfg)
        assert trace.completed and trace.amplitude == [cfg.A0] * 4
        passed, measured = verify._renorm_residual_body(trace, cfg.mu, cfg.alpha_c)
        assert not passed and measured["ratio_first"] == math.inf
        passed, measured = verify._increment_body(trace, cfg)
        assert not passed
        rel_dev.append(measured["final_rel_dev"])
    # 1e-300^-1 is still a float, so the increments read 0 against the
    # target; 1e-200^-2 is not
    assert rel_dev[0] == 1.0 and math.isnan(rel_dev[1])
    report = verify.run_verification(quartic)
    assert len(report.checks) == 10 and not report.passed
    json.dumps(report.as_dict())
