"""Numerical verification of the decay law and its supporting lemmas.

Each check measures a property on concrete instances and records the
values, the tolerance, and a pass flag.  The module also houses the
independent direct-integration oracle that the flow is compared
against.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import funcspace as fs
from .blocksolver import _picard_rows
from .errors import DomainError, MarginalRGError
from .funcspace import GridSpec, SpectralFunction
from .kernel import (
    ScalingKernel,
    fixed_point_profile,
    heat_kernel,
    selfsim_residual,
    semigroup_residual,
)
from .marginal import (
    decay_bracket,
    decay_coefficient,
    decay_convergence,
    decay_limit,
    linear_profile,
    marginal_responses,
    overlap_constant,
)
from .rgflow import initial_state, linear_rg_step, run_flow, theorem_trend
from .timechange import TimeChange

# wide companion grid for checks whose dilation factor reaches L = 8
WIDE_GRID = GridSpec(16384, 160.0)


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class CheckResult:
    """One named check: the property it states, the numbers, the verdict."""

    name: str
    statement: str
    passed: bool
    tolerance: str
    measured: dict
    runtime_s: float


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "statement": c.statement,
                    "passed": c.passed,
                    "tolerance": c.tolerance,
                    "measured": _json_safe(c.measured),
                    "runtime_s": round(c.runtime_s, 3),
                }
                for c in self.checks
            ],
        }

    def as_text(self):
        lines = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"[{verdict}] {c.name}: {c.statement} ({c.tolerance}, {c.runtime_s:.2f}s)")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


# ---------------------------------------------------------------------------
# direct integration oracle


def direct_widening(config, t_end):
    """Power-of-two grid widening that keeps the spreading solution resolved."""
    rest = 1.0 / (config.tc.p + 1.0)
    grow = (config.tc.elapsed(t_end) + rest) / (config.tc.elapsed(config.L) + rest)
    factor = grow ** (1.0 / config.kernel.d)
    if factor <= 1.0:
        return 1
    return 2 ** math.ceil(math.log2(factor))


def widened_grid(grid, factor):
    """Scale points and box together so spacing and omega_max are kept."""
    if factor == 1:
        return grid
    return replace(grid, n_points=grid.n_points * factor, x_max=grid.x_max * factor)


def _composite_nodes(tc, L, t_end, m_sub):
    """Per-octave uniform nodes [1, L, L^2, ...] up to t_end; landmarks exact."""
    bounds = [1.0]
    for k in (1, 2, 3):
        mark = float(L) ** k
        if mark < t_end * (1.0 - 1e-12):
            bounds.append(mark)
    bounds.append(float(t_end))
    times = [np.array([1.0])]
    for lo, hi in zip(bounds, bounds[1:]):
        times.append(np.linspace(lo, hi, m_sub + 1)[1:])
    times = np.concatenate(times)
    elapsed = np.asarray(tc.elapsed(times), dtype=np.float64)
    elapsed[0] = 0.0
    return times, elapsed


def direct_integrate(config, t_end):
    """Solve the original equation on one long span [1, t_end].

    Uses the global time change (no per-block rescaling) on an
    automatically widened grid, with per-octave node stacks so the
    landmark times L, L^2, L^3 are exact nodes.  The span is capped at
    L^3 to keep the run at desk scale.
    """
    L = config.L
    if t_end > L**3 * (1.0 + 1e-12):
        raise DomainError(f"direct integration is capped at L^3 = {L**3}")
    if t_end <= 1.0:
        raise DomainError("need t_end > 1")
    grid = widened_grid(config.grid, direct_widening(config, t_end))
    wide = replace(config, grid=grid)
    f0, _, _ = initial_state(wide)
    octaves = max(1, math.ceil(math.log(t_end) / math.log(L) - 1e-12))
    m_sub = max(config.solver.m, math.ceil(3 * config.solver.m / octaves))
    times, elapsed = _composite_nodes(config.tc, L, t_end, m_sub)
    coeffs = config.nonlinearity.combined_coefficients(
        0, L, config.tc.p, config.kernel.d
    )
    return _picard_rows(f0, config.kernel, times, elapsed, coeffs, config.solver)


def rescaled_direct_slice(config, solution, level):
    """Map the direct solution at t = L^level back to a level profile."""
    t = config.L**level
    factor = config.L ** (level * (config.tc.p + 1.0) / config.kernel.d)
    return fs.dilate(solution.slice_at(t), factor)


# ---------------------------------------------------------------------------
# contraction of the mass-free sector


@dataclass(frozen=True)
class ContractionRow:
    L: float
    ratio: float
    scaled: float


def contraction_samples(grid, seed):
    """Five mass-free single-mode bumps: (i omega)^j exp(-sigma omega^2).

    The factor i^j makes each the transform of a real function (the j-th
    derivative of a Gaussian). Widths stay in [0.7, 1.0]: mixing modes of
    very different widths would let different samples dominate at
    different L and inflate the measured spread for reasons unrelated to
    the contraction rate.
    """
    rng = np.random.default_rng(seed)
    w = grid.omega
    samples = [SpectralFunction(grid, 1j * w * np.exp(-(w**2)))]
    for i in range(4):
        j = 1 + i % 2
        sigma = rng.uniform(0.7, 1.0)
        samples.append(SpectralFunction(grid, (1j * w) ** j * np.exp(-sigma * w**2)))
    return samples


def contraction_check(kernel, tc, L_list, g_samples):
    """Measure the linear-step norm ratio on mass-free samples.

    Returns (rows, variation): one row per L with the worst ratio over
    samples and levels 0, 1, 2, and the relative spread of
    ratio * L^((p+1)/d) across the L values.
    """
    if not L_list or not g_samples:
        raise DomainError("contraction_check needs at least one L and one sample")
    for g in g_samples:
        mass = abs(fs.eval_at_zero(g))
        scale = float(np.max(np.abs(g.fhat)))
        if mass > 1e-12 * max(scale, 1e-300):
            raise DomainError(
                "contraction samples must be mass-free: |ghat(0)| = "
                f"{mass:.3e}"
            )
    rows = []
    for L in L_list:
        worst = 0.0
        for g in g_samples:
            base = fs.weighted_norm(g, kernel.q)
            for n in (0, 1, 2):
                out = linear_rg_step(g, kernel, tc, n, L)
                worst = max(worst, fs.weighted_norm(out, kernel.q) / base)
        rows.append(
            ContractionRow(
                L=float(L),
                ratio=worst,
                scaled=worst * float(L) ** ((tc.p + 1.0) / kernel.d),
            )
        )
    scaled = [r.scaled for r in rows]
    variation = (max(scaled) - min(scaled)) / min(scaled)
    return rows, variation


# ---------------------------------------------------------------------------
# linear fixed point


@dataclass(frozen=True)
class FixedPointRow:
    label: str
    value: float
    bound: float
    ok: bool


def fixed_point_check(kernel, tc, grid_list, L=2.0):
    """Residual of the linear block map at the scaling profile.

    With a vanishing remainder the profile is an exact fixed point and
    the rows measure pure discretization: each must stay below 1e-8 and
    the sequence must not grow under refinement, except below its grid's
    rounding floor 3 eps x_max sqrt(dx) (1 + omega_max^q).
    With a power remainder the rows instead track the level-n profile
    gap against the envelope c * rho_n^(1/d) fitted at n = 2.
    """
    rows = []
    if tc.vanishes:
        tol = 1e-8
        prev = math.inf
        for grid in grid_list:
            label = f"grid {grid.n_points}"
            try:
                target = fixed_point_profile(kernel, tc.p, grid)
                value = fs.weighted_norm(
                    linear_rg_step(target, kernel, tc, 0, L) - target, kernel.q
                )
            except MarginalRGError:
                rows.append(FixedPointRow(label, math.inf, tol, False))
                prev = math.inf
                continue
            # rounding alone: an FFT leaves on each output about eps
            # sqrt(dx) times the l2 norm of the field (below 1 for the
            # unit-peak profile), r' = F[-i x r] lifts that by the rms of x,
            # x_max / sqrt(3), and the B_q weight by 1 + omega_max^q at the
            # outer nodes; 3 covers the sup of that noise over the nodes
            weight = 1.0 + grid.omega_max**kernel.q
            floor = 3.0 * np.finfo(float).eps * grid.x_max * math.sqrt(grid.dx) * weight
            ok = value <= tol and (value <= prev or value <= floor)
            rows.append(FixedPointRow(label, value, tol, ok))
            prev = value
        return rows
    grid = grid_list[-1]
    target = fixed_point_profile(kernel, tc.p, grid)
    gaps = {
        n: fs.weighted_norm(linear_profile(kernel, tc, n, L, grid) - target, kernel.q)
        for n in range(2, 13)
    }
    scale = gaps[2] / tc.remainder_ratio(2, L) ** (1.0 / kernel.d)
    for n, gap in gaps.items():
        bound = scale * tc.remainder_ratio(n, L) ** (1.0 / kernel.d)
        rows.append(
            FixedPointRow(f"level {n}", gap, bound, gap <= bound * (1.0 + 1e-9))
        )
    return rows


# ---------------------------------------------------------------------------
# the full suite


def _check(report, name, statement, tolerance, fn):
    """Run one check body, trapping numeric failures as a failed row."""
    start = time.perf_counter()
    try:
        passed, measured = fn()
    except MarginalRGError as exc:
        passed, measured = False, {"error": str(exc)}
    report.checks.append(
        CheckResult(
            name=name,
            statement=statement,
            passed=passed,
            tolerance=tolerance,
            measured=measured,
            runtime_s=time.perf_counter() - start,
        )
    )


def _kernel_identity_body():
    worst = {"semigroup": 0.0, "selfsim": 0.0}
    grid = GridSpec(1024, 40.0)
    for d in (1.0, 1.5, 2.0, 4.0):
        kern = ScalingKernel(d=d)
        for t, s in ((0.5, 0.2), (2.0, 1.0), (3.7, 0.4)):
            worst["semigroup"] = max(worst["semigroup"], semigroup_residual(kern, grid, t, s))
            worst["selfsim"] = max(worst["selfsim"], selfsim_residual(kern, grid, t + s))
    passed = max(worst.values()) <= 1e-13
    return passed, worst


def _fixed_point_body(config):
    n = config.grid.n_points
    ladder = sorted({max(256, n // 4), max(256, n // 2), n})
    grids = [replace(config.grid, n_points=k) for k in ladder]
    kernels = [config.kernel]
    companion = ScalingKernel(d=4.0, kappa=0.5, q=config.kernel.q)
    if config.kernel != companion:
        kernels.append(companion)
    measured = {}
    passed = True
    for kern in kernels:
        rows = fixed_point_check(kern, config.tc, grids, L=config.L)
        measured[f"d={kern.d} kappa={kern.kappa}"] = [
            {"label": r.label, "value": r.value, "bound": r.bound} for r in rows
        ]
        passed = passed and all(r.ok for r in rows)
    return passed, measured


def _contraction_body(config, seed):
    samples = contraction_samples(WIDE_GRID, seed)
    # measure the bare scaling map: a remainder only adds level-dependent
    # damping inside the envelope, which fixed_point_check already tracks
    bare = TimeChange(p=config.tc.p)
    rows, variation = contraction_check(config.kernel, bare, (2.0, 4.0, 8.0), samples)
    passed = variation <= 0.25 and all(r.ratio < 1.0 for r in rows)
    measured = {
        "rows": [{"L": r.L, "ratio": r.ratio, "scaled": r.scaled} for r in rows],
        "variation": variation,
        "samples": len(samples),
    }
    return passed, measured


def _overlap_body(config):
    alpha = config.alpha_c
    instances = {"configured": (config.kernel, alpha)}
    instances.setdefault("heat", (heat_kernel(config.kernel.q), 2))
    companion = ScalingKernel(d=4.0, kappa=0.5, q=config.kernel.q)
    if config.kernel != companion:
        instances["quartic"] = (companion, 3)
    measured = {}
    passed = True
    for label, (kern, a) in instances.items():
        ov = overlap_constant(kern, a)
        measured[label] = {
            "direct": ov.direct,
            "oracle": ov.oracle,
            "gap": ov.discrepancy,
        }
        if ov.discrepancy is not None:
            passed = passed and ov.discrepancy <= 1e-5
    heat_gap = abs(measured["heat"]["direct"] - math.sqrt(math.pi / 2.0))
    measured["heat"]["exact_gap"] = heat_gap
    return passed and heat_gap <= 1e-6, measured


def _beta_constant_body(config):
    # the direct coefficients at the flow's own m, as run_flow uses them
    kern, tc, L = config.kernel, config.tc, config.L
    limit = decay_limit(kern, tc.p, L)
    closed = [decay_coefficient(n, kern, tc, L) for n in range(0, 21)]
    direct = [
        response.at_zero.real
        for response in marginal_responses((0, 10, 20), kern, tc, L, config.grid, config.solver.m)
    ]
    lo, hi = decay_bracket(kern, tc.p, L)
    gap = max(abs(b - limit) for b in closed + direct)
    inside = all(lo < b < hi for b in closed)
    return gap <= 5e-6 and inside, {
        "limit": limit,
        "worst_gap": gap,
        "bracket": [lo, hi],
        "bracket_ok": inside,
    }


def _beta_convergence_body(config):
    rows = decay_convergence(config.kernel, config.tc, config.L, range(2, 21))
    gaps = [r.gap for r in rows]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    tail = [(math.log(r.n), math.log(r.gap)) for r in rows if r.n >= 8]
    slope = float(
        np.polyfit([t[0] for t in tail], [t[1] for t in tail], 1)[0]
    )
    bound = -(config.tc.p + 1.0) / config.kernel.d + 0.3
    return decreasing and slope <= bound, {
        "gaps": gaps,
        "slope": slope,
        "slope_bound": bound,
    }


def _flow_monotonicity_body(config, flow):
    # runs the flow the later checks share, so its time counts here
    start = time.perf_counter()
    flow["trace"] = trace = run_flow(replace(config, n_steps=max(config.n_steps, 20)))
    flow_s = time.perf_counter() - start
    amps = trace.amplitude
    mono = all(a > b > 0.0 for a, b in zip(amps, amps[1:]))
    dominated = all(g < a * a for g, a in zip(trace.g_norm, amps))
    mass = abs(fs.eval_at_zero(trace.final_remainder))
    passed = trace.completed and mono and dominated and mass <= 1e-10
    return passed, {
        "completed": trace.completed,
        "amplitude_monotone": mono,
        "remainder_dominated": dominated,
        "final_mass": mass,
        "A_final": amps[-1],
        "flow_s": flow_s,
    }


def _renorm_residual_body(trace, mu, alpha):
    shift, beta, w = (np.asarray(v) for v in (trace.mass_shift, trace.decay_coeff, trace.w_norm))
    # at extreme amplitudes numpy saturates A^alpha to 0 or inf; Python floats raise
    with np.errstate(all="ignore"):
        amp_pow = np.asarray(trace.amplitude[: len(w)]) ** alpha
        ineq = bool(np.all(np.abs(shift + mu * beta * amp_pow) <= w))
        ratios = w / amp_pow
    trend = bool(np.all(ratios[3:-1] > ratios[4:]) and ratios[-1] < ratios[0])
    return ineq and trend, {
        "inequality_all": ineq,
        "ratio_first": float(ratios[0]),
        "ratio_last": float(ratios[-1]),
        "trend_past_transient": trend,
    }


def _increment_body(trace, config):
    mu, alpha = config.mu, config.alpha_c
    limit = decay_limit(config.kernel, config.tc.p, config.L)
    target = mu * (alpha - 1) * limit
    with np.errstate(all="ignore"):  # as for A^alpha in _renorm_residual_body
        inv = np.asarray(trace.amplitude) ** -(alpha - 1.0)
        dev = np.abs(np.diff(inv) - target)
    trend = bool(np.all(dev[3:-1] > dev[4:]))
    final_rel = float(dev[-1] / target)
    return trend and final_rel <= 0.2, {
        "target": target,
        "final_rel_dev": final_rel,
        "trend_past_transient": trend,
    }


def _theorem_trend_body(trace):
    gaps = trace.theorem_gap
    trend = theorem_trend(gaps)
    if trend is None:
        return False, {"error": "needs levels past 5"}
    window, decreasing = trend
    return decreasing, {
        "window": [5, len(gaps) - 1],
        "first": window[0],
        "last": window[-1],
    }


def _direct_body(config):
    t_end = config.L**3
    sol = direct_integrate(config, t_end)
    wide = replace(config, grid=sol.grid, n_steps=3)
    trace = run_flow(wide)
    if not trace.completed:
        return False, {"error": trace.failure}
    gap1 = fs.weighted_norm(
        rescaled_direct_slice(config, sol, 1) - trace.profile(1), config.kernel.q
    )
    gap3 = fs.weighted_norm(
        rescaled_direct_slice(config, sol, 3) - trace.profile(3), config.kernel.q
    )
    return gap1 <= 1e-8 and gap3 <= 1e-4, {
        "one_block_gap": gap1,
        "three_block_gap": gap3,
        "grid_points": sol.grid.n_points,
    }


def run_verification(config, seed=0):
    """Run the full check suite for one configuration.

    seed, a non-negative integer, draws the contraction check's samples.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    report = VerificationReport()
    _check(
        report,
        "kernel_identities",
        "kernel scaling and semigroup identities hold on 1024-point grids",
        "<= 1e-13",
        _kernel_identity_body,
    )
    _check(
        report,
        "fixed_point",
        "the scaling profile is fixed by the linear block map",
        "<= 1e-8 per grid",
        lambda: _fixed_point_body(config),
    )
    _check(
        report,
        "contraction",
        "the mass-free sector contracts like L^(-(p+1)/d) with a stable constant",
        "ratios < 1, spread <= 25%",
        lambda: _contraction_body(config, seed),
    )
    _check(
        report,
        "overlap_routes",
        "the kernel self-interaction constant agrees across independent routes",
        "<= 1e-5 (heat exact <= 1e-6)",
        lambda: _overlap_body(config),
    )
    if config.tc.vanishes:
        _check(
            report,
            "beta_constant",
            "per-block decay coefficients collapse to the limit without a remainder",
            "<= 5e-6, inside bracket",
            lambda: _beta_constant_body(config),
        )
    else:
        _check(
            report,
            "beta_convergence",
            "per-block decay coefficients approach the limit at the stated rate",
            "strictly decreasing, slope bound",
            lambda: _beta_convergence_body(config),
        )
    if config.mu > 0.0:
        flow = {}
        _check(
            report,
            "flow_monotonicity",
            "amplitudes decrease strictly and dominate the remainder",
            "g_norm < A^2, mass <= 1e-10",
            lambda: _flow_monotonicity_body(config, flow),
        )
        trace = flow.get("trace")
        if trace is not None and trace.completed:
            _check(
                report,
                "renorm_residual",
                "per-step amplitude increments track the marginal response",
                "|dA + mu beta A^a| <= w_norm; ratio decreasing",
                lambda: _renorm_residual_body(trace, config.mu, config.alpha_c),
            )
            _check(
                report,
                "increment_law",
                "inverse amplitudes gain a fixed increment per block",
                "rel dev <= 20% at the last step",
                lambda: _increment_body(trace, config),
            )
            _check(
                report,
                "theorem_trend",
                "the stretched profile gap to the predicted limit decreases",
                "decreasing on [5, n_max]",
                lambda: _theorem_trend_body(trace),
            )
    _check(
        report,
        "direct_consistency",
        "composed RG blocks match one long direct integration",
        "<= 1e-8 one block, <= 1e-4 three blocks",
        lambda: _direct_body(config),
    )
    return report
