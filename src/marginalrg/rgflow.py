"""Block-by-block renormalization flow with amplitude bookkeeping.

The state at level n is a spectral profile together with the split
f_n = A_n * h_n + g_n, where h_n is the linearly evolved scaling profile
for the current level and the remainder has ghat_n(0) = 0.  One step
solves the rescaled block [1, L], reads off the nonlinear correction at
the block end, and rebuilds the split one level up.
"""

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import funcspace as fs
from ._version import __version__
from .blocksolver import BlockSolution, Nonlinearity, SolverParams, solve_block
from .errors import ConfigError, DecompositionDrift, DomainError, SolverError, UnderResolved
from .funcspace import GridSpec, SpectralFunction
from .kernel import ScalingKernel, fixed_point_profile
from .marginal import (
    amplitude_prefactor,
    critical_exponent,
    linear_profile,
    marginal_responses,
)
from .timechange import TimeChange

# split residual allowed in grid max norm, and mass allowed at omega = 0,
# per unit of the amplitude scale max(1, |A|) (_split_bound): the split
# adds terms of size |A|, so its rounding grows with |A|
SPLIT_TOL = 1e-9
MASS_TOL = 1e-10

TRACE_COLUMNS = (
    "n",
    "A_n",
    "g_norm",
    "nu_hat0",
    "beta_n",
    "w_norm",
    "theorem_error",
    "picard_iters",
)

REMAINDER_KINDS = ("zero", "odd-bump", "even-bump")


def initial_remainder(grid, kind, eps=0.0):
    """Build a starting remainder; every choice has ghat(0) = 0."""
    if kind == "zero":
        return fs.zero_function(grid)
    w = grid.omega
    if kind == "even-bump":
        return SpectralFunction(grid, eps * w**2 * np.exp(-(w**2)))
    if kind == "odd-bump":
        # imaginary odd spectrum keeps the physical field real; the node
        # -omega_max has no +omega_max partner, so on a coarse grid its
        # tiny imaginary value would make the field complex: keep its real part
        fhat = 1j * eps * w * np.exp(-(w**2))
        fhat[0] = fhat[0].real
        return SpectralFunction(grid, fhat)
    raise ConfigError(
        f"unknown remainder kind {kind!r}; choose one of {REMAINDER_KINDS}"
    )


def linear_rg_step(f, kernel, tc, n, L):
    """Evolve one block linearly at level n, then rescale space.

    Returns dilate(evolve(f, s_n(L)), L^((p+1)/d)).  Applied to the
    level-n reference profile this lands exactly on the level-(n+1)
    one, so the same map transports both pieces of the split.
    """
    evolved = fs.apply_multiplier(f, kernel, tc.block_elapsed(n, L, L))
    return fs.dilate(evolved, L ** ((tc.p + 1.0) / kernel.d))


@dataclass(frozen=True)
class FlowConfig:
    """Fully resolved flow description; validated on construction.

    The cross-field checks live here rather than in the CLI so that
    programmatic use hits the same guards: the scaling arithmetic must
    give an integer marginal power alpha_c below every perturbation
    power, couplings must satisfy |lambda| < mu, mu must be nonnegative
    unless explicitly overridden, and the initial remainder must be
    small against A0^alpha_c in the weighted norm.
    """

    kernel: ScalingKernel
    tc: TimeChange
    nonlinearity: Nonlinearity
    grid: GridSpec
    solver: SolverParams
    L: float = 2.0
    n_steps: int = 12
    A0: float = 0.05
    g0_kind: str = "zero"
    g0_eps: float = 0.0
    allow_negative_mu: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 1.0):
            raise ConfigError("block scale L must be finite and > 1")
        object.__setattr__(self, "L", float(self.L))
        if isinstance(self.n_steps, bool) or not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise ConfigError("n_steps must be an integer >= 1")
        if not (math.isfinite(self.A0) and self.A0 > 0.0):
            raise ConfigError("initial amplitude A0 must be finite and positive")
        object.__setattr__(self, "A0", float(self.A0))
        if not math.isfinite(self.g0_eps):
            raise ConfigError("g0_eps must be finite")
        try:
            self.nonlinearity.combined_coefficients(0, self.L, self.tc.p, self.kernel.d)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        mu = self.nonlinearity.mu
        lam = self.nonlinearity.lam
        if mu < 0.0 and not self.allow_negative_mu:
            raise ConfigError(
                "mu must be >= 0; pass the negative-mu override to explore "
                "blow-up regimes"
            )
        if lam != 0.0 and not abs(lam) < mu:
            raise ConfigError(
                f"need |lambda| < mu for the irrelevant couplings; got "
                f"|{lam}| vs {mu}"
            )
        g0 = initial_remainder(self.grid, self.g0_kind, self.g0_eps)
        g0_norm = fs.weighted_norm(g0, self.kernel.q)
        # compared in logs: A0^alpha_c can overflow or underflow a float
        if not (g0_norm == 0.0 or math.log(g0_norm) < self.alpha_c * math.log(self.A0)):
            raise ConfigError(
                f"need weighted_norm(g0) < A0^alpha_c; got {g0_norm:.6e} vs "
                f"{self.A0:.6e}^{self.alpha_c}"
            )

    @property
    def mu(self):
        return self.nonlinearity.mu

    @property
    def alpha_c(self):
        return critical_exponent(self.tc.p, self.kernel.d)


def initial_state(config):
    """Return (f0, A0, g0) assembled on the configured grid."""
    h0 = linear_profile(config.kernel, config.tc, 0, config.L, config.grid)
    g0 = initial_remainder(config.grid, config.g0_kind, config.g0_eps)
    return h0 * config.A0 + g0, config.A0, g0


@dataclass(frozen=True)
class StepDiagnostics:
    """Byproducts of one RG step, kept for trace rows and invariants.

    solution is the block's solve, which the next step's solve starts from
    and spends (BlockSolution).
    """

    correction: SpectralFunction
    correction_at_zero: float
    picard_iters: int
    picard_delta: float
    drift_in: float
    drift_out: float
    solution: BlockSolution


def _split_drift(f, amplitude, reference, remainder):
    gap = f.fhat - (amplitude * reference.fhat + remainder.fhat)
    return float(np.max(np.abs(gap)))


def _split_bound(tol, amplitude):
    return tol * max(1.0, abs(amplitude))


def rg_step(f, amplitude, remainder, kernel, tc, nl, n, L, params, workspace=None, start=None):
    """Advance the split one block: solve, correct, rescale.

    The amplitude absorbs the zero-frequency mass of the nonlinear
    correction; the remainder keeps everything else and stays
    mass-free.  Raises DecompositionDrift when the split residual or
    the remainder mass leaves tolerance (SPLIT_TOL, MASS_TOL times the
    amplitude scale max(1, |A|), with A_n entering the level and A_{n+1}
    leaving it), and propagates solver errors.
    workspace is the solver's working memory and start the solution of
    the level before (its diag.solution), both passed on to solve_block:
    with a start, the Picard iteration starts from the linear evolution
    plus that level's correction.
    """
    grid = f.grid
    here = linear_profile(kernel, tc, n, L, grid)
    drift_in = _split_drift(f, amplitude, here, remainder)
    bound = _split_bound(SPLIT_TOL, amplitude)
    if drift_in > bound:
        raise DecompositionDrift(
            f"split residual {drift_in:.3e} exceeds {bound:.1e} "
            f"entering level {n}"
        )
    sol = solve_block(f, kernel, tc, nl, n, L, params, workspace, start)
    block_end = sol.final
    linear_end = fs.apply_multiplier(f, kernel, tc.block_elapsed(n, L, L))
    correction = block_end - linear_end
    mass_shift = fs.eval_at_zero(correction).real
    scale = L ** ((tc.p + 1.0) / kernel.d)
    f_next = fs.dilate(block_end, scale)
    a_next = amplitude + mass_shift
    up = linear_profile(kernel, tc, n + 1, L, grid)
    g_next = (
        linear_rg_step(remainder, kernel, tc, n, L)
        + fs.dilate(correction, scale)
        - up * mass_shift
    )
    mass = abs(fs.eval_at_zero(g_next))
    bound = _split_bound(MASS_TOL, a_next)
    if mass > bound:
        raise DecompositionDrift(
            f"remainder mass {mass:.3e} exceeds {bound:.1e} "
            f"leaving level {n}"
        )
    drift_out = _split_drift(f_next, a_next, up, g_next)
    bound = _split_bound(SPLIT_TOL, a_next)
    if drift_out > bound:
        raise DecompositionDrift(
            f"split residual {drift_out:.3e} exceeds {bound:.1e} "
            f"leaving level {n}"
        )
    diag = StepDiagnostics(
        correction=correction,
        correction_at_zero=mass_shift,
        picard_iters=sol.iterations,
        picard_delta=sol.final_delta,
        drift_in=drift_in,
        drift_out=drift_out,
        solution=sol,
    )
    return f_next, a_next, g_next, diag


@dataclass
class FlowTrace:
    """Append-only history of one flow run.

    State lists carry one entry per recorded level (n = 0 upward);
    step lists carry one entry per completed block, so they stay one
    shorter than the state lists.  A run aborted by a solver failure
    leaves a shorter, still-consistent trace with completed False.
    """

    config: FlowConfig
    level: list = field(default_factory=list)
    amplitude: list = field(default_factory=list)
    g_norm: list = field(default_factory=list)
    theorem_gap: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    mass_shift: list = field(default_factory=list)
    decay_coeff: list = field(default_factory=list)
    w_norm: list = field(default_factory=list)
    picard_iters: list = field(default_factory=list)
    final_remainder: SpectralFunction | None = None
    completed: bool = False
    failure: str | None = None

    def profile(self, n):
        """The stored profile at level n."""
        return self.profiles[self.level.index(n)]

    @property
    def final_profile(self):
        return self.profiles[-1]


def theorem_trend(gaps):
    """The theorem gaps past the transient, and whether they fall strictly.

    The window is the finite gaps at levels n >= 5, once the irrelevant
    couplings have died out. Returns (window, decreasing), or None when
    fewer than two levels qualify: a flow too short to judge, or mu <= 0,
    where every gap is nan.
    """
    window = [g for g in gaps[5:] if not math.isnan(g)]
    if len(window) < 2:
        return None
    return window, all(a > b for a, b in zip(window, window[1:]))


def run_flow(config):
    """Iterate the RG map n_steps times and record the trace.

    Solver failures abort the run; the partial trace is returned with
    the failure message attached so callers can still write it out.
    Every block's solve works in one workspace (funcspace._Workspace),
    so blocks after the first allocate no scratch and, without a
    time-change remainder, take the first block's marginal response
    (marginal_responses); it is dropped
    when the run returns. Each block after the first starts its Picard
    iteration from the correction of the block before (solve_block's
    start), since successive blocks of a marginal flow are nearly
    self-similar, and takes that solution's rows as its iterate, so it
    allocates no stack either.
    """
    kernel, tc, nl = config.kernel, config.tc, config.nonlinearity
    grid, params, L = config.grid, config.solver, config.L
    q = kernel.q
    alpha = config.alpha_c
    mu = nl.mu
    f, amp, rem = initial_state(config)
    trace = FlowTrace(config=config)
    target = fixed_point_profile(kernel, tc.p, grid)
    prefac = amplitude_prefactor(kernel, tc.p, mu) if mu > 0.0 else math.nan

    def theorem_gap(profile, n):
        # meaningful only past n = 1 and for damped flows
        if n < 2 or not mu > 0.0:
            return math.nan
        stretch = (n * math.log(L)) ** ((tc.p + 1.0) / kernel.d)
        return fs.weighted_norm(profile * stretch - target * prefac, q)

    def record_state(n):
        trace.level.append(n)
        trace.amplitude.append(amp)
        trace.g_norm.append(fs.weighted_norm(rem, q))
        trace.theorem_gap.append(theorem_gap(f, n))
        trace.profiles.append(f)
        trace.final_remainder = rem

    record_state(0)
    workspace = fs._Workspace()
    responses = marginal_responses(range(config.n_steps), kernel, tc, L, grid, params.m)
    start = None
    for n in range(config.n_steps):
        previous_amp = amp
        try:
            response = next(responses)
            f, amp, rem, diag = rg_step(f, amp, rem, kernel, tc, nl, n, L, params, workspace, start)
        except (SolverError, DecompositionDrift, UnderResolved) as exc:
            trace.failure = f"level {n}: {exc}"
            return trace
        decay_coeff = response.at_zero.real
        residual = diag.correction
        if mu:  # a zero mu drops the term, whose A^alpha can overflow a float
            residual = residual + response * (mu * previous_amp**alpha)
        trace.mass_shift.append(diag.correction_at_zero)
        trace.decay_coeff.append(decay_coeff)
        trace.w_norm.append(fs.weighted_norm(residual, q))
        trace.picard_iters.append(diag.picard_iters)
        start = diag.solution
        record_state(n + 1)
        if not math.isfinite(amp):
            trace.failure = f"amplitude became non-finite after level {n}"
            return trace
    trace.completed = True
    return trace


def write_trace_csv(trace, path):
    """Write the run history; the column names are a stable contract."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for i, n in enumerate(trace.level):
            stepped = i < len(trace.mass_shift)
            writer.writerow(
                [
                    n,
                    repr(float(trace.amplitude[i])),
                    repr(float(trace.g_norm[i])),
                    repr(float(trace.mass_shift[i])) if stepped else "nan",
                    repr(float(trace.decay_coeff[i])) if stepped else "nan",
                    repr(float(trace.w_norm[i])) if stepped else "nan",
                    repr(float(trace.theorem_gap[i])),
                    trace.picard_iters[i] if stepped else 0,
                ]
            )


def trace_manifest(trace):
    """JSON-ready echo of the resolved configuration and run outcome."""
    return {
        "version": __version__,
        "completed": trace.completed,
        "failure": trace.failure,
        "rows": len(trace.level),
        "config": asdict(trace.config),
    }
