"""One-block solver for the renormalized integral equation.

On block n the unknown satisfies u = u0 - M(u) + N(u), where u0 is the
linear evolution of the block's initial data, M is the damping Duhamel
term built from u^alpha_c, and N collects the scaled higher-power terms.
The solver iterates this map on the whole space-time grid at once (Picard
iteration), which keeps failure modes aligned with the contraction-mapping
construction it mirrors: leaving the contraction regime shows up as
Divergence, a too-slow contraction as NoConvergence.

Duhamel integrals use composite trapezoid weights in tau. The accumulation
exploits the multiplier semigroup: with E_i the one-substep multiplier,

    D_i = E_i (D_{i-1} + (h/2) I_{i-1}) + (h/2) I_i,   D_0 = 0,

which reproduces the trapezoid sum exactly while evaluating O(m)
multipliers instead of O(m^2), and preserves the omega = 0 mass identity
exactly since E_i(0) = 1.
"""

import dataclasses
import math

import numpy as np

from .errors import Divergence, DomainError, NoConvergence
from .funcspace import (  # noqa: F401
    SpectralFunction,
    weighted_norm,  # unused, kept bound: benchmarks/test_benchmark.py traces it here
    _Workspace,
    _chunks,
    _layout_of,
    _run_chunks,
    _warn_if_under_resolved,
)
from .marginal import critical_exponent

__all__ = [
    "Nonlinearity",
    "SolverParams",
    "BlockSolution",
    "solve_block",
    "block_to_csv",
]

@dataclasses.dataclass(frozen=True)
class Nonlinearity:
    """F(u) = -mu u^{alpha_c} + lam sum_j a_j u^j.

    The marginal power alpha_c = (p+1+d)/(p+1) is fixed by the time change
    and the kernel, so it is derived where the block is known, never held.
    terms lists the higher powers as (j, a_j) pairs, each with j > alpha_c;
    their block-n couplings decay geometrically in n, which is what makes
    them irrelevant to the flow.
    """

    mu: float
    lam: float = 0.0
    terms: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not math.isfinite(self.lam):
            raise DomainError(f"lambda must be finite, got {self.lam}")
        terms = tuple((int(j), float(a)) for j, a in self.terms)
        object.__setattr__(self, "terms", terms)
        seen = set()
        for j, a in terms:
            if j in seen:
                raise DomainError(f"duplicate perturbation power {j}")
            if not math.isfinite(a):
                raise DomainError(f"coefficient of u^{j} must be finite, got {a}")
            seen.add(j)
        if self.lam != 0.0 and not terms:
            raise DomainError("lambda != 0 requires at least one perturbation term")

    def combined_coefficients(self, n, L, p, d):
        """{power: coefficient} of the block-n Duhamel integrand.

        The integrand is -mu u^{alpha_c} + lam sum_j a_j
        L^{-n (j - alpha_c)(p+1)/d} u^j, with alpha_c from
        critical_exponent(p, d); the per-term scale absorbs both the
        coupling decay and the term rescaling factors. Raises DomainError
        when a term power does not exceed alpha_c.
        """
        alpha_c = critical_exponent(p, d)
        coeffs = {alpha_c: -self.mu} if self.mu != 0.0 else {}
        lnl = math.log(L)
        for j, a in self.terms:
            if j <= alpha_c:
                raise DomainError(
                    f"perturbation power {j} must exceed the critical power {alpha_c}"
                )
            c = self.lam * a * math.exp(-n * (j - alpha_c) * (p + 1.0) / d * lnl)
            if c != 0.0:
                coeffs[j] = c
        return coeffs


@dataclasses.dataclass(frozen=True)
class SolverParams:
    m: int = 64
    picard_tol: float = 1e-10
    picard_max: int = 50
    norm_guard: float | None = None

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 8:
            raise DomainError(f"m must be an integer >= 8, got {self.m}")
        if not (self.picard_tol > 0):
            raise DomainError(f"picard_tol must be positive, got {self.picard_tol}")
        if not isinstance(self.picard_max, (int, np.integer)) or self.picard_max < 1:
            raise DomainError(f"picard_max must be >= 1, got {self.picard_max}")
        if self.norm_guard is not None and not (self.norm_guard > 0):
            raise DomainError(f"norm_guard must be positive, got {self.norm_guard}")


class BlockSolution:
    """Solution slices u(., t_j) on the block's time nodes.

    The rows stay in the solver's layout (the half spectra of a real
    field); a slice on the sorted axis is built only when asked for, and
    the first slice is the input spectrum as given.
    """

    def __init__(self, layout, times, first, rows, iterations, final_delta):
        self.grid = layout.grid
        self.times = np.asarray(times, dtype=np.float64)
        self._layout = layout
        self._first = first
        self._rows = rows
        self.iterations = iterations
        self.final_delta = final_delta

    def _slice(self, i):
        row = self._first if i == 0 else self._layout.expand(self._rows[i])
        return SpectralFunction(self.grid, row)

    @property
    def slices(self):
        return [self._slice(i) for i in range(self.times.shape[0])]

    @property
    def final(self):
        return self._slice(self.times.shape[0] - 1)

    def slice_at(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"no time node at t = {t}; nearest is {self.times[i]}")
        return self._slice(i)


def _block_nodes(tc, n, L, m):
    times = np.linspace(1.0, float(L), m + 1)
    elapsed = np.asarray(tc.block_elapsed(n, L, times), dtype=np.float64)
    elapsed[0] = 0.0
    return times, elapsed


def _multiplier_stack(kernel, layout, t, work, role):
    abs_pow = layout.abs_omega_pow(kernel.d)
    out = work.stack(role, (t.shape[0], abs_pow.shape[-1]), np.float64)
    return kernel._multiplier_rows(abs_pow, t, out=out)


def _step_multipliers(kernel, layout, elapsed, work):
    steps = np.diff(elapsed)
    if np.any(steps <= 0.0):
        raise DomainError("elapsed time must be strictly increasing")
    return _multiplier_stack(kernel, layout, steps, work, "steps")


def _linear_rows(f, kernel, layout, elapsed, work):
    row = layout.rows(f.fhat)
    rows = work.stack("linear", (elapsed.shape[0], row.shape[-1]))
    rows[0] = row
    mult = _multiplier_stack(kernel, layout, elapsed[1:], work, "evolve")
    np.multiply(row, mult, out=rows[1:])
    return rows


def _duhamel_rows(integrand, emult, h, work):
    """Trapezoid Duhamel sums D_i via the semigroup recurrence, in place.

    The integrand rows are overwritten by D; two scratch rows hold the
    integrand row the next step still needs and the sum being formed. h
    holds the per-interval time steps, so non-uniform node sets (stacked
    sub-blocks) accumulate with the same exact algebra.
    """
    half = 0.5 * np.asarray(h, dtype=np.float64)
    prev = work.scratch(0, integrand.shape[1:])
    d = work.scratch(1, integrand.shape[1:])
    prev[:] = integrand[0]
    integrand[0] = 0.0
    for i in range(1, integrand.shape[0]):
        # D_i = E_i (D_{i-1} + (h/2) I_{i-1}) + (h/2) I_i, operand for operand
        np.multiply(half[i - 1], prev, out=d)
        np.add(integrand[i - 1], d, out=d)
        np.multiply(emult[i - 1], d, out=d)
        d += np.multiply(half[i - 1], integrand[i], out=prev)
        prev[:] = integrand[i]
        integrand[i] = d
    return integrand


# Relative margin by which a Picard bound must stay below its limit (the
# guard, tail_tol) to stand for the exact value: the bounds add norms
# computed in floating point, for which the triangle inequality holds only
# up to rounding of order eps log N (1 + omega_max^q) relative to the norm,
# once per iteration.
_BOUND_SLACK = 1e-6


def _norm_and_tail(rows, layout, q, work):
    """sup over rows of the weighted norm, and the stack's tail (_Layout.norm)."""
    norms = np.empty(rows.shape[0])
    tails = np.empty(rows.shape[0])

    def body(c):
        d = layout.deriv(rows[c], work.scratch(1, rows[c].shape), work)
        _, tails[c] = layout.norm(rows[c], d, q, norms[c], work)

    _run_chunks(body, _chunks(*rows.shape))
    return float(np.max(norms)), float(np.max(tails))


def _block_norm(rows, layout, q, work):
    """_norm_and_tail, warning once at the caller's line when under-resolved."""
    norm, tail = _norm_and_tail(rows, layout, q, work)
    _warn_if_under_resolved(tail, layout.grid)
    return norm, tail


def _picard_rows(f, kernel, times, elapsed, coeffs, params, work=None):
    """Shared Picard core; returns the BlockSolution on the nodes.

    The rows are held in one layout for the whole solve, chosen once from
    f: the half spectra of a real field, else the full sorted axis.
    Each iteration transforms only the update u_new - u, whose norm is the
    convergence measure. The guard and the tail warning need the norm and
    tail of u_new itself, and the triangle inequality bounds them by those
    of u plus those of the update: starting from the exact values of u0,
    each iteration adds the update's. Only when a bound comes within
    _BOUND_SLACK of the guard or of tail_tol does the iteration evaluate
    u_new's norm and tail afresh (one more derivative transform), compare
    those, and carry them on as the bounds. So a converging solve makes
    one derivative transform per iteration, and Divergence reports an
    exact norm.

    The stacks and the chunk scratch come from work (a funcspace
    _Workspace; a new one when None): u0 and its multipliers, the step
    multipliers and two iterate stacks that trade places, each
    iteration's integrand becoming its Duhamel sum and then its new
    iterate in the stack the iterate before last held. u0's multipliers
    are needed only until u0 is formed, so a solve on mapped stacks holds
    four at a time. The stack that ends as the solution's rows is handed
    over to it.
    """
    work = _Workspace() if work is None else work
    layout = _layout_of(f.fhat, f.grid)
    h = np.diff(np.asarray(times, dtype=np.float64))
    u0 = _linear_rows(f, kernel, layout, elapsed, work)
    guard = params.norm_guard
    if guard is not None:
        f_norm, _ = _block_norm(u0[:1], layout, kernel.q, work)
        if not f_norm <= guard:
            raise Divergence(0, f_norm, guard)
    norm_bound, tail_bound = _block_norm(u0, layout, kernel.q, work)
    if guard is None:
        guard = 10.0 * norm_bound
    if not coeffs:
        return _solution(work, layout, times, f.fhat, u0, 1, 0.0)
    norm_room = (1.0 - _BOUND_SLACK) * guard
    tail_room = (1.0 - _BOUND_SLACK) * f.grid.tail_tol
    emult = _step_multipliers(kernel, layout, elapsed, work)
    u, spare = u0, None
    delta = math.inf
    step_norms = np.empty(u0.shape[0])
    step_tails = np.empty(u0.shape[0])

    def update(c):
        # the norm and tail of the update on chunk c
        step = np.subtract(u_new[c], u[c], out=work.scratch(0, u0[c].shape))
        dstep = layout.deriv(step, work.scratch(1, step.shape), work)
        _, step_tails[c] = layout.norm(step, dstep, kernel.q, step_norms[c], work)

    for it in range(1, params.picard_max + 1):
        if spare is None:
            spare = work.stack(f"iterate{it}", u0.shape)
        u_new = layout.power(u, coeffs, spare, work)
        _duhamel_rows(u_new, emult, h, work)
        u_new += u0
        _run_chunks(update, _chunks(*u0.shape))
        delta = float(np.max(step_norms))
        step_tail = float(np.max(step_tails))
        norm_bound += delta
        tail_bound += step_tail
        if not (norm_bound <= norm_room and tail_bound <= tail_room):  # NaN fails
            norm_bound, tail_bound = _norm_and_tail(u_new, layout, kernel.q, work)
        _warn_if_under_resolved(np.maximum(step_tail, tail_bound), layout.grid)  # NaN wins
        if not norm_bound <= guard:
            raise Divergence(it, norm_bound, guard)
        spare = None if u is u0 else u
        u = u_new
        if delta < params.picard_tol:
            return _solution(work, layout, times, f.fhat, u, it, delta)
    raise NoConvergence(params.picard_max, delta, params.picard_tol)


def _solution(work, layout, times, first, rows, iterations, final_delta):
    sol = BlockSolution(layout, times, first, rows, iterations, final_delta)
    work.hand_over(rows, sol)
    return sol


def solve_block(f, kernel, tc, nl, n, L, params, workspace=None):
    """Picard-solve the block-n equation starting from the linear evolution.

    Iterates u <- u0 + Duhamel(F-terms of u) until the block norm of the
    update falls below picard_tol. Raises NoConvergence when picard_max is
    exhausted and Divergence when the block norm passes the guard
    (default: 10x the linear block norm) or is NaN. workspace is the
    working memory a caller solving many blocks passes to each
    (funcspace._Workspace); without one the solve allocates its own.
    """
    times, elapsed = _block_nodes(tc, n, L, params.m)
    coeffs = nl.combined_coefficients(n, L, tc.p, kernel.d)
    return _picard_rows(f, kernel, times, elapsed, coeffs, params, workspace)


def block_to_csv(sol, path, times=None):
    """Write slices as CSV rows (t, omega, re_fhat, im_fhat).

    times selects a subset of nodes (each must match a node); default all.
    """
    picks = sol.times if times is None else times
    omega = sol.grid.omega
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,omega,re_fhat,im_fhat\n")
        for t in picks:
            s = sol.slice_at(float(t))
            for w, v in zip(omega, s.fhat):
                fh.write(
                    f"{float(t)!r},{float(w)!r},{float(v.real)!r},{float(v.imag)!r}\n"
                )
