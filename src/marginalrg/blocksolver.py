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
exactly since E_i(0) = 1. The linear evolution u0 obeys the same
semigroup, so the recurrence started from the block's input row instead
of D_0 = 0 gives u0 + D itself: each Picard iterate is one recurrence.
"""

import dataclasses
import math

import numpy as np

from .errors import Divergence, DomainError, NoConvergence
from .funcspace import (  # noqa: F401
    SpectralFunction,
    weighted_norm,  # unused, kept bound: benchmarks/test_benchmark.py traces it here
    _Layout,
    _Workspace,
    _chunks,
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
    the first slice is the input spectrum as given. elapsed holds the
    elapsed times s_n(t_j) of the nodes, and correction_bound bounds the norm and the
    tail (_Layout.norm) of u - u0, the Picard correction to the linear
    evolution u0. A solve of the next block may start from that
    correction (solve_block's start), which spends the rows: no slice
    can be read after.
    """

    def __init__(
        self, layout, times, first, rows, iterations, final_delta,
        elapsed=None, correction_bound=(math.inf, math.inf),
    ):
        self.grid = layout.grid
        self.times = np.asarray(times, dtype=np.float64)
        self.elapsed = elapsed
        self.correction_bound = correction_bound
        self._layout = layout
        self._first = first
        self._rows = rows
        self.iterations = iterations
        self.final_delta = final_delta

    def _live_rows(self):
        if self._rows is None:
            raise DomainError("this block's rows were spent as a Picard start")
        return self._rows

    def _slice(self, i):
        row = self._first if i == 0 else self._layout.expand(self._live_rows()[i])
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
    # evaluated only when role's stack does not hold them already; the key
    # holds the row width, since computed does not check a held shape
    abs_pow = layout.abs_omega_pow(kernel.d)
    width = abs_pow.shape[-1]
    key = (kernel, layout.grid, width, t.tobytes())
    return work.computed(
        role, key, (t.shape[0], width), lambda out: kernel._multiplier_rows(abs_pow, t, out=out)
    )


def _step_multipliers(kernel, layout, elapsed, work):
    steps = np.diff(elapsed)
    if np.any(steps <= 0.0):
        raise DomainError("elapsed time must be strictly increasing")
    return _multiplier_stack(kernel, layout, steps, work, "steps")


def _linear_rows(first, kernel, layout, elapsed, work, out):
    """u0, the linear evolution of the input row first, written into out."""
    out[0] = first
    mult = _multiplier_stack(kernel, layout, elapsed[1:], work, "evolve")
    np.multiply(first, mult, out=out[1:])
    return out


def _duhamel_rows(integrand, emult, h, work, first):
    """Trapezoid Duhamel recurrence from the row first, in place.

    The integrand rows I_i become U_0 = first, U_i = E_i (U_{i-1} + (h/2)
    I_{i-1}) + (h/2) I_i: the sums D_i from a zero row, u0 + D from u0's
    first row. Two scratch rows hold the integrand row still needed and the
    sum being formed; h holds the per-interval steps, which may differ.
    """
    half = 0.5 * np.asarray(h, dtype=np.float64)
    prev = work.scratch(0, integrand.shape[1:])
    d = work.scratch(1, integrand.shape[1:])
    prev[:] = integrand[0]
    integrand[0] = first
    for i in range(1, integrand.shape[0]):
        # U_i = E_i (U_{i-1} + (h/2) I_{i-1}) + (h/2) I_i, operand for operand
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


def _tail(rows, layout, work):
    """The stack's tail alone (_Layout.tail), chunk by chunk: no derivative transform."""
    return float(np.max([layout.tail(rows[c], work) for c in _chunks(*rows.shape)]))


def _block_norm(rows, layout, q, work):
    """_norm_and_tail, warning once at the caller's line when under-resolved."""
    norm, tail = _norm_and_tail(rows, layout, q, work)
    _warn_if_under_resolved(tail, layout.grid)
    return norm, tail


def _start_rows(start, rows, u0, kernel, layout, work):
    """u0 + (u - u0 of start), formed in rows, the start's spent rows.

    start is the BlockSolution of the block before, on the same nodes.
    Its u0 is its first row times the multipliers of its elapsed times,
    taken in the "evolve" role once this block's u0 is formed: without a
    time-change remainder both blocks have the same elapsed times, and
    the stack holds them already.
    """
    first = rows[0]  # the start's input row, read by every chunk: written last
    prev = _multiplier_stack(kernel, layout, start.elapsed[1:], work, "evolve")

    def body(c):
        r = slice(max(c.start, 1), c.stop)
        old = np.multiply(first, prev[r.start - 1 : r.stop - 1], out=work.scratch(0, rows[r].shape))
        np.subtract(rows[r], old, out=rows[r])
        rows[r] += u0[r]

    _run_chunks(body, _chunks(*rows.shape))
    rows[0] = u0[0]
    return rows


def _picard_rows(f, kernel, times, elapsed, coeffs, params, work=None, start=None):
    """Shared Picard core; returns the BlockSolution on the nodes.

    The rows are held as half spectra (_Layout) for the whole solve.
    The iteration starts from u0, or, given start (the BlockSolution of
    the block before), from u0 plus that block's correction u - u0
    (_start_rows). Each iteration forms u_new as one Duhamel recurrence
    from the input row and transforms only the update u_new - u,
    whose norm is the convergence measure. The guard and the tail warning
    need the norm and tail of u_new itself, and the triangle inequality
    bounds them by those of u plus those of the update: starting from the
    exact values of u0 plus the start's correction_bound, each iteration
    adds the update's. When the norm bound comes within _BOUND_SLACK of
    the guard, the iteration evaluates u_new's norm and tail afresh (one
    more derivative transform), compares those, and carries them on as
    the bounds; when only the tail bound comes within _BOUND_SLACK of
    tail_tol, it evaluates the tail alone. So a converging solve makes
    one derivative transform per iteration, and Divergence reports an
    exact norm. The sums of the update bounds, or the iterate's bounds
    plus u0's where smaller, bound the solution's correction.

    The stacks and the chunk scratch come from work (a funcspace
    _Workspace; a new one when None): u0's multipliers, needed only until
    u0 is formed, the step multipliers and two iterate stacks that trade
    places, each iteration's integrand becoming its new iterate in the
    stack the iterate before last held. u0 is formed in one iterate; a
    start, in its spent rows as the other. So a solve on mapped stacks
    holds three at a time. The multiplier stacks are evaluated only where
    work does not hold them for the same kernel, grid, row width and
    times (_Workspace.computed). The stack that ends as the solution's
    rows is handed over to it.
    """
    work = _Workspace() if work is None else work
    layout = _Layout(f.grid)
    h = np.diff(np.asarray(times, dtype=np.float64))
    first = layout.rows(f.fhat)
    shape = (elapsed.shape[0], first.shape[-1])
    spent = None
    if start is not None:
        spent = start._live_rows()
        if spent.shape != shape:
            raise DomainError("a Picard start must come from a block on the same grid and nodes")
        start._rows = None
        work.hand_over(spent, None)
    u0 = work.stack("iterate1", shape)
    if u0 is spent:  # the start's rows held that role
        u0 = work.stack("iterate2", shape)
    _linear_rows(first, kernel, layout, elapsed, work, u0)
    guard = params.norm_guard
    if guard is not None:
        f_norm, _ = _block_norm(u0[:1], layout, kernel.q, work)
        if not f_norm <= guard:
            raise Divergence(0, f_norm, guard)
    u0_norm, u0_tail = _block_norm(u0, layout, kernel.q, work)
    if guard is None:
        guard = 10.0 * u0_norm
    if not coeffs:
        return _solution(work, layout, times, elapsed, f.fhat, u0, 1, 0.0, (0.0, 0.0))
    norm_room = (1.0 - _BOUND_SLACK) * guard
    tail_room = (1.0 - _BOUND_SLACK) * f.grid.tail_tol
    if start is None:
        u, spare = u0, work.stack("iterate2", shape)
        corr_norm, corr_tail = 0.0, 0.0
    else:
        u, spare = _start_rows(start, spent, u0, kernel, layout, work), u0
        corr_norm, corr_tail = start.correction_bound
    norm_bound, tail_bound = u0_norm + corr_norm, u0_tail + corr_tail
    emult = _step_multipliers(kernel, layout, elapsed, work)
    delta = math.inf
    step_norms = np.empty(shape[0])
    step_tails = np.empty(shape[0])

    def update(c):
        # the norm and tail of the update on chunk c
        step = np.subtract(u_new[c], u[c], out=work.scratch(0, u[c].shape))
        dstep = layout.deriv(step, work.scratch(1, step.shape), work)
        _, step_tails[c] = layout.norm(step, dstep, kernel.q, step_norms[c], work)

    for it in range(1, params.picard_max + 1):
        u_new = layout.power(u, coeffs, spare, work)
        _duhamel_rows(u_new, emult, h, work, first)
        _run_chunks(update, _chunks(*shape))
        delta = float(np.max(step_norms))
        step_tail = float(np.max(step_tails))
        norm_bound += delta
        tail_bound += step_tail
        corr_norm += delta
        corr_tail += step_tail
        if not norm_bound <= norm_room:  # NaN fails
            norm_bound, tail_bound = _norm_and_tail(u_new, layout, kernel.q, work)
        elif not tail_bound <= tail_room:
            tail_bound = _tail(u_new, layout, work)
        _warn_if_under_resolved(np.maximum(step_tail, tail_bound), layout.grid)  # NaN wins
        if not norm_bound <= guard:
            raise Divergence(it, norm_bound, guard)
        spare, u = u, u_new
        if delta < params.picard_tol:
            bound = (min(corr_norm, norm_bound + u0_norm), min(corr_tail, tail_bound + u0_tail))
            return _solution(work, layout, times, elapsed, f.fhat, u, it, delta, bound)
    raise NoConvergence(params.picard_max, delta, params.picard_tol)


def _solution(work, layout, times, elapsed, first, rows, iterations, final_delta, bound):
    sol = BlockSolution(layout, times, first, rows, iterations, final_delta, elapsed, bound)
    work.hand_over(rows, sol)
    return sol


def solve_block(f, kernel, tc, nl, n, L, params, workspace=None, start=None):
    """Picard-solve the block-n equation starting from the linear evolution.

    Iterates u <- u0 + Duhamel(F-terms of u) until the block norm of the
    update falls below picard_tol. Raises NoConvergence when picard_max is
    exhausted and Divergence when the block norm passes the guard
    (default: 10x the linear block norm) or is NaN. workspace is the
    working memory a caller solving many blocks passes to each
    (funcspace._Workspace); without one the solve allocates its own.
    start, the solution of the block before on the same grid and m, makes
    the iteration start from u0 plus that block's correction u - u0
    instead of from u0, and spends it (BlockSolution).
    """
    times, elapsed = _block_nodes(tc, n, L, params.m)
    coeffs = nl.combined_coefficients(n, L, tc.p, kernel.d)
    return _picard_rows(f, kernel, times, elapsed, coeffs, params, workspace, start)


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
