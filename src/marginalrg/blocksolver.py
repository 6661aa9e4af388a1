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
Row i of the recurrence reads only the rows up to i, and the update
u_new - u is row-local, so an iteration is one sweep over chunks of rows
that rewrites the iterate in place: the integrand and the update's norm
of different chunks run on different threads, and the recurrence runs
chunk after chunk in row order, carrying its last two rows across. The
iteration's start, u0 (plus the correction of the block before, in a warm
start), is formed by one chunked pass too, which also takes u0's norm.
"""

import collections.abc
import contextlib
import dataclasses
import math
import operator

import numpy as np

from .errors import Divergence, DomainError, NoConvergence
from .funcspace import (
    SpectralFunction,
    weighted_norm,
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
    field); a slice on the sorted axis is built only when asked for
    (slices builds one per index or iteration step), and the first slice
    is the input spectrum as given. elapsed holds the elapsed times
    s_n(t_j) of the nodes, and correction_bound bounds the norm and the
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
        """The slices as a read-only sequence, each built when indexed."""
        return _Slices(self)

    @property
    def final(self):
        return self._slice(self.times.shape[0] - 1)

    def slice_at(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"no time node at t = {t}; nearest is {self.times[i]}")
        return self._slice(i)


class _Slices(collections.abc.Sequence):
    """BlockSolution.slices: one slice per time node, built on each access
    and not kept, so iterating holds one sorted slice at a time."""

    __slots__ = ("_sol",)

    def __init__(self, sol):
        self._sol = sol

    def __len__(self):
        return self._sol.times.shape[0]

    def __getitem__(self, i):
        i = operator.index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"slice index {i} out of range for {n} time nodes")
        return self._sol._slice(i % n)


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


def _linear_chunk(first, mult, c, out):
    """u0 on the rows c of a stack, into out: the input row first on row 0,
    first times the "evolve" multipliers mult of the elapsed times after."""
    lo = max(c.start, 1)
    out[: lo - c.start] = first
    np.multiply(first, mult[lo - 1 : c.stop - 1], out=out[lo - c.start :])
    return out


def _duhamel_rows(rows, start, emult, h, carry, first, work, turn=contextlib.nullcontext()):
    """Trapezoid Duhamel recurrence on the rows start.. of a stack, in place.

    The integrand rows I_i become U_0 = first, U_i = E_i (U_{i-1} + (h/2)
    I_{i-1}) + (h/2) I_i: the sums D_i from a zero row, u0 + D from u0's
    first row. emult and h hold the whole stack's step multipliers and
    per-interval steps, which may differ. Both halves of each interval's
    weight, (h/2) I_{i-1} and (h/2) I_i, are formed for the whole chunk
    first, in work's slots 0 and 1; only the sum runs row after row, in
    the context turn (a _run_chunks turn, so that chunks run it in row
    order). carry, two rows, holds (h/2) I and U of the row before the
    first (unread when start is 0) and is left holding those of the last,
    so consecutive chunks give the whole stack's recurrence, bit for bit.
    """
    k, last = rows.shape[0], h.shape[0]  # last: the stack's last row
    # complex weights, as numpy makes of a real scalar factor: the same
    # bits, without casting a real column element by element
    half = (0.5 * h[max(start - 1, 0) : start + k]).astype(np.complex128)[:, np.newaxis]
    # fore[j]: the row's half of the interval after it, aft[j]: of the one before
    fore = work.scratch(0, rows.shape)[: min(k, last - start)]
    np.multiply(half[start > 0 :][: len(fore)], rows[: len(fore)], out=fore)
    lo = 1 if start == 0 else 0
    aft = work.scratch(1, rows.shape)
    np.multiply(half[: k - lo], rows[lo:], out=aft[lo:])
    with turn:
        if start == 0:
            rows[0] = first
        for j in range(lo, k):
            u, p = (rows[j - 1], fore[j - 1]) if j else (carry[1], carry[0])
            # U_i = E_i (U_{i-1} + (h/2) I_{i-1}) + (h/2) I_i, operand for operand
            np.add(u, p, out=rows[j])
            np.multiply(emult[start + j - 1], rows[j], out=rows[j])
            rows[j] += aft[j]
        carry[1] = rows[-1]
        if len(fore) == k:
            carry[0] = fore[-1]
    return rows


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


def _start_rows(rows, first, kernel, layout, elapsed, q, work, start=None):
    """u0, the linear evolution of the input row first, formed in rows.

    One chunked pass forms each chunk of u0 and takes its norm and tail;
    returns u0's norm and tail, warning once at the caller's line when
    under-resolved. Without start u0 is written into rows. start is the
    BlockSolution of the block before, on the same nodes; rows are its
    spent rows, and they become u0 + (u - u0 of start): each chunk of u0
    is formed in scratch and added once start's u0, its first row times
    the multipliers of its elapsed times, is taken off. Without a
    time-change remainder the two blocks' elapsed times are equal and one
    multiplier stack serves both; otherwise a pass before takes start's
    u0 off with its own, so that the two multiplier stacks are never held
    together.
    """
    old_first = rows[0]  # start's input row, read by every chunk: written last
    chunks = _chunks(*rows.shape)
    norms = np.empty(rows.shape[0])
    tails = np.empty(rows.shape[0])

    def take_off(c, prev):
        r = slice(max(c.start, 1), c.stop)
        old = np.multiply(old_first, prev[r.start - 1 : r.stop - 1], out=work.scratch(1, rows[r].shape))
        np.subtract(rows[r], old, out=rows[r])

    same = start is None or np.array_equal(start.elapsed, elapsed)
    if not same:
        prev = _multiplier_stack(kernel, layout, start.elapsed[1:], work, "evolve")
        _run_chunks(lambda c: take_off(c, prev), chunks)
        del prev
    mult = _multiplier_stack(kernel, layout, elapsed[1:], work, "evolve")

    def body(c):
        out = rows[c] if start is None else work.scratch(0, rows[c].shape)
        u0 = _linear_chunk(first, mult, c, out)
        d = layout.deriv(u0, work.scratch(1, u0.shape), work)
        _, tails[c] = layout.norm(u0, d, q, norms[c], work)
        if start is not None:
            if same:
                take_off(c, mult)
            lo = max(c.start, 1)
            rows[lo : c.stop] += u0[lo - c.start :]

    _run_chunks(body, chunks)
    rows[0] = first
    tail = float(np.max(tails))
    _warn_if_under_resolved(tail, layout.grid)
    return float(np.max(norms)), tail


def _picard_rows(f, kernel, times, elapsed, coeffs, params, work=None, start=None):
    """Shared Picard core; returns the BlockSolution on the nodes.

    The rows are held as half spectra (_Layout) in one iterate stack for
    the whole solve. The iteration starts from u0, or, given start (the
    BlockSolution of the block before), from u0 plus that block's
    correction u - u0, formed in its spent rows; either start is one
    chunked pass that also takes u0's norm and tail (_start_rows). Each
    iteration is one ordered sweep over the stack's chunks
    (_run_chunks): a chunk's integrand is formed in scratch, becomes its
    rows of u_new by the Duhamel recurrence from the input row, carried
    across chunks in row order, and only the update u_new - u is
    transformed, against the old rows, before u_new is written over them.
    The update's norm is the convergence measure. The guard and the tail
    warning need the norm and tail of u_new itself, and the triangle
    inequality bounds them by those of u plus those of the update:
    starting from the exact values of u0 plus the start's
    correction_bound, each iteration adds the update's. When the norm
    bound comes within _BOUND_SLACK of the guard, or the tail bound
    within _BOUND_SLACK of tail_tol, the iteration evaluates u_new's norm
    and tail afresh (one more derivative transform), compares those, and
    carries them on as the bounds. So a converging, resolved solve makes
    one derivative transform per iteration, and Divergence reports an
    exact norm. The sums of the update bounds, or the iterate's bounds
    plus u0's where smaller, bound the solution's correction.

    The stacks and the chunk scratch come from work (a funcspace
    _Workspace; a new one when None): u0's multipliers ("evolve"), needed
    only until u0 is formed, the step multipliers ("steps") and the
    iterate ("iterate"), which a warm solve takes from the start's spent
    rows instead. So a solve on mapped stacks holds two at a time. The
    multiplier stacks are evaluated only where work does not hold them
    for the same kernel, grid, row width and times (_Workspace.computed).
    The iterate stack ends as the solution's rows and is handed over to
    it.
    """
    work = _Workspace() if work is None else work
    layout = _Layout(f.grid)
    h = np.diff(np.asarray(times, dtype=np.float64))
    first = layout.rows(f.fhat)
    shape = (elapsed.shape[0], first.shape[-1])
    guard = params.norm_guard
    if guard is not None:
        f_norm = weighted_norm(f, kernel.q)
        if not f_norm <= guard:
            raise Divergence(0, f_norm, guard)
    if start is None:
        u, corr_norm, corr_tail = work.stack("iterate", shape), 0.0, 0.0
    else:
        u = start._live_rows()
        if u.shape != shape or start.grid != f.grid:
            raise DomainError("a Picard start must come from a block on the same grid and nodes")
        start._rows = None
        work.hand_over(u, None)
        corr_norm, corr_tail = start.correction_bound
    spent = start if coeffs else None  # a linear solve writes u0 over the start's rows
    u0_norm, u0_tail = _start_rows(u, first, kernel, layout, elapsed, kernel.q, work, spent)
    if guard is None:
        guard = 10.0 * u0_norm
    if not coeffs:
        return _solution(work, layout, times, elapsed, f.fhat, u, 1, 0.0, (0.0, 0.0))
    norm_room = (1.0 - _BOUND_SLACK) * guard
    tail_room = (1.0 - _BOUND_SLACK) * f.grid.tail_tol
    norm_bound, tail_bound = u0_norm + corr_norm, u0_tail + corr_tail
    emult = _step_multipliers(kernel, layout, elapsed, work)
    carry = np.empty((2, shape[1]), np.complex128)
    delta = math.inf
    step_norms = np.empty(shape[0])
    step_tails = np.empty(shape[0])

    def sweep(c, turn):
        # slot 3 holds the chunk's integrand, then its rows of u_new; the
        # update goes into slot 0, its derivative into slot 1
        new = layout.power_chunk(u[c], coeffs, work.scratch(3, u[c].shape), work)
        _duhamel_rows(new, c.start, emult, h, carry, first, work, turn)
        step = np.subtract(new, u[c], out=work.scratch(0, new.shape))
        u[c] = new
        dstep = layout.deriv(step, work.scratch(1, step.shape), work)
        _, step_tails[c] = layout.norm(step, dstep, kernel.q, step_norms[c], work)

    for it in range(1, params.picard_max + 1):
        _run_chunks(sweep, _chunks(*shape), ordered=True)
        delta = float(np.max(step_norms))
        step_tail = float(np.max(step_tails))
        norm_bound += delta
        tail_bound += step_tail
        corr_norm += delta
        corr_tail += step_tail
        if not (norm_bound <= norm_room and tail_bound <= tail_room):  # NaN fails
            norm_bound, tail_bound = _norm_and_tail(u, layout, kernel.q, work)
        _warn_if_under_resolved(np.maximum(step_tail, tail_bound), layout.grid)  # NaN wins
        if not norm_bound <= guard:
            raise Divergence(it, norm_bound, guard)
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
