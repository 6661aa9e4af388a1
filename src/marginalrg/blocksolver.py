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

from . import funcspace
from .errors import Divergence, DomainError, NoConvergence
from .funcspace import (
    SpectralFunction,
    weighted_norm,
    _Layout,
    _Workspace,
    _chunks,
    _run_chunks,
    _tail_limit,
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
        terms = tuple((_term_power(j, a), float(a)) for j, a in self.terms)
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


def _term_power(j, a):
    # an integral power, 3.0 read as 3; a bool, a string or 3.5 is refused,
    # never truncated
    integral = isinstance(j, (int, np.integer)) and not isinstance(j, bool)
    if not (integral or (isinstance(j, (float, np.floating)) and float(j).is_integer())):
        raise DomainError(f"perturbation power of term ({j!r}, {a!r}) must be an integer")
    return int(j)


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
        if (
            isinstance(self.picard_max, bool)
            or not isinstance(self.picard_max, (int, np.integer))
            or self.picard_max < 1
        ):
            raise DomainError(f"picard_max must be an integer >= 1, got {self.picard_max!r}")
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


def _duhamel_rows(rows, start, emult, h, carry, first, work, turn=contextlib.nullcontext()):
    """Trapezoid Duhamel recurrence on the rows start.. of a stack, in place.

    The integrand rows I_i become U_0 = first, U_i = E_i (U_{i-1} + (h/2)
    I_{i-1}) + (h/2) I_i: the sums D_i from a zero row, u0 + D from u0's
    first row. emult holds the step multipliers E_i of the chunk's rows i
    from max(start, 1) on, and h the whole stack's per-interval steps,
    which may differ. Both halves of each interval's weight, (h/2)
    I_{i-1} and (h/2) I_i, are formed for the whole chunk first, in
    work's slots 0 and 1; only the sum runs row after row, in
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
            np.multiply(emult[j - lo], rows[j], out=rows[j])
            rows[j] += aft[j]
        carry[1] = rows[-1]
        if len(fore) == k:
            carry[0] = fore[-1]
    return rows


# Relative margin by which a Picard bound must stay below its limit (the
# guard, the tail limit) to stand for the exact value: the bounds add norms
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


def _row_multipliers(kernel, layout, t, c, work):
    """exp(-kappa t_i |omega|^d) for the rows i of chunk c after row 0, in
    work's slot 2: a chunk's multipliers, evaluated where they are read."""
    lo = max(c.start, 1)
    abs_pow = layout.abs_omega_pow(kernel.d)
    out = work.scratch(2, (c.stop - lo, abs_pow.shape[-1]), np.float64)
    return kernel._multiplier_rows(abs_pow, t[lo : c.stop], out=out)


def _start_rows(rows, first, kernel, layout, elapsed, q, work, start=None):
    """u0, the linear evolution of the input row first, formed in rows.

    One chunked pass forms each chunk of u0, first times the multipliers
    of its elapsed times (_row_multipliers), and takes its norm and tail;
    returns u0's norm and tail, warning once at the caller's line when
    under-resolved (a tail above the _tail_limit of first). Without start
    u0 is written into rows. start is the BlockSolution of the block
    before, on the same nodes; rows are its spent rows, and they become
    u0 + (u - u0 of start): each chunk takes start's u0, its first row
    times the multipliers of its elapsed times, off its rows and adds its
    own u0, formed in scratch. Without a time-change remainder the two
    blocks' elapsed times are equal and one evaluation serves both;
    otherwise the chunk evaluates start's multipliers first, in the same
    slot, and its own once start's u0 is off.
    """
    old_first = rows[0]  # start's input row, read by every chunk: written last
    norms = np.empty(rows.shape[0])
    tails = np.empty(rows.shape[0])
    same = start is None or np.array_equal(start.elapsed, elapsed)

    def body(c):
        lo = max(c.start, 1)
        mult = _row_multipliers(kernel, layout, elapsed if same else start.elapsed, c, work)
        if start is not None:
            old = np.multiply(old_first, mult, out=work.scratch(1, mult.shape))
            np.subtract(rows[lo : c.stop], old, out=rows[lo : c.stop])
            if not same:
                mult = _row_multipliers(kernel, layout, elapsed, c, work)
        u0 = rows[c] if start is None else work.scratch(0, rows[c].shape)
        u0[: lo - c.start] = first
        np.multiply(first, mult, out=u0[lo - c.start :])
        d = layout.deriv(u0, work.scratch(1, u0.shape), work)
        _, tails[c] = layout.norm(u0, d, q, norms[c], work)
        if start is not None:
            rows[lo : c.stop] += u0[lo - c.start :]

    _run_chunks(body, _chunks(*rows.shape))
    rows[0] = first
    tail = float(np.max(tails))
    _warn_if_under_resolved(tail, _tail_limit(layout.grid, first))
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
    within _BOUND_SLACK of the input row's _tail_limit, the iteration
    evaluates u_new's norm and tail afresh (one more derivative
    transform), compares those, and carries them on as the bounds. So a
    converging, resolved solve makes one derivative transform per
    iteration, and Divergence reports an exact norm. The sums of the
    update bounds, or the iterate's bounds plus u0's where smaller, bound
    the solution's correction.

    The iterate stack is the one stack a solve holds: it is allocated
    here (funcspace._empty_stack) for a cold solve and is the start's
    spent rows for a warm one, and it ends as the returned solution's
    rows. Every chunk evaluates the kernel multipliers it reads, u0's and
    the step multipliers of its rows, in its own scratch
    (_row_multipliers), before its ordered turn; the elapsed times must
    increase strictly. The scratch comes from work (a funcspace
    _Workspace; a new one when None).
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
        u, corr_norm, corr_tail = funcspace._empty_stack(shape), 0.0, 0.0
    else:
        u = start._live_rows()
        if u.shape != shape or start.grid != f.grid:
            raise DomainError("a Picard start must come from a block on the same grid and nodes")
        start._rows = None
        corr_norm, corr_tail = start.correction_bound
    spent = start if coeffs else None  # a linear solve writes u0 over the start's rows
    u0_norm, u0_tail = _start_rows(u, first, kernel, layout, elapsed, kernel.q, work, spent)
    if guard is None:
        guard = 10.0 * u0_norm
    if not coeffs:
        return BlockSolution(layout, times, f.fhat, u, 1, 0.0, elapsed, (0.0, 0.0))
    norm_room = (1.0 - _BOUND_SLACK) * guard
    tail_limit = _tail_limit(f.grid, first)
    tail_room = (1.0 - _BOUND_SLACK) * tail_limit
    norm_bound, tail_bound = u0_norm + corr_norm, u0_tail + corr_tail
    steps = np.diff(elapsed, prepend=0.0)  # row i's step; row 0's is never read
    if np.any(steps[1:] <= 0.0):
        raise DomainError("elapsed time must be strictly increasing")
    carry = np.empty((2, shape[1]), np.complex128)
    delta = math.inf
    step_norms = np.empty(shape[0])
    step_tails = np.empty(shape[0])

    def sweep(c, turn):
        # slot 3 holds the chunk's integrand, then its rows of u_new, and
        # slot 2 its step multipliers; the update goes into slot 0, its
        # derivative into slot 1
        new = layout.power_chunk(u[c], coeffs, work.scratch(3, u[c].shape), work)
        emult = _row_multipliers(kernel, layout, steps, c, work)
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
        _warn_if_under_resolved(np.maximum(step_tail, tail_bound), tail_limit)  # NaN wins
        if not norm_bound <= guard:
            raise Divergence(it, norm_bound, guard)
        if delta < params.picard_tol:
            bound = (min(corr_norm, norm_bound + u0_norm), min(corr_tail, tail_bound + u0_tail))
            return BlockSolution(layout, times, f.fhat, u, it, delta, elapsed, bound)
    raise NoConvergence(params.picard_max, delta, params.picard_tol)


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
