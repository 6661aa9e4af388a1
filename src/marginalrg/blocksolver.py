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
from .funcspace import (
    SpectralFunction,
    weighted_norm,
    _chunks,
    _deriv_rows,
    _norm_rows,
    _pad_factor,
    _padded_power,
)

__all__ = [
    "Nonlinearity",
    "SolverParams",
    "BlockSolution",
    "linear_block",
    "damping_term",
    "forcing_term",
    "solve_block",
    "block_to_csv",
]

@dataclasses.dataclass(frozen=True)
class Nonlinearity:
    """F(u) = -mu u^{critical_power} + lam sum_j a_j u^j.

    terms lists the higher powers as (j, a_j) pairs with every
    j > critical_power; their block-n couplings decay geometrically in n,
    which is what makes them irrelevant to the flow.
    """

    mu: float
    lam: float = 0.0
    critical_power: int = 2
    terms: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not math.isfinite(self.lam):
            raise DomainError(f"lambda must be finite, got {self.lam}")
        ac = self.critical_power
        if not isinstance(ac, (int, np.integer)) or ac < 2:
            raise DomainError(
                f"critical power must be an integer >= 2, got {ac}"
            )
        terms = tuple((int(j), float(a)) for j, a in self.terms)
        object.__setattr__(self, "terms", terms)
        seen = set()
        for j, a in terms:
            if j <= ac:
                raise DomainError(
                    f"perturbation power {j} must exceed the critical power {ac}"
                )
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
        L^{-n (j - alpha_c)(p+1)/d} u^j; the per-term scale absorbs both
        the coupling decay and the term rescaling factors.
        """
        coeffs = {}
        if self.mu != 0.0:
            coeffs[self.critical_power] = -self.mu
        if self.lam != 0.0:
            lnl = math.log(L)
            for j, a in self.terms:
                expo = -n * (j - self.critical_power) * (p + 1.0) / d
                c = self.lam * a * math.exp(expo * lnl)
                if c != 0.0:
                    coeffs[j] = coeffs.get(j, 0.0) + c
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
    """Solution slices u(., t_j) on the block's time nodes."""

    def __init__(self, grid, times, rows, iterations, final_delta):
        self.grid = grid
        self.times = np.asarray(times, dtype=np.float64)
        self._rows = rows
        self.iterations = iterations
        self.final_delta = final_delta
        self._norm_cache = {}

    @property
    def slices(self):
        return [SpectralFunction(self.grid, row) for row in self._rows]

    @property
    def final(self):
        return SpectralFunction(self.grid, self._rows[-1])

    def slice_at(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"no time node at t = {t}; nearest is {self.times[i]}")
        return SpectralFunction(self.grid, self._rows[i])

    def block_norm(self, q=2):
        """sup over time nodes of the weighted norm of the slice."""
        if q not in self._norm_cache:
            self._norm_cache[q] = _block_norm(self._rows, self.grid, q)
        return self._norm_cache[q]


def _block_nodes(tc, n, L, m):
    times = np.linspace(1.0, float(L), m + 1)
    elapsed = np.asarray(tc.block_elapsed(n, L, times), dtype=np.float64)
    elapsed[0] = 0.0
    return times, elapsed


def _step_multipliers(kernel, grid, elapsed):
    steps = np.diff(elapsed)
    if np.any(steps <= 0.0):
        raise DomainError("elapsed time must be strictly increasing")
    return kernel.multiplier(grid, steps)


def _linear_rows(f, kernel, grid, elapsed):
    rows = np.empty((elapsed.shape[0], grid.n_points), dtype=np.complex128)
    rows[0] = f.fhat
    np.multiply(f.fhat, kernel.multiplier(grid, elapsed[1:]), out=rows[1:])
    return rows


def _integrand_rows(rows, coeffs, grid):
    """Transform of sum_p c_p u^p for each time row, on one dealiasing grid."""
    if not coeffs:
        return None
    out = np.empty_like(rows)
    for c in _chunks(rows.shape[0], _pad_factor(coeffs) * grid.n_points):
        out[c] = _padded_power(rows[c], coeffs, grid)
    return out


def _duhamel_rows(integrand, emult, h):
    """Trapezoid Duhamel sums D_i via the semigroup recurrence.

    h holds the per-interval time steps, so non-uniform node sets
    (stacked sub-blocks) accumulate with the same exact algebra.
    """
    d = np.zeros_like(integrand)
    half = 0.5 * np.asarray(h, dtype=np.float64)
    for i in range(1, integrand.shape[0]):
        d[i] = emult[i - 1] * (d[i - 1] + half[i - 1] * integrand[i - 1]) + half[
            i - 1
        ] * integrand[i]
    return d


def _block_norm(rows, grid, q, deriv=None):
    """sup over rows of the weighted norm; deriv, if given, gets fhat'."""
    norms = np.empty(rows.shape[0])
    for c in _chunks(*rows.shape):
        d = _deriv_rows(rows[c], grid)
        if deriv is not None:
            deriv[c] = d
        norms[c] = _norm_rows(rows[c], d, grid, q)
    return float(np.max(norms))


def _picard_rows(f, kernel, grid, times, elapsed, coeffs, params, q):
    """Shared Picard core; returns (rows, iterations, final_delta).

    du carries the frequency derivative of the current iterate u. Each
    iteration transforms only the update u_new - u, whose norm is the
    convergence measure, and adds it to du for the guard norm of u_new:
    the derivative is linear, so this is one derivative transform per
    iteration instead of two. The guard norm differs from a fresh one by
    rounding only, and is only compared with 10x the linear norm.
    """
    h = np.diff(np.asarray(times, dtype=np.float64))
    u0 = _linear_rows(f, kernel, grid, elapsed)
    guard = params.norm_guard
    if guard is not None:
        f_norm = weighted_norm(f, q)
        if f_norm > guard:
            raise Divergence(0, f_norm, guard)
    du = np.empty_like(u0)
    linear_norm = _block_norm(u0, grid, q, du)
    if guard is None:
        guard = 10.0 * linear_norm
    if not coeffs:
        return u0, 1, 0.0
    emult = _step_multipliers(kernel, grid, elapsed)
    u = u0
    delta = math.inf
    step_norms = np.empty(u0.shape[0])
    new_norms = np.empty(u0.shape[0])
    for it in range(1, params.picard_max + 1):
        u_new = _duhamel_rows(_integrand_rows(u, coeffs, grid), emult, h)
        u_new += u0
        for c in _chunks(*u0.shape):
            step = u_new[c] - u[c]
            dstep = _deriv_rows(step, grid)
            step_norms[c] = _norm_rows(step, dstep, grid, q)
            du[c] += dstep
            new_norms[c] = _norm_rows(u_new[c], du[c], grid, q)
        delta = float(np.max(step_norms))
        bnorm = float(np.max(new_norms))
        if bnorm > guard:
            raise Divergence(it, bnorm, guard)
        u = u_new
        if delta < params.picard_tol:
            return u, it, delta
    raise NoConvergence(params.picard_max, delta, params.picard_tol)


def linear_block(f, kernel, tc, n, L, params):
    """Evolve f through the block by the kernel alone, no nonlinearity."""
    times, elapsed = _block_nodes(tc, n, L, params.m)
    rows = _linear_rows(f, kernel, f.grid, elapsed)
    return BlockSolution(f.grid, times, rows, iterations=0, final_delta=0.0)


def solve_block(f, kernel, tc, nl, n, L, params):
    """Picard-solve the block-n equation starting from the linear evolution.

    Iterates u <- u0 + Duhamel(F-terms of u) until the block norm of the
    update falls below picard_tol. Raises NoConvergence when picard_max is
    exhausted and Divergence when the block norm passes the guard
    (default: 10x the linear block norm).
    """
    times, elapsed = _block_nodes(tc, n, L, params.m)
    coeffs = nl.combined_coefficients(n, L, tc.p, kernel.d)
    rows, iters, delta = _picard_rows(
        f, kernel, f.grid, times, elapsed, coeffs, params, kernel.q
    )
    return BlockSolution(f.grid, times, rows, iterations=iters, final_delta=delta)


def _duhamel_single(sol, kernel, tc, n, L, coeffs, t_index):
    m = sol.times.shape[0] - 1
    if not (0 <= t_index <= m):
        raise DomainError(f"t_index must lie in [0, {m}], got {t_index}")
    grid = sol.grid
    if t_index == 0 or not coeffs:
        return SpectralFunction(
            grid, np.zeros(grid.n_points, dtype=np.complex128)
        )
    _, elapsed = _block_nodes(tc, n, L, m)
    rows = np.asarray(sol._rows[: t_index + 1])
    integrand = _integrand_rows(rows, coeffs, grid)
    emult = _step_multipliers(kernel, grid, elapsed[: t_index + 1])
    h = np.diff(sol.times[: t_index + 1])
    d = _duhamel_rows(integrand, emult, h)
    return SpectralFunction(grid, d[t_index])


def damping_term(sol, nl, kernel, tc, n, L, t_index):
    """The damping Duhamel term mu * integral of evolved u^{alpha_c}.

    Evaluated at the block node t_index; returns zero at the first node.
    """
    coeffs = {nl.critical_power: nl.mu} if nl.mu != 0.0 else {}
    return _duhamel_single(sol, kernel, tc, n, L, coeffs, t_index)


def forcing_term(sol, nl, kernel, tc, n, L, t_index):
    """The scaled perturbation Duhamel term at the block node t_index."""
    coeffs = nl.combined_coefficients(n, L, tc.p, kernel.d)
    coeffs.pop(nl.critical_power, None)
    return _duhamel_single(sol, kernel, tc, n, L, coeffs, t_index)


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
