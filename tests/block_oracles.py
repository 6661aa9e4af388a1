"""Test-only solver pieces and the full-width reference layout.

The linear block, the single Duhamel terms and the block norm are built
on the solver's own internals (_linear_rows, _Layout.power, _duhamel_rows,
_block_norm) so the tests can check every node of a Picard solution
against u0 - damping + forcing, and the damping and forcing terms against
closed forms. FullRealLayout holds a real field's rows on the whole
sorted axis, the reference the half rows of the solver must match bit
for bit, and deriv_rows is the frequency derivative of sorted rows.
marginal_response_loop is the per-tau form of the stacked marginal
response, one evolve-power-evolve pass per tau on the sorted axis.
"""

import numpy as np

from marginalrg import blocksolver
from marginalrg import funcspace as fs
from marginalrg import marginal as mg
from marginalrg.errors import DomainError


def linear_block(f, kernel, tc, n, L, params):
    """Evolve f through the block by the kernel alone, no nonlinearity."""
    times, elapsed = blocksolver._block_nodes(tc, n, L, params.m)
    layout = fs._layout_of(f.fhat, f.grid)
    rows = blocksolver._linear_rows(f, kernel, layout, elapsed, fs._Workspace())
    return blocksolver.BlockSolution(layout, times, f.fhat, rows, iterations=0, final_delta=0.0)


def _duhamel_single(sol, kernel, tc, n, L, coeffs, t_index):
    m = sol.times.shape[0] - 1
    if not (0 <= t_index <= m):
        raise DomainError(f"t_index must lie in [0, {m}], got {t_index}")
    grid = sol.grid
    if t_index == 0 or not coeffs:
        return fs.SpectralFunction(grid, np.zeros(grid.n_points, dtype=np.complex128))
    layout = sol._layout
    work = fs._Workspace()
    _, elapsed = blocksolver._block_nodes(tc, n, L, m)
    rows = sol._rows[: t_index + 1]
    integrand = layout.power(rows, coeffs, np.empty_like(rows), work)
    emult = blocksolver._step_multipliers(kernel, layout, elapsed[: t_index + 1], work)
    h = np.diff(sol.times[: t_index + 1])
    d = blocksolver._duhamel_rows(integrand, emult, h, work)
    return fs.SpectralFunction(grid, layout.expand(d[t_index]))


def block_norm(sol, q=2):
    """sup over the time nodes of sol of the weighted norm of the slice."""
    norm, _ = blocksolver._block_norm(sol._rows, sol._layout, q, fs._Workspace())
    return norm


class FullRealLayout(fs._Layout):
    """A real field's rows held on the N sorted nodes.

    Each real-field step converts to the half rows at its boundary, so this
    layout holds the numbers of the half one expanded; the norm is the
    complex layout's on the whole axis.
    """

    __slots__ = ()

    def __init__(self, grid):
        super().__init__(grid, True)

    def rows(self, fhat):
        return fhat

    def expand(self, rows):
        return rows.copy()

    def abs_omega_pow(self, d):
        return self.grid.abs_omega_pow(d)

    def power(self, rows, coeffs, out=None, work=None):
        return fs._from_half(super().power(fs._to_half(rows), coeffs, work=work), out)

    def deriv(self, rows, out=None, work=None):
        # x f is real: expand its half spectrum, then fhat' = -i times it.
        # Expanding the -i half instead would flip the negative half, since
        # fhat' of a real field is anti-Hermitian.
        grid = self.grid
        n, dx = grid.n_points, grid.dx
        half = fs._to_half(rows)
        phys = fs._inverse_half(half, n, dx, None, None) * grid.x
        xf = fs._forward_half(phys, n, dx, np.empty_like(half), None)
        out = fs._from_half(xf, out)
        return np.multiply(-1j, out, out=out)

    def norm(self, rows, deriv, q, out=None, work=None):
        return fs._Layout(self.grid, False).norm(rows, deriv, q, out, work)


def deriv_rows(fhat, grid):
    """Frequency derivative fhat' of each row on the sorted axis."""
    layout = FullRealLayout(grid) if fs._is_real_field(fhat) else fs._Layout(grid, False)
    return layout.deriv(fhat)


def damping_term(sol, nl, kernel, tc, n, L, t_index):
    """The damping Duhamel term mu * integral of evolved u^{alpha_c}.

    Evaluated at the block node t_index; returns zero at the first node.
    """
    coeffs = {mg.critical_exponent(tc.p, kernel.d): nl.mu} if nl.mu != 0.0 else {}
    return _duhamel_single(sol, kernel, tc, n, L, coeffs, t_index)


def forcing_term(sol, nl, kernel, tc, n, L, t_index):
    """The scaled perturbation Duhamel term at the block node t_index."""
    coeffs = nl.combined_coefficients(n, L, tc.p, kernel.d)
    coeffs.pop(mg.critical_exponent(tc.p, kernel.d), None)
    return _duhamel_single(sol, kernel, tc, n, L, coeffs, t_index)


def marginal_response_loop(n, kernel, tc, L, alpha_c, grid, m_tau=64):
    """The marginal response tau by tau: apply_multiplier, pointwise_power,
    apply_multiplier, and the trapezoid weight, on the sorted axis."""
    h = mg.linear_profile(kernel, tc, n, L, grid)
    s_end = float(tc.block_elapsed(n, L, L))
    taus = np.linspace(0.0, L - 1.0, m_tau + 1)
    dtau = taus[1] - taus[0]
    acc = np.zeros(grid.n_points, dtype=np.complex128)
    for i, tau in enumerate(taus):
        s_in = float(tc.block_elapsed(n, L, L - tau))
        inner = fs.apply_multiplier(h, kernel, s_in)
        powered = fs.pointwise_power(inner, alpha_c)
        outer = fs.apply_multiplier(powered, kernel, s_end - s_in)
        weight = dtau if 0 < i < m_tau else 0.5 * dtau
        acc += weight * outer.fhat
    return fs.SpectralFunction(grid, acc)
