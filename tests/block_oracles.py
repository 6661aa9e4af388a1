"""Test-only solver pieces and the full-width reference layout.

The linear block, the single Duhamel terms and the block norm are built
on the solver's own internals (_start_rows, _Layout.power, _duhamel_rows,
_norm_and_tail) and the kernel's _multiplier_rows, so the tests can check
every node of a Picard solution against u0 - damping + forcing, and the
damping and forcing terms against closed forms. FullRealLayout holds a real field's rows on the whole
sorted axis, the reference the half rows of the solver must match bit
for bit, and deriv_rows is the frequency derivative of sorted rows.
marginal_response_loop is the per-tau form of the stacked marginal
response, one evolve-power-evolve pass per tau on the sorted axis.
forward_sorted and inverse_sorted are the complex transform pair of the
whole sorted axis, the reference of the package's half-length real pair.
"""

import numpy as np

from marginalrg import blocksolver
from marginalrg import funcspace as fs
from marginalrg import marginal as mg
from marginalrg.errors import DomainError


def _boundary_signs(n):
    # (-1)^m: the e^{i m pi} phase of the first node x_0 = -x_max; the
    # -omega_max node (m = 0) keeps its sign when n / 2 is even
    return 1.0 - 2.0 * (np.arange(n) % 2)


def forward_sorted(values, dx):
    """fhat on the sorted axis of samples on x_j = -x_max + j dx, by the
    complex FFT of the last axis: fhat(m dw) = dx (-1)^m FFT[f]_m."""
    signs = _boundary_signs(values.shape[-1])
    return dx * signs * np.fft.fftshift(np.fft.fft(values), axes=-1)


def inverse_sorted(fhat, dx):
    """Complex samples of sorted-axis spectra; real fields come back with
    an imaginary part of rounding size."""
    signs = _boundary_signs(fhat.shape[-1])
    return np.fft.ifft(np.fft.ifftshift(signs * fhat, axes=-1)) / dx


def linear_block(f, kernel, tc, n, L, params):
    """Evolve f through the block by the kernel alone, no nonlinearity."""
    times, elapsed = blocksolver._block_nodes(tc, n, L, params.m)
    layout = fs._Layout(f.grid)
    first = layout.rows(f.fhat)
    rows = np.empty((elapsed.shape[0], first.shape[-1]), dtype=np.complex128)
    blocksolver._start_rows(rows, first, kernel, layout, elapsed, kernel.q, fs._Workspace())
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
    emult = kernel._multiplier_rows(layout.abs_omega_pow(kernel.d), np.diff(elapsed[: t_index + 1]))
    h = np.diff(sol.times[: t_index + 1])
    carry = np.empty((2,) + integrand.shape[1:], np.complex128)
    d = blocksolver._duhamel_rows(integrand, 0, emult, h, carry, np.zeros_like(integrand[0]), work)
    return fs.SpectralFunction(grid, layout.expand(d[t_index]))


def block_norm(sol, q=2):
    """sup over the time nodes of sol of the weighted norm of the slice."""
    norm, _ = blocksolver._norm_and_tail(sol._rows, sol._layout, q, fs._Workspace())
    return norm


class FullRealLayout(fs._Layout):
    """A real field's rows held on the N sorted nodes.

    Each step converts to the half rows at its boundary, so this layout
    holds the numbers of the half one expanded; the norm and its tail are
    written out on the whole axis.
    """

    __slots__ = ()

    def rows(self, fhat):
        return fhat

    def expand(self, rows):
        return rows.copy()

    def abs_omega_pow(self, d):
        return self.grid.abs_omega_pow(d)

    def power_chunk(self, chunk, coeffs, out, work):
        half = fs._to_half(chunk)
        return fs._from_half(super().power_chunk(half, coeffs, np.empty_like(half), work), out)

    def deriv(self, rows, out=None, work=None):
        # x f is real: expand its half spectrum, then fhat' = -i times it.
        # Expanding the -i half instead would flip the negative half, since
        # fhat' of a real field is anti-Hermitian.
        grid = self.grid
        n, dx = grid.n_points, grid.dx
        half = fs._to_half(rows)
        phys = fs._inverse_half(half, n, n, dx, None, None) * grid.x
        xf = fs._forward_half(phys, n, dx, np.empty_like(half), None)
        out = fs._from_half(xf, out)
        return np.multiply(-1j, out, out=out)

    def norm(self, rows, deriv, q, out=None, work=None):
        # sup of (1 + |omega|^q)(|fhat| + |fhat'|) over each row, and the
        # tail: the largest |fhat| of any row on the outer octaves
        # |omega| >= omega_max/4
        grid = self.grid
        size = np.abs(rows)
        tail = float(np.max(size[..., np.abs(grid.omega) >= 0.25 * grid.omega_max]))
        weight = 1.0 + grid.abs_omega_pow(q)
        return np.max(weight * (size + np.abs(deriv)), axis=-1, out=out), tail


def deriv_rows(fhat, grid):
    """Frequency derivative fhat' of each real field's row on the sorted axis."""
    return FullRealLayout(grid).deriv(fhat)


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
