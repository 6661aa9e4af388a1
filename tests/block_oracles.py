"""Test-only solver pieces: the linear block and single Duhamel terms.

They are built on the solver's own internals (_linear_rows,
_integrand_rows, _duhamel_rows, the _Layout of the rows) so the tests can
check every node of a Picard solution against u0 - damping + forcing, and
the damping and forcing terms against closed forms.
"""

import numpy as np

from marginalrg import blocksolver
from marginalrg import funcspace as fs
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
    integrand = blocksolver._integrand_rows(rows, coeffs, layout, np.empty_like(rows), work)
    emult = blocksolver._step_multipliers(kernel, layout, elapsed[: t_index + 1], work)
    h = np.diff(sol.times[: t_index + 1])
    d = blocksolver._duhamel_rows(integrand, emult, h, work)
    return fs.SpectralFunction(grid, layout.expand(d[t_index]))


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
