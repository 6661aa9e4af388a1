"""Marginal-sector constants.

Everything the amplitude recursion feeds on lives here: the kernel
self-interaction constant (two independent routes), the per-level decay
coefficient beta_n (again two routes), its n -> infinity limit, the
analytic bracket that must contain every beta_n, and the prefactor of
the amplitude law.

Conventions: the working kernel profile is ghat(., 1), the critical power
alpha_c = (p+1+d)/(p+1) is required to be an integer and is derived by
critical_exponent wherever p and d are known, and all large-n scale
factors are evaluated in log space.
"""

import dataclasses
import functools
import math

import numpy as np

from .errors import DomainError
from .funcspace import GridSpec, SpectralFunction, _Layout, from_profile, pointwise_power

__all__ = [
    "critical_exponent",
    "OverlapConstant",
    "overlap_constant",
    "linear_profile",
    "marginal_response",
    "marginal_responses",
    "decay_coefficient",
    "decay_limit",
    "decay_bracket",
    "DecayGapRow",
    "decay_convergence",
    "amplitude_prefactor",
    "marginal_constants",
]

_BOX_TARGET = 1e-16
_CHAIN_NODES = 1025  # trapezoid nodes per variable of the chained-profile integral


def critical_exponent(p, d):
    """The marginal power (p+1+d)/(p+1), validated to be an integer >= 2."""
    if not (p > 0) or not (d >= 1.0):
        raise DomainError(f"need p > 0 and d >= 1, got p={p}, d={d}")
    value = (p + 1.0 + d) / (p + 1.0)
    k = round(value)
    if abs(value - k) > 1e-9 or k < 2:
        raise DomainError(
            f"the marginal power (p+1+d)/(p+1) = {value:.6g} must be an "
            f"integer >= 2; adjust p or the kernel exponent d"
        )
    return int(k)


@dataclasses.dataclass(frozen=True)
class OverlapConstant:
    """Kernel self-interaction constant by two routes.

    direct: tensor-product quadrature of the chained-profile integral
    (None when alpha_c > 3, where the dimension makes it impractical).
    oracle: (2 pi)^{alpha_c - 1} * integral of G(x,1)^{alpha_c} dx through
    the spectral machinery on the default grid. value prefers the direct
    route, and is the R that every constant in this module reads.
    """

    direct: float | None
    oracle: float

    @property
    def value(self):
        return self.direct if self.direct is not None else self.oracle

    @property
    def discrepancy(self):
        if self.direct is None:
            return None
        return abs(self.direct - self.oracle)


def _chain_quadrature(kernel, alpha_c):
    # the box edge W has ghat(W, 1) = target: W = (ln(1/target)/kappa)^{1/d}
    box = (math.log(1.0 / _BOX_TARGET) / kernel.kappa) ** (1.0 / kernel.d)
    x = np.linspace(-box, box, _CHAIN_NODES)
    w = np.full(_CHAIN_NODES, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    g = kernel.ghat(x, 1.0)
    v = g * w
    if alpha_c > 2:
        coupling = kernel.ghat(x[:, None] - x[None, :], 1.0)
        for _ in range(alpha_c - 2):
            v = (coupling @ v) * w
    return float(np.sum(v * g))


@functools.lru_cache(maxsize=64)
def overlap_constant(kernel, alpha_c):
    """Both routes to the self-interaction constant.

    The direct route chains alpha_c profile factors through alpha_c - 1
    integration variables on a box truncated where the profile falls to
    1e-16 (tensor trapezoid, spectrally accurate for these analytic
    integrands). The oracle route uses the identity with the
    physical-space power integral on GridSpec(), so each (kernel, alpha_c)
    has one R whatever grid a run uses.
    """
    if not isinstance(alpha_c, (int, np.integer)) or alpha_c < 2:
        raise DomainError(f"alpha_c must be an integer >= 2, got {alpha_c}")
    direct = None
    if alpha_c <= 3:
        direct = _chain_quadrature(kernel, int(alpha_c))
    profile = from_profile(GridSpec(), lambda w: kernel.ghat(w, 1.0))
    oracle = (2.0 * math.pi) ** (alpha_c - 1) * pointwise_power(
        profile, int(alpha_c)
    ).at_zero.real
    return OverlapConstant(direct=direct, oracle=float(oracle))


def linear_profile(kernel, tc, n, L, grid):
    """The level-n image of the self-similar profile, in closed form.

    Rescaled linear evolution shifts the profile's time argument to
    1/(p+1) + rho_n, so no iteration or interpolation is involved.
    """
    t_arg = 1.0 / (tc.p + 1.0) + tc.remainder_ratio(n, L)
    return SpectralFunction(grid, kernel.multiplier(grid, t_arg))


def marginal_response(n, kernel, tc, L, grid, m_tau=64):
    """Trapezoidal Duhamel response of the level-n profile.

    Integrates over tau in [0, L-1]: evolve the profile h_n to block time
    L - tau, raise to alpha_c = critical_exponent(p, d), then evolve over
    the remaining warped time.
    Its zero mode is the per-level decay coefficient.

    The tau rows go through as one stack of half spectra: a multiplier
    stack per evolution, one chunked power, a weighted sum in tau order.
    """
    if not isinstance(m_tau, (int, np.integer)) or m_tau < 8:
        raise DomainError(f"m_tau must be an integer >= 8, got {m_tau!r}")
    alpha_c = critical_exponent(tc.p, kernel.d)
    h = linear_profile(kernel, tc, n, L, grid)
    s_end = float(tc.block_elapsed(n, L, L))
    taus = np.linspace(0.0, L - 1.0, m_tau + 1)
    dtau = taus[1] - taus[0]
    s_in = tc.block_elapsed(n, L, L - taus)
    layout = _Layout(grid)
    rows = np.repeat(layout.rows(h.fhat)[np.newaxis], m_tau + 1, axis=0)
    _evolve(rows, kernel, layout, s_in)
    layout.power(rows, {alpha_c: 1.0}, rows)
    _evolve(rows, kernel, layout, s_end - s_in)
    acc = np.zeros(rows.shape[-1], dtype=np.complex128)
    for i in range(m_tau + 1):
        weight = dtau if 0 < i < m_tau else 0.5 * dtau
        acc += weight * rows[i]
    return SpectralFunction(grid, layout.expand(acc))


def marginal_responses(levels, kernel, tc, L, grid=None, m_tau=64):
    """Yield marginal_response at each of levels, in order.

    Without a time-change remainder (tc.vanishes) the rescaled block, and
    so the response, is the same at every level: it is computed at the
    first level and given again for the others. grid None is GridSpec().
    A level's response is computed only when the caller asks for it.
    """
    grid = GridSpec() if grid is None else grid
    response = None
    for n in levels:
        if response is None or not tc.vanishes:
            response = marginal_response(n, kernel, tc, L, grid, m_tau)
        yield response


def _evolve(rows, kernel, layout, t):
    # each row times its multiplier, in place; a time of exactly 0 is the
    # identity, and zeros sit only at the ends (tau = 0 or L - 1), so the
    # rows that move are one slice
    moving = np.flatnonzero(t)
    run = slice(moving[0], moving[-1] + 1)
    rows[run] *= kernel._multiplier_rows(layout.abs_omega_pow(kernel.d), t[run])


@functools.lru_cache(maxsize=1)
def _gauss_rule():
    # Gauss-Legendre rule on [-1, 1] for the closed form in u = ln(L - tau),
    # where the integrand is smooth on [0, ln L] (1 without a remainder);
    # 128 nodes match adaptive quadrature to ~1e-14 relative up to L = 1000
    return np.polynomial.legendre.leggauss(128)


def _closed_form_coefficient(n, kernel, tc, L, alpha_c, r_value):
    # integral over tau in [0, L-1] of base^(-1/(p+1)), with
    # base = (L-tau)^(p+1) + (p+1)(r_n(L-tau) + rho_n), in s = L - tau = e^u
    p = tc.p
    rho = tc.remainder_ratio(n, L)
    x, w = _gauss_rule()
    half = 0.5 * math.log(L)
    s = np.exp(half * (x + 1.0))
    shift = (p + 1.0) * (tc.block_remainder(n, L, s) + rho)
    base = s ** (p + 1.0) + shift
    bad = np.flatnonzero(base <= 0.0)
    if bad.size:
        raise DomainError(
            f"decay-coefficient integrand degenerate at tau={L - s[bad[0]]:g}: "
            f"base {base[bad[0]]:g} <= 0; the remainder overwhelms the block"
        )
    integral = half * float(np.sum(w * s * base ** (-1.0 / (p + 1.0))))
    prefac = r_value * (p + 1.0) ** (1.0 / (p + 1.0)) / (2.0 * math.pi) ** (alpha_c - 1)
    return prefac * integral


def decay_coefficient(n, kernel, tc, L):
    """The level-n decay coefficient beta_n, in closed form.

    Evaluates the one-dimensional integral with the remainder entering in
    closed form. The same coefficient is the zero mode of the marginal
    response, marginal_response(...).at_zero.real, and the two agreeing
    is a standing diagnostic.
    """
    alpha_c = critical_exponent(tc.p, kernel.d)
    r_value = overlap_constant(kernel, alpha_c).value
    return _closed_form_coefficient(n, kernel, tc, L, alpha_c, r_value)


def decay_limit(kernel, p, L):
    """The n -> infinity decay coefficient R [(p+1)/(2 pi)^d]^{1/(p+1)} ln L."""
    d = kernel.d
    r_value = overlap_constant(kernel, critical_exponent(p, d)).value
    return r_value * ((p + 1.0) / (2.0 * math.pi) ** d) ** (1.0 / (p + 1.0)) * math.log(L)


def decay_bracket(kernel, p, L):
    """(lower, upper) bounds valid for every beta_n at this (kernel, p, L)."""
    alpha_c = critical_exponent(p, kernel.d)
    r_value = overlap_constant(kernel, alpha_c).value
    scale = r_value / (2.0 * math.pi) ** (alpha_c - 1)
    lo = scale * ((p + 1.0) / 4.0) ** (1.0 / (p + 1.0)) * (1.0 - 3.0 ** (-1.0 / (p + 1.0)))
    hi = scale * (L - 1.0) * (6.0 * (p + 1.0)) ** (1.0 / (p + 1.0))
    return lo, hi


@dataclasses.dataclass(frozen=True)
class DecayGapRow:
    n: int
    gap: float
    envelope: float


def decay_convergence(kernel, tc, L, n_range):
    """|beta_n - beta| against the reference envelope c n^{-(p+1)/d}.

    Uses the closed-form route so the gaps carry no spatial-grid noise.
    The envelope constant is fit at the first level of n_range; callers
    assert that the measured gaps stay dominated by it.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns or ns[0] < 1:
        raise DomainError("n_range must contain integers >= 1")
    alpha_c = critical_exponent(tc.p, kernel.d)
    r_value = overlap_constant(kernel, alpha_c).value
    beta = decay_limit(kernel, tc.p, L)
    expo = (tc.p + 1.0) / kernel.d
    gaps = {
        n: abs(
            _closed_form_coefficient(n, kernel, tc, L, alpha_c, r_value) - beta
        )
        for n in ns
    }
    c = gaps[ns[0]] * ns[0] ** expo
    return [DecayGapRow(n=n, gap=gaps[n], envelope=c * n ** (-expo)) for n in ns]


def amplitude_prefactor(kernel, p, mu):
    """The limit prefactor {(d/(p+1)) [(p+1)/(2 pi)^d]^{1/(p+1)} mu R}^{-(p+1)/d}."""
    if not (mu > 0):
        raise DomainError(f"the amplitude prefactor needs mu > 0, got {mu}")
    d = kernel.d
    r_value = overlap_constant(kernel, critical_exponent(p, d)).value
    inner = (
        (d / (p + 1.0))
        * ((p + 1.0) / (2.0 * math.pi) ** d) ** (1.0 / (p + 1.0))
        * mu
        * r_value
    )
    return inner ** (-(p + 1.0) / d)


def marginal_constants(kernel, tc, L, mu, grid=None, m_tau=64):
    """All marginal-sector constants as one JSON-ready mapping.

    Keys: R_direct, R_oracle, beta, beta_star_lo, beta_star_hi,
    beta_n_table (rows n, direct, closed_form for n = 0..10), A_prefactor.
    Only A_prefactor depends on mu; it is None when mu <= 0, where the
    amplitude law does not apply.
    """
    overlap = overlap_constant(kernel, critical_exponent(tc.p, kernel.d))
    lo, hi = decay_bracket(kernel, tc.p, L)
    responses = marginal_responses(range(11), kernel, tc, L, grid, m_tau)
    table = [
        {
            "n": n,
            "direct": response.at_zero.real,
            "closed_form": decay_coefficient(n, kernel, tc, L),
        }
        for n, response in enumerate(responses)
    ]
    return {
        "R_direct": overlap.direct,
        "R_oracle": overlap.oracle,
        "beta": decay_limit(kernel, tc.p, L),
        "beta_star_lo": lo,
        "beta_star_hi": hi,
        "beta_n_table": table,
        "A_prefactor": amplitude_prefactor(kernel, tc.p, mu) if mu > 0.0 else None,
    }
