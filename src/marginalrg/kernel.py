"""Scaling kernels and their frequency-side algebra.

The kernel family is the symmetric stable one: the smoothing operator at
time t acts on transforms as multiplication by exp(-kappa t |omega|^d).
It satisfies the self-similarity and semigroup identities exactly, which
is what makes the linear fixed point of the block map checkable to
machine precision.
"""

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .funcspace import SpectralFunction

__all__ = [
    "ScalingKernel",
    "heat_kernel",
    "semigroup_residual",
    "selfsim_residual",
    "fixed_point_profile",
]


@dataclasses.dataclass(frozen=True)
class ScalingKernel:
    """Stable scaling kernel with multiplier exp(-kappa t |omega|^d).

    d is the scaling exponent (d >= 1 so the multiplier slope stays
    bounded), kappa the amplitude, q the weight exponent of the norm
    attached to this kernel's function space. d=2, kappa=1 is the heat
    kernel in the convention where the time-1 multiplier is exp(-omega^2).
    """

    d: float = 2.0
    kappa: float = 1.0
    q: int = 2

    def __post_init__(self):
        if not (self.d >= 1.0) or not math.isfinite(self.d):
            raise DomainError(f"scaling exponent d must be >= 1, got {self.d}")
        if not (self.kappa > 0) or not math.isfinite(self.kappa):
            raise DomainError(f"kappa must be positive and finite, got {self.kappa}")
        if not isinstance(self.q, (int, np.integer)) or self.q < 2:
            raise DomainError(f"norm weight exponent q must be an integer >= 2, got {self.q}")

    def ghat(self, omega, t):
        """Multiplier value exp(-kappa t |omega|^d) at frequency omega.

        Vectorized over omega. Time must be strictly positive.
        """
        t = float(t)
        if not (t > 0) or not math.isfinite(t):
            raise DomainError(f"kernel time must be positive and finite, got {t}")
        return np.exp(-self.kappa * t * np.abs(omega) ** self.d)

    def multiplier(self, grid, t):
        """ghat on a grid's frequency axis, using the cached |omega|^d.

        t is one time, or a 1-D array of times with one output row each.
        """
        return self._multiplier_rows(grid.abs_omega_pow(self.d), t)

    def _multiplier_rows(self, abs_omega_pow, t, out=None):
        """exp(-kappa t |omega|^d) on the nodes of a given |omega|^d row.

        out, if given, receives the rows (one per time).
        """
        t = np.asarray(t, dtype=np.float64)
        if t.ndim > 1:
            raise DomainError(
                f"kernel time must be one time or a 1-D array of times, got shape {t.shape}"
            )
        bad = np.flatnonzero(~((t > 0) & np.isfinite(t)))
        if bad.size:
            where = "" if t.ndim == 0 else f"t[{bad[0]}] = "
            raise DomainError(
                f"kernel time must be positive and finite, got {where}{float(t.flat[bad[0]])!r}"
            )
        out = np.multiply.outer(-self.kappa * t, abs_omega_pow, out=out)
        return np.exp(out, out=out)


def heat_kernel(q=2):
    return ScalingKernel(d=2.0, kappa=1.0, q=q)


def semigroup_residual(kernel, grid, t, s):
    """max over the grid of |ghat(w,t) - ghat(w,t-s) ghat(w,s)|, t > s > 0."""
    if not (t > s > 0):
        raise DomainError(f"semigroup residual needs t > s > 0, got t={t}, s={s}")
    lhs = kernel.multiplier(grid, t)
    rhs = kernel.multiplier(grid, t - s) * kernel.multiplier(grid, s)
    return float(np.max(np.abs(lhs - rhs)))


def selfsim_residual(kernel, grid, t):
    """max over the grid of |ghat(t^{1/d} w, 1) - ghat(w, t)|."""
    if not (t > 0):
        raise DomainError(f"self-similarity residual needs t > 0, got {t}")
    scaled = kernel.ghat(t ** (1.0 / kernel.d) * grid.omega, 1.0)
    return float(np.max(np.abs(scaled - kernel.multiplier(grid, t))))


def fixed_point_profile(kernel, p, grid):
    """The self-similar profile: transform samples ghat(omega, 1/(p+1)).

    This is the fixed point of the rescaled linear block map when the
    time-change remainder vanishes.
    """
    if not (p > 0) or not math.isfinite(p):
        raise DomainError(f"growth exponent p must be positive, got {p}")
    return SpectralFunction(grid, kernel.multiplier(grid, 1.0 / (p + 1.0)))
