"""The time change s(t), its remainder r(t), and the per-block rescalings.

A block at level n covers t in [1, L] in block time. The block-level
elapsed time is

    s_n(t) = (t^{p+1} - 1)/(p+1) + r_n(t),
    r_n(t) = [r(L^n t) - r(L^n)] L^{-n(p+1)}.

The remainder is a single power r(t) = coeff (t^{p+1-delta} - 1)/(p+1-delta),
i.e. a drift c(t) = t^p + coeff t^{p-delta}; coeff = 0, the default, is
the zero remainder whatever delta. The closed forms make s_n exact rather
than quadrature-based, and large-n factors are evaluated in log space to
avoid overflow and cancellation.
"""

import dataclasses
import math

import numpy as np

from .errors import DomainError

__all__ = ["TimeChange"]

_T_SLOP = 1e-12


@dataclasses.dataclass(frozen=True)
class TimeChange:
    p: float
    delta: float = 0.0
    coeff: float = 0.0

    def __post_init__(self):
        if not (self.p > 0) or not math.isfinite(self.p):
            raise DomainError(f"growth exponent p must be positive, got {self.p}")
        if not (self.coeff >= 0.0) or not math.isfinite(self.coeff):
            raise DomainError(f"remainder coefficient must be >= 0, got {self.coeff}")
        if not (0.0 <= self.delta < self.p + 1.0):
            raise DomainError(f"remainder needs delta in [0, p+1), got {self.delta}")
        if self.coeff > 0.0 and not self.delta > 0.0:
            raise DomainError("a remainder with coeff > 0 needs delta > 0")

    @property
    def vanishes(self):
        """True when r(t) is identically zero (coeff 0)."""
        return self.coeff == 0.0

    def _check_t(self, t, upper=None):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 1.0 - _T_SLOP):
            raise DomainError("time must be >= 1")
        if upper is not None and np.any(t > upper * (1.0 + _T_SLOP)):
            raise DomainError(f"block time must lie in [1, {upper}]")
        return t

    def remainder(self, t):
        """r(t) for t >= 1."""
        t = self._check_t(t)
        e = self.p + 1.0 - self.delta
        return self.coeff * (t**e - 1.0) / e

    def elapsed(self, t):
        """s(t) = (t^{p+1} - 1)/(p+1) + r(t), the warped time since t = 1."""
        t = self._check_t(t)
        return (t ** (self.p + 1.0) - 1.0) / (self.p + 1.0) + self.remainder(t)

    def block_remainder(self, n, L, t):
        """r_n(t) = [r(L^n t) - r(L^n)] L^{-n(p+1)}, in closed form.

        This simplifies to coeff L^{-n delta} (t^{p+1-delta} - 1)/(p+1-delta),
        which is evaluated directly; the naive difference would overflow
        L^{n(p+1)} and cancel catastrophically for large n.
        """
        self._validate_block_args(n, L)
        t = self._check_t(t, upper=L)
        e = self.p + 1.0 - self.delta
        scale = math.exp(-n * self.delta * math.log(L))
        return self.coeff * scale * (t**e - 1.0) / e

    def block_elapsed(self, n, L, t):
        """s_n(t) on the block [1, L]; s_n(1) = 0 exactly."""
        t = self._check_t(t, upper=L)
        return (t ** (self.p + 1.0) - 1.0) / (self.p + 1.0) + self.block_remainder(
            n, L, t
        )

    def remainder_ratio(self, n, L):
        """rho_n = r(L^n) L^{-n(p+1)}, the level-n remainder scale."""
        self._validate_block_args(n, L)
        e = self.p + 1.0 - self.delta
        lnl = math.log(L)
        return (
            self.coeff
            / e
            * (math.exp(-n * self.delta * lnl) - math.exp(-n * (self.p + 1.0) * lnl))
        )

    @staticmethod
    def _validate_block_args(n, L):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise DomainError(f"block index must be a nonnegative integer, got {n}")
        if not (L > 1.0) or not math.isfinite(L):
            raise DomainError(f"block scale L must exceed 1, got {L}")
