"""Frequency-side representation of functions on a uniform symmetric grid.

Functions live on x in [-x_max, x_max) with N uniform nodes and are stored
through their transform fhat(omega) = integral f(x) exp(-i omega x) dx,
sampled at omega_k = (k - N/2) * pi / x_max in ascending order. The inverse
carries the 1/(2pi) factor. All grid operations in the package go through
this module so the conventions live in exactly one place.

A spectrum that is exactly Hermitian (the transform of a real function) is
transformed with half-length real FFTs inside the power and the norm; any
other spectrum takes the complex ones. Stacks of such spectra can be held
in the half layout (_Layout): only the N/2+1 nodes omega >= 0 and
-omega_max, with the full sorted axis built when a caller needs it.
"""

import dataclasses
import functools
import math
import mmap
import warnings

import numpy as np

from .errors import DomainError, UnderResolved, UnderResolvedWarning

__all__ = [
    "GridSpec",
    "SpectralFunction",
    "from_physical",
    "from_profile",
    "zero_function",
    "weighted_norm",
    "pointwise_power",
    "apply_multiplier",
    "dilate",
    "eval_at_zero",
    "to_csv",
    "from_csv",
]

_LD_ONE = np.ones(1, np.longdouble)[0]
_LD_TWO_PI = 2.0 * np.pi * _LD_ONE


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform physical grid and its induced frequency grid.

    Parameters
    ----------
    n_points : int
        Number of nodes, a power of two, at least 256.
    x_max : float
        Half width of the physical box. Nodes are x_j = -x_max + j * dx
        with dx = 2 x_max / n_points.
    tail_tol : float
        Absolute bound on |fhat| over the two outermost frequency octaves;
        above it a function counts as under-resolved (norm warnings,
        dilation guards).
    """

    n_points: int = 4096
    x_max: float = 40.0
    tail_tol: float = 1e-10

    def __post_init__(self):
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n < 256 or (n & (n - 1)) != 0:
            raise DomainError(
                f"n_points must be a power of two >= 256, got {self.n_points}"
            )
        if not (self.x_max > 0) or not math.isfinite(self.x_max):
            raise DomainError(f"x_max must be a positive finite number, got {self.x_max}")
        if not (0 < self.tail_tol < 1):
            raise DomainError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")

    @property
    def dx(self):
        return 2.0 * self.x_max / self.n_points

    @property
    def dw(self):
        return np.pi / self.x_max

    @property
    def omega_max(self):
        # largest represented |omega|; the sorted axis runs [-omega_max, omega_max)
        return 0.5 * self.n_points * self.dw

    @property
    def x(self):
        return _x_nodes(self)

    @property
    def omega(self):
        return _omega_nodes(self)

    def abs_omega_pow(self, d):
        """|omega|**d on the sorted frequency axis, cached per (grid, d)."""
        return _abs_omega_pow(self, float(d))

    def forward(self, values):
        """Transform physical samples to fhat on the sorted frequency axis."""
        values = np.asarray(values)
        if values.shape != (self.n_points,):
            raise DomainError(
                f"expected {self.n_points} physical samples, got shape {values.shape}"
            )
        return _forward_raw(values, self.dx)

    def inverse(self, fhat):
        """Transform sorted-axis fhat samples back to physical samples."""
        fhat = np.asarray(fhat)
        if fhat.shape != (self.n_points,):
            raise DomainError(
                f"expected {self.n_points} frequency samples, got shape {fhat.shape}"
            )
        return _inverse_raw(fhat, self.dx)

    def compatible(self, other):
        return self.n_points == other.n_points and math.isclose(
            self.x_max, other.x_max, rel_tol=1e-9
        )


@functools.lru_cache(maxsize=32)
def _x_nodes(grid):
    x = -grid.x_max + grid.dx * np.arange(grid.n_points)
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=32)
def _omega_nodes(grid):
    w = grid.dw * (np.arange(grid.n_points) - grid.n_points // 2)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=128)
def _abs_omega_pow(grid, d, half=False):
    w = np.abs(_omega_nodes(grid)) ** d
    if half:
        w = _to_half(w)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=32)
def _outer_band(grid, frac=0.25):
    # frac = 0.25 is the two outermost octaves, where is_resolved looks
    band = np.abs(_omega_nodes(grid)) >= frac * grid.omega_max
    band.flags.writeable = False
    return band


def _forward_raw(values, dx):
    # fhat(m dw) = dx (-1)^m FFT[f]_m with x_0 = -x_max; the alternating sign
    # carries the e^{i m pi} boundary phase. Requires len/2 even. Transforms
    # the last axis, so a stack of rows goes through in one call.
    signs = _signs(values.shape[-1])
    return dx * signs * np.fft.fftshift(np.fft.fft(values), axes=-1)


def _inverse_raw(fhat, dx):
    signs = _signs(fhat.shape[-1])
    return np.fft.ifft(np.fft.ifftshift(signs * fhat, axes=-1)) / dx


@functools.lru_cache(maxsize=32)
def _signs(n):
    if n % 4 != 0:
        raise DomainError(f"grid length must be divisible by 4, got {n}")
    s = 1.0 - 2.0 * (np.arange(n) % 2)
    s.flags.writeable = False
    return s


def _is_real_field(fhat):
    """True when every row of fhat is exactly the transform of a real function.

    That is fhat(-omega) == conj(fhat(omega)) node for node, with fhat real
    at omega = 0 and at the unpaired node -omega_max. The test is exact, with
    no tolerance: a spectrum that passes goes through the half-length real
    transforms, any other through the complex ones.
    """
    h = fhat.shape[-1] // 2
    pos = fhat[..., h + 1 :]
    neg = fhat[..., h - 1 : 0 : -1]
    return bool(
        np.all(fhat[..., 0].imag == 0.0)
        and np.all(fhat[..., h].imag == 0.0)
        and np.array_equal(pos.real, neg.real)
        and np.array_equal(pos.imag, -neg.imag)
    )


def _to_half(fhat):
    """The half layout of sorted spectra: the N/2+1 nodes omega = 0 ..
    omega_max - dw, with the -omega_max value last (the rfft layout)."""
    h = fhat.shape[-1] // 2
    return np.concatenate([fhat[..., h:], fhat[..., :1]], axis=-1)


def _from_half(half):
    """Sorted spectra rebuilt from the half layout of real fields.

    The negative half becomes the conjugate of the positive one and the
    -omega_max value its real part, so the result passes _is_real_field
    exactly.
    """
    h = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * h,), dtype=np.complex128)
    out[..., h:] = half[..., :h]
    out[..., 0] = half[..., h].real
    np.conjugate(out[..., :h:-1], out=out[..., 1:h])
    return out


@functools.lru_cache(maxsize=64)
def _half_weights(n, scale, last):
    # scale * (-1)^m on the nodes m = 0..n/2-1 of the half layout (the
    # boundary phase of _forward_raw and the grid scale in one factor),
    # and last on its -omega_max node
    w = np.append(scale * _signs(n)[: n // 2], last)
    w.flags.writeable = False
    return w


def _inverse_half(half, m, dx):
    """Real samples, on an m-point grid with spacing dx, of half spectra.

    The irfft of each row, zero-padded to m points. On a padded grid
    (m > n) the value at -omega_max is split half-and-half between
    +-omega_max, so the padded field is real too.
    """
    n = 2 * (half.shape[-1] - 1)
    return np.fft.irfft(half * _half_weights(n, 1.0 / dx, (1.0 if m == n else 0.5) / dx), m)


def _forward_half(phys, n, dx):
    """Half spectra, on an n-node band, of real samples with spacing dx.

    One rfft; the -omega_max value is the real part of the +omega_max bin.
    """
    h = n // 2
    r = np.fft.rfft(phys)
    out = r[..., : h + 1] * _half_weights(n, dx, dx)
    out[..., h] = dx * r[..., h].real
    return out


class _Layout:
    """How a stack of spectral rows on one grid is held and transformed.

    real: every row is the transform of a real field (_is_real_field), so
    powers and derivatives take half-length real FFTs; otherwise complex
    FFTs. half (real fields only): rows hold the half layout of _to_half,
    the negative half being the conjugate of the positive one; otherwise
    rows hold the N sorted nodes, and a real-field transform converts at
    its boundary. Every element-wise step maps the half of a Hermitian
    input to the half of its Hermitian output, so the two layouts of a
    real field hold the same numbers.
    """

    __slots__ = ("grid", "real", "half")

    def __init__(self, grid, real, half=False):
        self.grid = grid
        self.real = real
        self.half = half

    def rows(self, fhat):
        """Sorted spectra held in this layout."""
        return _to_half(fhat) if self.half else fhat

    def expand(self, rows):
        """Sorted spectra of rows held in this layout."""
        return _from_half(rows) if self.half else rows

    def abs_omega_pow(self, d):
        """|omega|**d on this layout's nodes, cached per (grid, d)."""
        return _abs_omega_pow(self.grid, float(d), self.half)

    def _on_half(self, op, rows):
        return op(rows) if self.half else _from_half(op(_to_half(rows)))

    def power(self, rows, coeffs):
        """Transform of sum_p c_p u^p for each row, for {p: c_p}.

        Each spectrum is embedded centered in a grid with _pad_factor * N
        points and the same x_max (finer physical sampling, same frequency
        spacing), and restricted to the original band after the products.
        Real fields take one irfft, the sum formed in physical space and
        one rfft; any other spectrum takes one complex transform per
        power, with the coefficients applied on the band.
        """
        n = self.grid.n_points
        m = _pad_factor(coeffs) * n
        dx_big = 2.0 * self.grid.x_max / m
        if self.real:
            return self._on_half(
                lambda r: _forward_half(_poly(_inverse_half(r, m, dx_big), coeffs), n, dx_big),
                rows,
            )
        powers = sorted(coeffs)
        band = slice(m // 2 - n // 2, m // 2 + n // 2)
        big = np.zeros(rows.shape[:-1] + (m,), dtype=np.complex128)
        big[..., band] = rows
        phys = _inverse_raw(big, dx_big)
        out = _forward_raw(phys ** powers[0], dx_big)[..., band]
        out *= coeffs[powers[0]]
        for p in powers[1:]:
            out += coeffs[p] * _forward_raw(phys**p, dx_big)[..., band]
        return out

    def deriv(self, rows):
        """Frequency derivative fhat' of each row: the transform of (-i x) f(x)."""
        grid = self.grid
        n, dx = grid.n_points, grid.dx
        if self.real:
            # x f is real, so its half spectrum expands; fhat' = -i times it
            return -1j * self._on_half(
                lambda r: _forward_half(grid.x * _inverse_half(r, n, dx), n, dx), rows
            )
        return _forward_raw(-1j * grid.x * _inverse_raw(rows, dx), dx)

    def norm(self, rows, deriv, q):
        """Weighted sup norm of each row of a stack, given its derivative rows.

        The row-stack form of weighted_norm: one warning covers every row
        whose outer-octave tail exceeds the grid's tail_tol. In the half
        layout the outer octaves are the contiguous nodes [N/8:], and
        |fhat|, |fhat'| are even, so the sup over the half is the sup.
        """
        if q < 0:
            raise DomainError(f"norm weight exponent must be nonnegative, got {q}")
        grid = self.grid
        size = np.abs(rows)
        band = slice(grid.n_points // 8, None) if self.half else _outer_band(grid)
        if not np.max(size[..., band]) <= grid.tail_tol:
            warnings.warn(
                "input spectrum is not negligible on the outer frequency "
                "octaves; the reported norm may be under-resolved",
                UnderResolvedWarning,
                stacklevel=3,
            )
        weight = 1.0 + self.abs_omega_pow(q)
        return np.max(weight * (size + np.abs(deriv)), axis=-1)


def _layout_of(fhat, grid):
    """The layout a solve from fhat holds its rows in: half for a real field."""
    real = _is_real_field(fhat)
    return _Layout(grid, real, half=real)


class SpectralFunction:
    """A function represented by its transform samples on a GridSpec.

    The samples are stored as complex128 on the sorted frequency axis. The
    class is a thin value wrapper: arithmetic returns new instances and
    never mutates operands.
    """

    __slots__ = ("grid", "fhat")

    def __init__(self, grid, fhat):
        fhat = np.asarray(fhat, dtype=np.complex128)
        if fhat.shape != (grid.n_points,):
            raise DomainError(
                f"fhat must have shape ({grid.n_points},), got {fhat.shape}"
            )
        self.grid = grid
        self.fhat = fhat

    def copy(self):
        return SpectralFunction(self.grid, self.fhat.copy())

    @property
    def at_zero(self):
        """fhat at omega = 0 (the total integral of f)."""
        return complex(self.fhat[self.grid.n_points // 2])

    def to_physical(self):
        return self.grid.inverse(self.fhat)

    def tail_max(self, frac=0.25):
        """Largest |fhat| on the outer band |omega| >= frac * omega_max."""
        return float(np.max(np.abs(self.fhat[_outer_band(self.grid, frac)])))

    def is_resolved(self):
        """True when |fhat| on the two outermost octaves stays below tail_tol."""
        return self.tail_max(0.25) <= self.grid.tail_tol

    def _check_same_grid(self, other):
        if not self.grid.compatible(other.grid):
            raise DomainError("operands live on different grids")

    def __add__(self, other):
        self._check_same_grid(other)
        return SpectralFunction(self.grid, self.fhat + other.fhat)

    def __sub__(self, other):
        self._check_same_grid(other)
        return SpectralFunction(self.grid, self.fhat - other.fhat)

    def __mul__(self, scalar):
        return SpectralFunction(self.grid, self.fhat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralFunction(self.grid, -self.fhat)

    def __repr__(self):
        return (
            f"SpectralFunction(n={self.grid.n_points}, x_max={self.grid.x_max}, "
            f"at_zero={self.at_zero:.6g})"
        )


def from_physical(grid, values):
    return SpectralFunction(grid, grid.forward(values))


def from_profile(grid, profile):
    """Build a SpectralFunction by sampling fhat = profile(omega) directly."""
    return SpectralFunction(grid, profile(grid.omega))


def zero_function(grid):
    return SpectralFunction(grid, np.zeros(grid.n_points, dtype=np.complex128))


def weighted_norm(f, q=2):
    """Weighted sup norm sup_omega (1 + |omega|^q) (|fhat| + |fhat'|).

    fhat' is the frequency derivative, computed as the transform of
    (-i x) f(x). The supremum is taken over the grid nodes. An
    under-resolved input (outer-octave tail above the grid's tail_tol)
    still gets its norm, with an UnderResolvedWarning attached because the
    true supremum may then live off the grid.
    """
    layout = _layout_of(f.fhat, f.grid)
    rows = layout.rows(f.fhat)[np.newaxis]
    return float(layout.norm(rows, layout.deriv(rows), q)[0])


def _deriv_rows(fhat, grid):
    """Frequency derivative fhat' of each row on the sorted axis."""
    return _Layout(grid, _is_real_field(fhat)).deriv(fhat)


def pointwise_power(f, k):
    """Transform of f(x)**k, dealiased by zero padding in frequency.

    The padding is the smallest exact one for k, so the retained band
    carries no aliased images of the product.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise DomainError(f"power must be an integer >= 2, got {k}")
    layout = _Layout(f.grid, _is_real_field(f.fhat))
    return SpectralFunction(f.grid, layout.power(f.fhat, {k: 1.0}))


# Byte budget of one chunk of rows in the whole-stack transforms.
_CHUNK_BYTES = 1 << 20


def _chunks(n_rows, width):
    """Row slices of a stack with rows of width complex values.

    Whole-stack transforms and norms run one chunk of about _CHUNK_BYTES
    at a time: a batched transform matches the per-row one bit for bit,
    and the chunk keeps its temporaries small next to the stacks.
    """
    step = max(1, _CHUNK_BYTES // (16 * width))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


# Row stacks of at least this many bytes get an anonymous mapping of their
# own (_empty_stack); smaller ones come from the malloc heap.
_MAPPED_STACK_BYTES = 8 << 20


def _empty_stack(shape, dtype=np.complex128):
    """An uninitialised row stack; a large one in a memory mapping of its own.

    Dropping the last reference to a mapped stack unmaps it, so the
    resident memory of a solve is the stacks it holds. From the malloc heap
    a freed stack of up to 32 MiB (glibc's dynamic mmap threshold) stays
    resident, and whether the next one reuses it depends on where unrelated
    small blocks landed in between: the peak of a process would then differ
    from run to run by whole stacks. Stacks of a few MiB (a block on the
    canonical grid) stay on the heap, which reuses them without page faults.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    if size < _MAPPED_STACK_BYTES:
        return np.empty(shape, dtype=dtype)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


def _pad_factor(coeffs):
    # ceil((k+1)/2) for the largest power k: the smallest factor that keeps
    # every aliased image of the product outside the retained band
    return (max(coeffs) + 2) // 2


def _poly(u, coeffs):
    # sum_p c_p u^p by Horner's rule, products only: `**` on a real field
    # with subnormal tails costs more than the whole transform
    top = max(coeffs)
    acc = coeffs[top] * u
    for p in range(top - 1, 0, -1):
        if p in coeffs:
            acc += coeffs[p]
        acc *= u
    return acc


def apply_multiplier(f, kernel, t):
    """Multiply fhat by the kernel's frequency multiplier at time t >= 0.

    t = 0 is the identity (the kernel itself is only defined for t > 0).
    """
    if t < 0:
        raise DomainError(f"evolution time must be nonnegative, got {t}")
    if t == 0:
        return f.copy()
    return SpectralFunction(f.grid, f.fhat * kernel.multiplier(f.grid, t))


def _chirp_phase(c_ld, idx):
    # exp(-i c idx^2) with the argument reduced mod 2pi in extended
    # precision; complex-power chirps lose ~idx^2 ulps and fail the
    # downstream 1e-8 budgets
    theta = np.mod(c_ld * idx.astype(np.longdouble) ** 2, _LD_TWO_PI)
    return np.exp(-1j * theta.astype(np.float64))


@functools.lru_cache(maxsize=16)
def _chirp_factors(n_pts, a):
    """Read-only Bluestein factors of _resample_trig for one (N, a).

    The pre-chirp, the FFT of the chirp filter, and the linear and
    quadratic post-chirps; a flow dilates by one factor throughout.
    """
    c_ld = np.pi * _LD_ONE / (n_pts * np.longdouble(a))
    n_idx = np.arange(n_pts)
    k_idx = n_idx - n_pts // 2
    pre = _chirp_phase(c_ld, n_idx)
    m_idx = np.arange(-(3 * n_pts // 2 - 1), n_pts // 2)
    v = np.conj(_chirp_phase(c_ld, m_idx))
    size = 1
    while size < n_pts + len(v) - 1:
        size *= 2
    filt = np.fft.fft(v, size)
    lin = np.mod(c_ld * n_pts * k_idx.astype(np.longdouble), _LD_TWO_PI)
    e_lin = np.exp(1j * lin.astype(np.float64))
    e_k = _chirp_phase(c_ld, k_idx)
    for arr in (pre, filt, e_lin, e_k):
        arr.flags.writeable = False
    return pre, filt, e_lin, e_k


def _resample_trig(phys, x_max, a):
    """Evaluate fhat(omega_k / a) exactly from physical samples.

    Trigonometric resampling via a Bluestein chirp factorization:
    omega x_n = -k' pi / a + 2 c k' n with c = pi / (N a) and
    2 k' n = k'^2 + n^2 - (k' - n)^2, turning the sum into a linear
    convolution evaluated by FFT. Exact (to roundoff) for functions
    supported in the box, any real a > 0.
    """
    n_pts = phys.shape[0]
    dx = 2.0 * x_max / n_pts
    pre, filt, e_lin, e_k = _chirp_factors(n_pts, float(a))
    conv = np.fft.ifft(np.fft.fft(phys * pre, filt.shape[0]) * filt)
    s = conv[n_pts - 1 : 2 * n_pts - 1]
    # two post-factors, in this order: their product as one factor rounds
    # differently
    s = (s * e_lin) * e_k
    return dx * s


def dilate(f, a):
    """Spectral dilation: returns g with ghat(omega) = fhat(omega / a).

    Physically g(x) = a f(a x), so the total integral ghat(0) is preserved
    exactly (the omega = 0 node is pinned). For a > 1 the spectrum
    contracts; content of fhat beyond omega_max / a is pushed off the grid
    and must be negligible, otherwise UnderResolved is raised. For a < 1
    frequencies mapping outside the grid take the value 0, with the same
    guard on the content that would be lost.
    """
    if not (a > 0) or not math.isfinite(a):
        raise DomainError(f"dilation factor must be positive and finite, got {a}")
    grid = f.grid
    if a == 1.0:
        return f.copy()
    boundary = grid.omega_max / a if a > 1 else grid.omega_max * a
    lost = np.abs(grid.omega) >= boundary
    if np.any(lost):
        tail = float(np.max(np.abs(f.fhat[lost])))
        if tail > grid.tail_tol:
            raise UnderResolved(
                f"dilation by {a:g} would discard spectral content of size "
                f"{tail:.3e} beyond |omega| = {boundary:.4g} "
                f"(tail_tol {grid.tail_tol:g})"
            )
    out = _resample_trig(f.to_physical(), grid.x_max, a)
    out[grid.n_points // 2] = f.fhat[grid.n_points // 2]
    if a < 1.0:
        out[np.abs(grid.omega) > a * grid.omega_max] = 0.0
    if _is_real_field(f.fhat):
        # the chirp rounding leaves the image of a real field Hermitian only
        # to ~1e-16; rebuild it from its non-negative half
        out = _from_half(_to_half(out))
    return SpectralFunction(grid, out)


def eval_at_zero(f):
    """fhat(0), the total integral of f. Exact node read, no interpolation."""
    return f.at_zero


def to_csv(f, path):
    """Write the sorted-axis samples as CSV columns omega, re_fhat, im_fhat.

    Floats are written with repr so a read back reproduces them bit for bit.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("omega,re_fhat,im_fhat\n")
        for w, v in zip(f.grid.omega, f.fhat):
            fh.write(f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def from_csv(path):
    """Read a CSV written by to_csv back into a SpectralFunction.

    The grid is reconstructed from the frequency axis: x_max = pi / dw.
    Downstream grid compatibility checks are tolerant of the roundoff this
    introduces in x_max.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise DomainError(f"{path} is not a numeric CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise DomainError(f"expected 3 CSV columns omega,re,im in {path}")
    omega = data[:, 0]
    n = omega.shape[0]
    dws = np.diff(omega)
    if n < 4 or not np.allclose(dws, dws[0], rtol=1e-9, atol=0.0):
        raise DomainError(f"frequency axis in {path} is not uniform")
    if omega[n // 2] != 0.0:
        raise DomainError(f"frequency axis in {path} is not centered at zero")
    grid = GridSpec(n_points=n, x_max=float(np.pi / dws[0]))
    return SpectralFunction(grid, data[:, 1] + 1j * data[:, 2])
