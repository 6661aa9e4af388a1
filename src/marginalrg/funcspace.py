"""Frequency-side representation of functions on a uniform symmetric grid.

Functions live on x in [-x_max, x_max) with N uniform nodes and are stored
through their transform fhat(omega) = integral f(x) exp(-i omega x) dx,
sampled at omega_k = (k - N/2) * pi / x_max in ascending order. The inverse
carries the 1/(2pi) factor. All grid operations in the package go through
this module so the conventions live in exactly one place: the half-length
real pair _inverse_half and _forward_half.

Every function is real, so every spectrum is exactly Hermitian:
SpectralFunction refuses any other. Powers, derivatives, norms and
dilations hold stacks of rows in the half layout (_Layout): only the N/2+1
nodes omega >= 0 and -omega_max, with the full sorted axis built when a
caller needs it. A power transforms each row on the length that row's band
needs to keep aliased images off the kept nodes (_power_lengths), a
fraction of the grid for a well-resolved row. A dilation resamples real
samples onto the half nodes by a chirp convolution (_resample_trig), the
only complex FFTs of the package. A stack's rows are transformed and
normed in chunks that run on every CPU the process may use (_run_chunks),
with the same bits as on one.
"""

import contextvars
import dataclasses
import functools
import math
import mmap
import os
import queue
import threading
import warnings

import numpy as np

from .errors import DomainError, UnderResolved, UnderResolvedWarning

__all__ = [
    "GridSpec",
    "SpectralFunction",
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
        Bound on |fhat| over the two outermost frequency octaves, relative
        to max(1, peak |fhat|); above it a function counts as
        under-resolved (norm warnings, dilation guards).
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


def _is_real_field(fhat):
    """True when every row of fhat is exactly the transform of a real function.

    That is fhat(-omega) == conj(fhat(omega)) node for node, with fhat real
    at omega = 0 and at the unpaired node -omega_max. The test is exact, with
    no tolerance; a NaN fails it.
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


def _first_asymmetry(grid, fhat):
    # the first sorted node where _is_real_field fails, and its omega: node
    # k pairs with node N - k, and the nodes 0 (-omega_max) and N/2
    # (omega = 0) with themselves
    n = grid.n_points
    k = int(np.argmax(fhat != np.conj(fhat[-np.arange(n) % n])))
    return f"node {k} (omega = {float(grid.omega[k])!r})"


def _to_half(fhat):
    """The half layout of sorted spectra: the N/2+1 nodes omega = 0 ..
    omega_max - dw, with the -omega_max value last (the rfft layout)."""
    h = fhat.shape[-1] // 2
    return np.concatenate([fhat[..., h:], fhat[..., :1]], axis=-1)


def _from_half(half, out=None):
    """Sorted spectra rebuilt from the half layout of real fields.

    The negative half becomes the conjugate of the positive one and the
    -omega_max value its real part, so the result passes _is_real_field
    exactly. out, if given, receives them.
    """
    h = half.shape[-1] - 1
    if out is None:
        out = np.empty(half.shape[:-1] + (2 * h,), dtype=np.complex128)
    out[..., h:] = half[..., :h]
    out[..., 0] = half[..., h].real
    np.conjugate(out[..., :h:-1], out=out[..., 1:h])
    return out


@functools.lru_cache(maxsize=64)
def _half_weights(n, scale, last):
    # scale * (-1)^m on the nodes m = 0..n/2-1 of the half layout, and
    # last on its -omega_max node: fhat(m dw) = dx (-1)^m DFT[f]_m, the
    # sign being the e^{i m pi} boundary phase of x_0 = -x_max, so the grid
    # scale and the phase are one factor
    w = np.append(scale * (1.0 - 2.0 * (np.arange(n // 2) % 2)), last)
    w.flags.writeable = False
    return w


def _inverse_half(half, n, m, dx, out, weighted):
    """Real samples, on an m-point grid with spacing dx, of half spectra
    on an n-node grid.

    The irfft of each row, zero-padded to m points, into out; weighted,
    shaped like half, receives the weighted input. half holds all N/2+1
    nodes of each row, or, below m = n, its first m/2 (the band of a
    narrower grid). On a padded grid (m > n) the value at -omega_max is
    split half-and-half between +-omega_max, so the padded field is real
    too.
    """
    w = _half_weights(min(m, n), 1.0 / dx, (1.0 if m == n else 0.5) / dx)[: half.shape[-1]]
    return np.fft.irfft(np.multiply(half, w, out=weighted), m, out=out)


def _forward_half(phys, n, dx, out, spec):
    """Half spectra, on an n-node grid, of real samples with spacing dx.

    One rfft into spec (phys.shape[-1]//2 + 1 columns; it may be out
    itself when that is the whole rfft), then the band into out. From m =
    phys.shape[-1] >= n samples the band is all N/2+1 nodes, the
    -omega_max value being the real part of the +omega_max bin; from fewer
    it is the first m/2 nodes, and the rest of out is +0.0.
    """
    h = min(phys.shape[-1], n) // 2
    r = np.fft.rfft(phys, out=spec)
    w = _half_weights(2 * h, dx, dx)
    if h < n // 2:
        np.multiply(r[..., :h], w[:h], out=out[..., :h])
        out[..., h:] = 0.0
        return out
    nyquist = dx * r[..., h].real
    np.multiply(r[..., : h + 1], w, out=out)
    out[..., h] = nyquist
    return out


class _Layout:
    """How a stack of real fields' spectral rows on one grid is held and
    transformed.

    Rows hold the half layout of _to_half, the negative half being the
    conjugate of the positive one, and powers and derivatives take
    half-length real FFTs. Every element-wise step maps the half of a
    Hermitian input to the half of its Hermitian output, so the half rows
    hold the numbers the sorted axis would.

    power, deriv and norm write into out when given, else into a new
    array, and take their scratch from work (a _Workspace), else from a
    new one.
    """

    __slots__ = ("grid",)

    def __init__(self, grid):
        self.grid = grid

    def rows(self, fhat):
        """Sorted spectra held in this layout."""
        return _to_half(fhat)

    def expand(self, rows):
        """Sorted spectra of rows held in this layout, in a new array."""
        return _from_half(rows)

    def abs_omega_pow(self, d):
        """|omega|**d on this layout's nodes, cached per (grid, d)."""
        return _abs_omega_pow(self.grid, float(d), True)

    def power(self, rows, coeffs, out=None, work=None):
        """Transform of sum_p c_p u^p for one row or each row of a stack.

        Each row is embedded in a grid with the same x_max (the same
        frequency spacing) and as many points as its band needs
        (_power_lengths), and restricted to the original band after the
        products: one irfft, the sum formed in physical space and one
        rfft. A stack runs in _chunks, shared out by _run_chunks, each
        chunk through power_chunk.
        """
        out = np.empty(rows.shape, np.complex128) if out is None else out
        work = _Workspace() if work is None else work
        width = rows.shape[-1]
        # a view for one row or a stack, so each chunk writes into out
        stack, dest = rows.reshape(-1, width), out.reshape(-1, width)
        chunks = _chunks(*stack.shape)
        _run_chunks(lambda c: self.power_chunk(stack[c], coeffs, dest[c], work), chunks)
        return out

    def power_chunk(self, chunk, coeffs, out, work):
        """power of a chunk of rows into out, on the calling thread.

        Each run of adjacent rows with one transform length goes through
        together, a few rows at a time, as many as that length's share of
        the budget (_rows_per_chunk), so the scratch (slots 0-2 of work)
        never outgrows a slot. Every row is read before its output is
        written, so out may be chunk itself.
        """
        n = self.grid.n_points
        lengths = _power_lengths(chunk, max(coeffs), n, work.scratch(2, chunk.shape, np.float64))
        edges = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(lengths)]
        for start, stop in zip(edges[:-1], edges[1:]):
            m = int(lengths[start])
            step = _rows_per_chunk(m // 2 + 1)
            for lo in range(start, stop, step):
                self._power_rows(chunk, slice(lo, min(lo + step, stop)), coeffs, out, m, work)
        return out

    def _power_rows(self, chunk, sel, coeffs, out, m, work):
        # the rows sel (a slice) of chunk through the transforms of length
        # m, into out
        n = self.grid.n_points
        dx = 2.0 * self.grid.x_max / m
        rows = chunk[sel, : n // 2 + 1 if m >= n else m // 2]
        k = len(rows)
        # slot 1 holds the padded field, then its rfft
        spec = work.scratch(1, (k, m // 2 + 1))
        phys = _inverse_half(
            rows, n, m, dx, work.scratch(1, (k, m), np.float64), work.scratch(0, rows.shape)
        )
        total = _poly(phys, coeffs, work.scratch(2, phys.shape, np.float64))
        _forward_half(total, n, dx, out[sel], spec)

    def deriv(self, rows, out=None, work=None):
        """Frequency derivative fhat' of each row: the transform of (-i x) f(x)."""
        out = np.empty(rows.shape, np.complex128) if out is None else out
        grid = self.grid
        n, dx = grid.n_points, grid.dx
        work = _Workspace() if work is None else work
        # x f is real, so its half spectrum expands; fhat' = -i times it
        phys = work.scratch(2, rows.shape[:-1] + (n,), np.float64)
        phys = _inverse_half(rows, n, n, dx, phys, out)
        np.multiply(grid.x, phys, out=phys)
        _forward_half(phys, n, dx, out, out)
        return np.multiply(-1j, out, out=out)

    def norm(self, rows, deriv, q, out=None, work=None):
        """Weighted sup norm of each row of a stack, given its derivative rows.

        The row-stack form of weighted_norm. Returns the norms (in out) and
        the stack's tail: the largest |fhat| of any row on the outer
        octaves, which the caller passes to _warn_if_under_resolved once
        per stack. In the half layout the outer octaves are the contiguous
        nodes [N/8:], and |fhat|, |fhat'| are even, so the sup over the
        half is the sup.
        """
        if q < 0:
            raise DomainError(f"norm weight exponent must be nonnegative, got {q}")
        work = _Workspace() if work is None else work
        size = np.abs(rows, out=work.scratch(2, rows.shape, np.float64))
        tail = float(np.max(size[..., self._outer_octaves()]))
        total = np.add(size, np.abs(deriv, out=work.scratch(3, rows.shape, np.float64)), out=size)
        weight = 1.0 + self.abs_omega_pow(q)
        return np.max(np.multiply(weight, total, out=total), axis=-1, out=out), tail

    def _outer_octaves(self):
        # the two outermost octaves |omega| >= omega_max / 4: the nodes N/8
        # onward of the half layout, its -omega_max node last
        return slice(self.grid.n_points // 8, None)


def _tail_limit(grid, fhat):
    """The largest tail (_Layout.norm) allowed on fields of fhat's size:
    tail_tol times max(1, peak |fhat|).

    A non-finite peak leaves tail_tol absolute, so that an inf or NaN
    tail still exceeds it.
    """
    peak = float(np.max(np.abs(fhat)))
    return grid.tail_tol * (max(1.0, peak) if math.isfinite(peak) else 1.0)


def _warn_if_under_resolved(tail, limit):
    """Warn when a norm's tail (_Layout.norm) exceeds limit (_tail_limit).

    The warning points at the caller of the function that calls this one;
    a NaN tail warns too.
    """
    if not tail <= limit:
        warnings.warn(
            "input spectrum is not negligible on the outer frequency "
            "octaves; the reported norm may be under-resolved",
            UnderResolvedWarning,
            stacklevel=3,
        )


class SpectralFunction:
    """A real function represented by its transform samples on a GridSpec.

    The samples are stored as complex128 on the sorted frequency axis and
    are exactly Hermitian (_is_real_field): a spectrum that is not raises
    DomainError, naming the first node that breaks the symmetry. The class
    is a thin value wrapper: arithmetic returns new instances and never
    mutates operands, and sums, differences and real multiples of real
    fields stay real node for node.
    """

    __slots__ = ("grid", "fhat")

    def __init__(self, grid, fhat):
        fhat = np.asarray(fhat, dtype=np.complex128)
        if fhat.shape != (grid.n_points,):
            raise DomainError(
                f"fhat must have shape ({grid.n_points},), got {fhat.shape}"
            )
        if not _is_real_field(fhat):
            raise DomainError(
                "fhat is not the transform of a real function: fhat(-omega) != "
                f"conj(fhat(omega)) at {_first_asymmetry(grid, fhat)}"
            )
        self.grid = grid
        self.fhat = fhat

    def copy(self):
        return SpectralFunction(self.grid, self.fhat.copy())

    @property
    def at_zero(self):
        """fhat at omega = 0 (the total integral of f)."""
        return complex(self.fhat[self.grid.n_points // 2])

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
    layout = _Layout(f.grid)
    rows = layout.rows(f.fhat)[np.newaxis]
    norms, tail = layout.norm(rows, layout.deriv(rows), q)
    _warn_if_under_resolved(tail, _tail_limit(f.grid, rows))
    return float(norms[0])


def pointwise_power(f, k):
    """Transform of f(x)**k, dealiased by zero padding in frequency.

    The transform length is the shortest at which no image of the
    degree-k product of f's band lands on a kept node (_power_lengths),
    so the retained band carries no aliased images of the product.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise DomainError(f"power must be an integer >= 2, got {k}")
    layout = _Layout(f.grid)
    return SpectralFunction(f.grid, layout.expand(layout.power(layout.rows(f.fhat), {k: 1.0})))


# Byte budget of the chunks of rows in the whole-stack transforms that run
# at one time, one chunk per thread.
_CHUNK_BYTES = 1 << 20

# Threads that run a stack's chunks (_run_chunks): the caller and
# _WORKERS - 1 helpers, one per CPU the process may run on (its affinity
# mask where the platform has one).
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _rows_per_chunk(width):
    # the rows of width complex values in one thread's share of the budget
    return max(1, _CHUNK_BYTES // _WORKERS // (16 * width))


def _chunks(n_rows, width):
    """Balanced row slices of a stack with rows of width complex values.

    Whole-stack transforms and norms run chunk by chunk on _WORKERS
    threads (_run_chunks). The chunks number a multiple of _WORKERS (or
    one per row, when there are fewer rows), differ by at most one row,
    and hold at most _CHUNK_BYTES // _WORKERS each unless a single row is
    larger. While a row fits that share, the scratch of the chunks in
    flight (_Workspace.scratch) stays within _CHUNK_BYTES, small next to
    the stacks; past it (a full-band row's cube on the canonical grid,
    8640 points, on 16 or more CPUs) a group of the power is one row and
    the scratch grows with _WORKERS. A batched transform matches the
    per-row one bit for bit, so the chunking never changes a result.
    """
    count = -(-n_rows // _rows_per_chunk(width))
    count = min(n_rows, -(-count // _WORKERS) * _WORKERS)
    return [slice(n_rows * i // count, n_rows * (i + 1) // count) for i in range(count)]


_helpers = []  # each helper thread's queue of (context, _Run) tasks
_helpers_lock = threading.Lock()


class _Run:
    """One _run_chunks call: chunks that each thread claims one at a time."""

    __slots__ = ("body", "chunks", "ordered", "lock", "turns", "turn", "error", "done")

    def __init__(self, body, chunks, ordered):
        self.body = body
        self.chunks = iter(enumerate(chunks))
        self.ordered = ordered
        self.lock = threading.Lock()
        self.turns = threading.Condition(self.lock)
        self.turn = 0  # the chunk whose ordered stage runs next
        self.error = None
        self.done = queue.SimpleQueue()  # one item per finished helper task

    def work(self):
        while True:
            with self.lock:
                claim = None if self.error is not None else next(self.chunks, None)
            if claim is None:
                return
            index, c = claim
            try:
                if self.ordered:
                    self.body(c, _Turn(self, index))
                else:
                    self.body(c)
            except BaseException as exc:  # the caller raises it
                self.fail(exc)

    def fail(self, exc):
        # keep the first exception and release every thread waiting for a turn
        with self.lock:
            if self.error is None:
                self.error = exc
            self.turns.notify_all()


class _Stop(Exception):
    """Raised in a body waiting for its turn once another chunk has failed."""


class _Turn:
    """The ordered stage of one chunk (_run_chunks with ordered): a context
    entered once every chunk before it has left its own."""

    __slots__ = ("run", "index")

    def __init__(self, run, index):
        self.run, self.index = run, index

    def __enter__(self):
        run = self.run
        with run.turns:
            while run.error is None and run.turn != self.index:
                run.turns.wait()
            if run.error is not None:
                raise _Stop

    def __exit__(self, kind, exc, tb):
        run = self.run
        if kind is not None:  # the turn never passes: the chunks after wait for nothing
            run.fail(exc)
            return
        with run.turns:
            run.turn += 1
            run.turns.notify_all()


def _serve(tasks):
    # a helper's loop; it holds nothing of a task while it waits for the next
    while True:
        context, run = tasks.get()
        context.run(run.work)
        done = run.done
        del context, run
        done.put(None)


def _forget_helpers():
    # a forked child has none of its parent's threads: it starts its own,
    # with a lock of its own
    global _helpers_lock
    _helpers.clear()
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _start_helpers():
    with _helpers_lock:
        while len(_helpers) < _WORKERS - 1:
            tasks = queue.SimpleQueue()
            name = f"marginalrg-chunks-{len(_helpers) + 1}"
            threading.Thread(target=_serve, args=(tasks,), name=name, daemon=True).start()
            _helpers.append(tasks)


def _run_chunks(body, chunks, ordered=False):
    """Call body(c) for each chunk slice c of a stack, on _WORKERS threads.

    The calling thread and up to _WORKERS - 1 daemon helper threads, which
    start on the first call with two or more chunks, each claim the next
    chunk in order until none is left. A call gives its tasks to the
    first helpers, each through a queue of its own, so calls with as many
    chunks run on the same threads, and a workspace's per-thread scratch
    (_Workspace.scratch) serves them all. A body reads and writes only its
    chunk's rows and its thread's scratch slots, and numpy releases the
    GIL in the transforms and element-wise steps, so the chunks overlap
    and every result is the serial one bit for bit.

    ordered adds a middle stage that runs in chunk order: the body is
    called as body(c, turn) and enters the context turn exactly once;
    the turn of chunk c comes once every chunk before it has left its own.
    What a body does inside its turn may read what the turns before it
    wrote (the Duhamel recurrence carried across chunks), and the rest of
    each body overlaps the other threads' turns. A thread holds one chunk
    at a time, and chunks are claimed in order, so a waiting turn's
    predecessors are all held by running threads.

    A helper runs its task in a copy of the caller's context, so the
    caller's numpy errstate applies there. The first exception a body
    raises, in any stage, releases every thread waiting for a turn and is
    raised here once every thread has stopped. Warnings meant for the
    caller are raised after this returns (_Layout.norm returns its tail
    for that). A body must not call _run_chunks itself.
    """
    helpers = min(len(chunks), _WORKERS) - 1
    run = _Run(body, chunks, ordered)
    if helpers >= 1:
        _start_helpers()
        for tasks in _helpers[:helpers]:
            tasks.put((contextvars.copy_context(), run))
    run.work()
    for _ in range(helpers):
        run.done.get()
    error, run = run.error, None
    if error is not None:
        try:
            raise error
        finally:
            error = None  # no cycle through this frame


# Row stacks of at least this many bytes get an anonymous mapping of their
# own (_empty_stack); smaller ones come from the malloc heap.
_MAPPED_STACK_BYTES = 8 << 20


def _empty_stack(shape):
    """An uninitialised complex row stack; a large one in a mapping of its own.

    Dropping the last reference to a mapped stack unmaps it, so the
    resident memory of a solve is the stack it holds. From the malloc heap
    a freed stack of up to 32 MiB (glibc's dynamic mmap threshold) stays
    resident, and whether the next one reuses it depends on where unrelated
    small blocks landed in between: the peak of a process would then differ
    from run to run by whole stacks. Stacks of a few MiB (a block on the
    canonical grid) stay on the heap; a freed one is not kept warm (glibc
    trims the heap top and the next stack faults its pages in again), so
    a flow passes its iterate from each block's solution to the next
    instead of freeing it.
    """
    size = math.prod(shape) * 16
    if size < _MAPPED_STACK_BYTES:
        return np.empty(shape, dtype=np.complex128)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.complex128).reshape(shape)


def _empty_scratch(size):
    """An uninitialised scratch buffer of at least size bytes.

    At least _CHUNK_BYTES // _WORKERS: the scratch of one chunk (_chunks)
    stays within that budget unless a single row exceeds it, so the slots
    of a solve are allocated once and never grow. complex128 elements keep
    every view of it aligned for any dtype.
    """
    return np.empty(-(-max(size, _CHUNK_BYTES // _WORKERS) // 16), np.complex128)


class _Workspace:
    """Scratch that chunk steps reuse instead of allocating.

    Scratch buffers are numbered slots (scratch) that the chunk steps view
    at the shape and dtype they need. Each thread that runs chunks
    (_run_chunks) has a set of its own, held in a threading.local, and a
    slot grows only for a request larger than it (_empty_scratch). While
    a row fits _CHUNK_BYTES // _WORKERS (_chunks), the sets together hold
    about _CHUNK_BYTES per slot; past that each set holds a whole row, so
    the scratch grows with _WORKERS. The slots in use:
    - _Layout.power_chunk: 0-2;
    - _Layout.deriv: 2;
    - _Layout.norm: 2 and 3;
    - blocksolver._duhamel_rows: 0 and 1;
    - blocksolver._row_multipliers: 2, a chunk's kernel multipliers, read
      before the next step that uses slot 2.
    So a caller may keep its own chunk in slots 0 and 1 across deriv and
    norm (the Picard update and its derivative, u0's chunk in a warm
    start), in slot 3 across power_chunk, _row_multipliers and
    _duhamel_rows (a Picard sweep's integrand, which becomes its new
    rows), and in slot 2 across _duhamel_rows (the sweep's step
    multipliers), but in no slot across all of them.

    The workspace holds no stack: a solve allocates its iterate or takes
    a start's spent rows, and the solution owns them. A flow creates one
    for all its blocks; a lone solve, and a layout call given none
    (marginal_response's power, one-row calls), makes its own. Nothing
    outlives the workspace's last reference.
    """

    __slots__ = ("_scratch",)

    def __init__(self):
        self._scratch = threading.local()

    def scratch(self, slot, shape, dtype=np.complex128):
        """Slot's buffer in the running thread's set, viewed as an
        uninitialised array of shape and dtype."""
        slots = vars(self._scratch).setdefault("slots", [None] * 4)
        buf = slots[slot]
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if buf is None or buf.nbytes < size:
            buf = slots[slot] = _empty_scratch(size)
        return np.ndarray(shape, dtype, buf)


# A row's band (_power_lengths) ends at its last node above this fraction
# of its peak |fhat|, a little above the rounding floor of the transforms
# that formed it.
_BAND_EPS = 2.0**-50


@functools.lru_cache(maxsize=16)
def _band_lengths(n, k):
    """The transform length of a degree-k power on an n-node grid for each
    band b = 0 .. n/2 + 1 of a row (_power_lengths).

    The smallest length at which no image of the row's degree-k product
    lands on a node that is kept: m >= 2kb below n, where only the first
    m/2 nodes are formed, else m > k(b-1) + n/2. The lengths are powers of
    two below n, which keep a chunk's narrow rows on few lengths, and
    every even 2^a 3^b 5^c from n on, which keeps a wide band's length
    within a few percent of its bound.
    """
    top = (k + 1) * n
    smooth = {2}
    for factor in (2, 3, 5):
        for m in sorted(smooth):
            while m * factor <= top:
                m *= factor
                smooth.add(m)
    lengths = np.array(sorted(m for m in smooth if m >= n or m & (m - 1) == 0))
    band = np.arange(n // 2 + 2)
    small = lengths[np.searchsorted(lengths, np.minimum(2 * k * band, n))]
    large = lengths[np.searchsorted(lengths, np.maximum(n, k * (band - 1) + n // 2 + 1))]
    table = np.where(small < n, small, large)
    table.flags.writeable = False
    return table


def _power_lengths(rows, k, n, mag):
    """The transform length of each row's degree-k power on an n-node grid.

    A row's band b is one more than its last half-layout node whose |fhat|
    exceeds _BAND_EPS times the row's peak |fhat|, and its length is that
    of _band_lengths. A row that is significant at -omega_max (its last
    node), or holds an inf or a NaN, or is zero (no node exceeds such a
    peak), has the full band N/2+1. mag, shaped like rows, receives
    |rows|.
    """
    np.abs(rows, out=mag)
    inside = mag > _BAND_EPS * np.max(mag, axis=-1, keepdims=True)
    return _band_lengths(n, k)[rows.shape[-1] - np.argmax(inside[:, ::-1], axis=-1)]


def _poly(u, coeffs, acc):
    # sum_p c_p u^p by Horner's rule into acc, products only: `**` on a real
    # field with subnormal tails costs more than the whole transform
    top = max(coeffs)
    np.multiply(coeffs[top], u, out=acc)
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

    The pre-chirp on the N samples, the FFT of the chirp filter on the
    lags k - n = -(N-1) .. N/2, and the linear and quadratic post-chirps
    on the N/2+1 half nodes k = 0 .. N/2; a flow dilates by one factor
    throughout. The FFT length is the first power of two at which the
    linear convolution does not wrap.
    """
    c_ld = np.pi * _LD_ONE / (n_pts * np.longdouble(a))
    k_idx = np.arange(n_pts // 2 + 1)
    pre = _chirp_phase(c_ld, np.arange(n_pts))
    v = np.conj(_chirp_phase(c_ld, np.arange(-(n_pts - 1), n_pts // 2 + 1)))
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
    """Evaluate fhat(omega_k / a) exactly from real physical samples, on
    the half nodes omega_k = k dw, k = 0 .. N/2.

    Trigonometric resampling via a Bluestein chirp factorization
    (Rabiner, Schafer and Rader, 1969): omega_k x_n = -k pi / a + 2 c k n
    with c = pi / (N a) and 2 k n = k^2 + n^2 - (k - n)^2, turning the
    sum into a linear convolution evaluated by FFT. Exact (to roundoff)
    for functions supported in the box, any real a > 0. The last value,
    at +omega_max, is the conjugate of the one at -omega_max.
    """
    n_pts = phys.shape[0]
    dx = 2.0 * x_max / n_pts
    pre, filt, e_lin, e_k = _chirp_factors(n_pts, float(a))
    conv = np.fft.ifft(np.fft.fft(phys * pre, filt.shape[0]) * filt)
    s = conv[n_pts - 1 : 3 * n_pts // 2]
    # two post-factors, in this order: their product as one factor rounds
    # differently
    s = (s * e_lin) * e_k
    return dx * s


def dilate(f, a):
    """Spectral dilation: returns g with ghat(omega) = fhat(omega / a).

    Physically g(x) = a f(a x), so the total integral ghat(0) is preserved
    exactly (the omega = 0 node is pinned). Every RG block rescales by
    L^((p+1)/d), so a >= 1 (a = 1 is the identity): the spectrum contracts,
    and content of fhat beyond omega_max / a, pushed off the grid, must be
    negligible (within _tail_limit), otherwise UnderResolved is raised.
    The field goes to real samples and comes back as a half spectrum,
    whose expansion is exactly Hermitian.
    """
    if not (a >= 1.0) or not math.isfinite(a):
        raise DomainError(f"dilation factor must be finite and at least 1, got {a}")
    grid = f.grid
    if a == 1.0:
        return f.copy()
    n = grid.n_points
    half = _to_half(f.fhat)
    boundary = grid.omega_max / a
    lost = half[_abs_omega_pow(grid, 1.0, True) >= boundary]
    if lost.size:
        tail = float(np.max(np.abs(lost)))
        limit = _tail_limit(grid, half)
        if tail > limit:
            raise UnderResolved(
                f"dilation by {a:g} would discard spectral content of size "
                f"{tail:.3e} beyond |omega| = {boundary:.4g} "
                f"(tail_tol {grid.tail_tol:g} of max(1, peak |fhat|): {limit:.3e})"
            )
    out = _resample_trig(_inverse_half(half, n, n, grid.dx, None, None), grid.x_max, a)
    out[0] = half[0]
    return SpectralFunction(grid, _from_half(out))


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
