"""Grid representation, norm, powers, multipliers, dilation."""

import math
import mmap
import os
import re
import signal
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from block_oracles import FullRealLayout, deriv_rows, forward_sorted, inverse_sorted
from hypothesis import given, settings
from hypothesis import strategies as st

from marginalrg import config, rgflow
from marginalrg import funcspace as fs
from marginalrg.blocksolver import Nonlinearity, SolverParams, solve_block
from marginalrg.errors import DomainError, UnderResolved, UnderResolvedWarning
from marginalrg.kernel import heat_kernel
from marginalrg.timechange import TimeChange

GRID = fs.GridSpec()


def gauss(a=1.0, grid=GRID):
    return fs.from_profile(grid, lambda w: np.exp(-a * w**2))


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        fs.GridSpec(n_points=3000)
    with pytest.raises(DomainError):
        fs.GridSpec(n_points=128)
    with pytest.raises(DomainError):
        fs.GridSpec(x_max=0.0)
    with pytest.raises(DomainError):
        fs.GridSpec(tail_tol=0.0)


def test_grid_axes():
    g = fs.GridSpec(n_points=1024, x_max=50.0)
    assert g.dw == pytest.approx(np.pi / 50.0, rel=1e-15)
    assert g.omega[g.n_points // 2] == 0.0
    assert g.x[0] == -50.0
    assert g.omega_max == pytest.approx(512 * np.pi / 50.0, rel=1e-15)
    assert g.omega[-1] == pytest.approx(g.omega_max - g.dw, rel=1e-12)


def forward(phys, grid=GRID):
    # half spectra of real samples on the grid, through the package's pair
    n = grid.n_points
    out = np.empty(phys.shape[:-1] + (n // 2 + 1,), complex)
    return fs._forward_half(phys, n, grid.dx, out, None)


def inverse(half, grid=GRID):
    return fs._inverse_half(half, grid.n_points, grid.n_points, grid.dx, None, None)


def test_round_trip_identity():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-5.0, 5.0, size=4)
    phys = sum(np.exp(-((GRID.x - c) ** 2)) for c in centers)
    back = inverse(forward(phys))
    assert np.max(np.abs(back - phys)) < 1e-12


def test_forward_matches_continuum_gaussian():
    # f(x) = (4 pi)^{-1/2} e^{-x^2/4} has transform e^{-omega^2}, both ways
    # through the half pair; an odd part shifts the phase, (x/2) f(x) having
    # transform -i omega e^{-omega^2}
    phys = np.exp(-GRID.x**2 / 4.0) / math.sqrt(4.0 * math.pi)
    fhat = fs._to_half(np.exp(-GRID.omega**2))
    assert np.max(np.abs(forward(phys) - fhat)) < 1e-13
    assert np.max(np.abs(inverse(fhat) - phys)) < 1e-13
    odd = fs._to_half(-1j * GRID.omega * np.exp(-GRID.omega**2))
    assert np.max(np.abs(forward(0.5 * GRID.x * phys) - odd)) < 1e-13
    # the sorted-axis complex pair of the tests agrees with it
    assert np.max(np.abs(fs._to_half(forward_sorted(phys, GRID.dx)) - forward(phys))) < 1e-15


def test_norm_zero_and_homogeneity():
    assert fs.weighted_norm(fs.zero_function(GRID), 2) == 0.0
    f = gauss()
    v = fs.weighted_norm(f, 2)
    assert fs.weighted_norm(3.7 * f, 2) == pytest.approx(3.7 * v, rel=1e-12)


def test_norm_gaussian_value():
    # dense 1-D grid-search oracle of sup (1+w^2)(e^{-w^2} + 2|w| e^{-w^2}),
    # attained near w = 0.8617: 2.258476577173032; the grid supremum sits a
    # hair below the true one (node spacing pi/40)
    v = fs.weighted_norm(gauss(), 2)
    assert v == pytest.approx(2.258476577173032, abs=5e-5)
    # regression pin of the default-grid supremum
    assert v == pytest.approx(2.258463169680556, rel=1e-12)


def test_norm_warns_when_under_resolved():
    slow = fs.from_profile(GRID, lambda w: 1.0 / (1.0 + w**2))
    with pytest.warns(UnderResolvedWarning):
        fs.weighted_norm(slow, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fs.weighted_norm(gauss(), 2)


def stack(n_rows=37, grid=GRID):
    # Gaussians of several widths, one per row, with an odd part so fhat
    # is complex
    widths = np.linspace(0.5, 3.0, n_rows)[:, None]
    w = grid.omega
    return np.exp(-widths * w**2) * (1.0 + 0.3j * w)


def test_stacked_transforms_match_rows():
    rows = fs._to_half(stack())
    phys = inverse(rows)
    assert np.array_equal(phys, np.array([inverse(r) for r in rows]))
    assert np.array_equal(forward(phys), np.array([forward(p) for p in phys]))


def test_large_stacks_are_mapped():
    small = fs._empty_stack((4, 8))
    assert small.base is None
    width = fs._MAPPED_STACK_BYTES // (3 * 16) + 1
    big = fs._empty_stack((3, width))
    assert big.shape == (3, width) and big.dtype == np.complex128
    owner = big.base
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner.obj, mmap.mmap)
    big[...] = 2.0
    assert np.all(big == 2.0)


def chunked_norms(layout, rows, q, work):
    # the solver's chunk loop: derivative and norm of each chunk into the
    # workspace's scratch and the out= view of one result array
    out = np.empty(rows.shape[0])
    for c in fs._chunks(*rows.shape):
        d = layout.deriv(rows[c], work.scratch(1, rows[c].shape), work)
        layout.norm(rows[c], d, q, out[c], work)
    return out


def test_stacked_norm_matches_rows():
    # 65 rows: not a multiple of the half-layout (31) or the full-width (16)
    # chunk, so the chunked norms end on a partial chunk
    rows = stack(65)
    assert fs._is_real_field(rows)
    full = FullRealLayout(GRID)
    half = fs._Layout(GRID)
    work = fs._Workspace()
    held = half.rows(rows)
    assert held.shape == (rows.shape[0], GRID.n_points // 2 + 1)
    assert np.array_equal(half.expand(held), rows)
    for q in (0, 2, 4):
        stacked, _ = full.norm(rows, deriv_rows(rows, GRID), q)
        # per-row reference: the weighted_norm formula on one row at a time,
        # with complex transforms; the rows are real fields, which the norm
        # transforms as such, so the two agree to rounding
        weight, dx = 1.0 + np.abs(GRID.omega) ** q, GRID.dx
        derivs = [forward_sorted(-1j * GRID.x * inverse_sorted(r, dx), dx) for r in rows]
        expected = [np.max(weight * (np.abs(r) + np.abs(d))) for r, d in zip(rows, derivs)]
        assert np.allclose(stacked, expected, rtol=1e-13, atol=0.0)
        assert np.array_equal(
            stacked, [fs.weighted_norm(fs.SpectralFunction(GRID, r), q) for r in rows]
        )
        # the sup over the half layout is the sup over the whole axis
        assert np.array_equal(half.norm(held, half.deriv(held), q)[0], stacked)
        assert np.array_equal(chunked_norms(half, held, q, work), stacked)
        assert np.array_equal(chunked_norms(full, rows, q, work), stacked)
    # the half layout's outer octaves |omega| >= omega_max / 4 are its nodes [N/8:]
    band = np.flatnonzero(fs._to_half(np.abs(GRID.omega) >= 0.25 * GRID.omega_max))
    assert np.array_equal(band, np.arange(GRID.n_points // 8, GRID.n_points // 2 + 1))
    # a tail on the first node of the band warns in both layouts, one node
    # further in does not; the norm returns the tail, its caller warns
    for k, warns in ((GRID.n_points // 8, True), (GRID.n_points // 8 - 1, False)):
        edge = np.where(np.abs(GRID.omega) == k * GRID.dw, 1e-6, 0.0).astype(complex)
        for layout in (full, half):
            held = layout.rows(edge[np.newaxis])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _, tail = layout.norm(held, layout.deriv(held), 2)
                fs._warn_if_under_resolved(tail, GRID.tail_tol)
            assert (len(caught) == 1) == warns
    # one under-resolved row is enough for the stack's warning, in either layout
    rows[5] = 1.0 / (1.0 + GRID.omega**2)
    with pytest.warns(UnderResolvedWarning):
        fs._warn_if_under_resolved(full.norm(rows, deriv_rows(rows, GRID), 2)[1], GRID.tail_tol)
    held = half.rows(rows)
    with pytest.warns(UnderResolvedWarning):
        fs._warn_if_under_resolved(half.norm(held, half.deriv(held), 2)[1], GRID.tail_tol)
    with pytest.raises(DomainError):
        half.norm(held, held, -1)


def test_chunks_are_balanced_and_share_out_evenly(monkeypatch):
    # a multiple of the thread count (or one chunk per row), sizes within
    # one row of each other, and each within its thread's share of the
    # budget unless one row alone exceeds it
    for workers in (1, 2, 3):
        monkeypatch.setattr(fs, "_WORKERS", workers)
        for n_rows, width in ((65, 2049), (65, 4098), (193, 8193), (1, 4096), (2, 513), (7, 1 << 17)):
            chunks = fs._chunks(n_rows, width)
            sizes = [c.stop - c.start for c in chunks]
            assert chunks[0].start == 0 and chunks[-1].stop == n_rows
            assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            assert len(chunks) % workers == 0 or len(chunks) == n_rows
            assert max(sizes) == 1 or 16 * width * max(sizes) <= fs._CHUNK_BYTES // workers


@pytest.fixture
def threads(monkeypatch):
    # at least two threads share out the chunks, whatever the CPU count
    monkeypatch.setattr(fs, "_WORKERS", max(2, fs._WORKERS))


class WeakWorkspace(fs._Workspace):
    """A workspace that takes weak references (no __slots__)."""


def test_threaded_calls_keep_no_reference(threads):
    # a helper drops the task (the body's closure over the arrays and the
    # workspace) before it waits for the next one
    layout = fs._Layout(GRID)
    held = layout.rows(gauss().fhat)[np.newaxis].repeat(37, axis=0)
    assert len(fs._chunks(len(held), 2 * held.shape[-1])) > 1
    work, out = WeakWorkspace(), np.empty_like(held)
    layout.power(held, {2: 1.0}, out, work)
    refs = [weakref.ref(work), weakref.ref(out)]
    del work, out
    assert [r() for r in refs] == [None, None]


def test_each_thread_keeps_scratch_of_its_own(monkeypatch):
    # two threads hold a chunk each at once: each views a slot buffer of
    # its own, the same one on every later call (an idle helper takes no
    # task), and none outlives the workspace
    monkeypatch.setattr(fs, "_WORKERS", 3)
    fs._start_helpers()
    monkeypatch.setattr(fs, "_WORKERS", 2)
    work = fs._Workspace()
    both = threading.Barrier(2, timeout=10)
    bufs = {}  # thread -> weak references to the slot buffers it viewed

    def body(c):
        both.wait()
        view = work.scratch(0, (4,))
        bufs.setdefault(threading.get_ident(), []).append(weakref.ref(view.base))

    for _ in range(3):
        fs._run_chunks(body, [slice(0, 1), slice(1, 2)])
    held = [{id(ref()) for ref in refs} for refs in bufs.values()]
    assert len(held) == 2 and all(len(ids) == 1 for ids in held)
    assert len(set.union(*held)) == len(held)
    del work, body
    assert all(ref() is None for refs in bufs.values() for ref in refs)


def test_a_helper_exception_reaches_the_caller(threads):
    caller = threading.current_thread()
    chunks = [slice(i, i + 1) for i in range(8)]
    helper_ran = threading.Event()

    def body(c):
        # the caller's first chunk waits until a helper has raised
        if threading.current_thread() is caller:
            assert helper_ran.wait(10)
        else:
            helper_ran.set()
            raise ValueError("raised in a helper")

    with pytest.raises(ValueError, match="raised in a helper"):
        fs._run_chunks(body, chunks)
    # the helpers stay usable
    seen = np.zeros(8)

    def count(c):
        seen[c] += 1

    fs._run_chunks(count, chunks)
    assert np.array_equal(seen, np.ones(8))


def test_every_chunk_runs_once_under_contention(monkeypatch):
    # more threads than CPUs and a switch interval of a microsecond: a
    # chunk claimed twice or never shows in the counts
    monkeypatch.setattr(fs, "_WORKERS", max(4, fs._WORKERS + 2))
    chunks = [slice(i, i + 1) for i in range(64)]
    seen = np.zeros(64, dtype=np.int64)

    def count(c):
        seen[c] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            fs._run_chunks(count, chunks)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(seen, np.full(64, 100))


def test_turns_run_in_chunk_order_under_contention(monkeypatch):
    # the ordered stage of each chunk runs after every one before it, one
    # at a time, while the stages around it overlap: a turn taken early,
    # twice or together with another shows in the carried sequence
    monkeypatch.setattr(fs, "_WORKERS", max(4, fs._WORKERS + 2))
    chunks = [slice(i, i + 1) for i in range(64)]
    carried, inside = [], [0]

    def body(c, turn):
        with turn:
            inside[0] += 1
            carried.append((c.start, inside[0]))
            inside[0] -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            carried.clear()
            fs._run_chunks(body, chunks, ordered=True)
            assert carried == [(i, 1) for i in range(64)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("where", ["before its turn", "in its turn"])
def test_a_failed_chunk_releases_the_turns_after_it(monkeypatch, where):
    # chunk 0 fails while the other thread holds chunk 1 and waits for its
    # turn: that thread is released, and the exception reaches the caller
    # in bounded time; the helpers stay usable
    monkeypatch.setattr(fs, "_WORKERS", 2)
    chunks = [slice(i, i + 1) for i in range(8)]
    second = threading.Event()

    def body(c, turn):
        if c.start == 1:
            second.set()
        elif c.start == 0:
            assert second.wait(10)
            time.sleep(0.05)  # chunk 1 is waiting for its turn by now
            if where == "before its turn":
                raise ValueError(f"raised {where}")
        with turn:
            if c.start == 0:
                raise ValueError(f"raised {where}")

    raised = []

    def call():
        try:
            fs._run_chunks(body, chunks, ordered=True)
        except ValueError as exc:
            raised.append(str(exc))

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(10)
    assert not runner.is_alive()
    assert raised == [f"raised {where}"]
    order = []

    def record(c, turn):
        with turn:
            order.append(c.start)

    fs._run_chunks(record, chunks, ordered=True)
    assert order == list(range(8))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helpers(threads):
    # the child of a fork has none of its parent's helper threads
    layout = fs._Layout(GRID)
    held = layout.rows(gauss().fhat)[np.newaxis].repeat(8, axis=0)
    want = layout.power(held, {2: 1.0})
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(layout.power(held, {2: 1.0}), want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_one_chunk_calls_start_no_thread(threads, monkeypatch):
    def refuse():
        raise AssertionError("the call shared out its chunks")

    monkeypatch.setattr(fs, "_start_helpers", refuse)
    fs.weighted_norm(gauss(), 2)
    fs.pointwise_power(gauss(), 3)
    # FlowConfig's set-up takes the weighted norm of g0, one row
    config.load_config(str(Path(__file__).resolve().parent.parent / "configs" / "canonical.yaml"))
    with pytest.raises(AssertionError, match="shared out"):
        layout = fs._Layout(GRID)
        layout.power(layout.rows(gauss().fhat)[np.newaxis].repeat(2, axis=0), {2: 1.0})


def test_pointwise_power_rejects_low_powers():
    f = gauss()
    for k in (1, 0, -2):
        with pytest.raises(DomainError):
            fs.pointwise_power(f, k)


def test_pointwise_power_zero():
    out = fs.pointwise_power(fs.zero_function(GRID), 2)
    assert np.all(out.fhat == 0.0)


def test_pointwise_power_gaussian_mass():
    # u(x) = (4 pi)^{-1/2} e^{-x^2/4}: closed-form Gaussian integrals give
    # int u^2 = sqrt(2 pi)/(4 pi) and int u^3 = 1/(4 pi sqrt(3))
    f = gauss()
    sq = fs.pointwise_power(f, 2)
    assert sq.at_zero.real == pytest.approx(math.sqrt(2.0 * math.pi) / (4.0 * math.pi), rel=1e-12)
    cube = fs.pointwise_power(f, 3)
    assert cube.at_zero.real == pytest.approx(1.0 / (4.0 * math.pi * math.sqrt(3.0)), rel=1e-12)


def test_pointwise_power_cross_term():
    # (u+v)^2 - u^2 - v^2 = 2uv; int uv via Parseval is
    # (2 pi)^{-1} int e^{-3 w^2} dw = sqrt(pi/3)/(2 pi)
    u, v = gauss(1.0), gauss(2.0)
    w = fs.pointwise_power(u + v, 2) - fs.pointwise_power(u, 2) - fs.pointwise_power(v, 2)
    assert w.at_zero.real / 2.0 == pytest.approx(
        math.sqrt(math.pi / 3.0) / (2.0 * math.pi), rel=1e-12
    )
    assert fs.weighted_norm(w, 2) > 0.1


def convolution_powers(grid, fhat, top):
    """The powers 2..top of a real field by the convolution theorem, with
    np.convolve on the spectrum and its -omega_max value split between the
    two ends of the band, as the padded transforms split it."""
    n = grid.n_points
    ext = np.concatenate([[0.5 * fhat[0]], fhat[1:], [0.5 * fhat[0]]])
    conv = ext
    for k in range(2, top + 1):
        conv = np.convolve(conv, ext) * grid.dw / (2.0 * np.pi)
        yield k, conv[(k - 1) * n // 2 : (k - 1) * n // 2 + n]


def test_pointwise_power_dealias_exact_for_compact_support():
    # independent oracle: the convolution theorem on a spectrum supported
    # in |w| < frac * omega_max; at frac = 0.9 the products fill more than
    # the band, so a transform shorter than the exact one folds aliased
    # images into it
    for frac in (1.0 / 8.0, 0.9):
        u = GRID.omega / (frac * GRID.omega_max)
        fhat = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
        f = fs.SpectralFunction(GRID, fhat)
        for k, oracle in convolution_powers(GRID, fhat, 3):
            assert np.max(np.abs(fs.pointwise_power(f, k).fhat - oracle)) < 1e-10
    # supports just inside and just outside each band at which a power's
    # transform length switches: a spectrum significant up to its top node
    # J has band b = J + 1 (b = N/2 + 1 is the full band, -omega_max
    # included), and a length one node too short for b folds an image of
    # the top node's products onto a kept node
    grid = fs.GridSpec(256, 40.0)
    n = grid.n_points
    j = np.abs(np.arange(n) - n // 2)
    spectra = [np.where(j < b, np.exp(-((j / b) ** 2)), 0.0) for b in range(1, n // 2 + 2)]
    half = fs._to_half(np.array(spectra, dtype=np.complex128))
    for k in (2, 3):
        lengths = fs._power_lengths(half, k, n, np.empty(half.shape))
        # band s is the last on one length and band s + 1 the first on the next
        switches = np.flatnonzero(np.diff(lengths)) + 1
        assert len(switches) >= 6 and lengths[-1] > (k + 1) * n // 2
        for b in sorted({int(b) for s in switches for b in (s, s + 1)}):
            fhat = spectra[b - 1]
            f = fs.SpectralFunction(grid, fhat)
            oracle = dict(convolution_powers(grid, fhat, k))[k]
            err = np.max(np.abs(fs.pointwise_power(f, k).fhat - oracle))
            assert err < 1e-13 * np.max(np.abs(oracle)), (k, b, lengths[b - 1])


def assert_hermitian(fhat):
    # exactly the transform of a real function: fhat(-w) = conj(fhat(w)) node
    # for node, real at w = 0 and at the unpaired node -omega_max
    h = fhat.shape[-1] // 2
    assert np.array_equal(fhat[1:], np.conj(fhat[1:][::-1]))
    assert fhat[0].imag == 0.0 and fhat[h].imag == 0.0


def test_real_field_predicate_is_exact():
    f = gauss(0.5).fhat
    assert fs._is_real_field(f)
    assert fs._is_real_field(np.array([f, 2.0 * f]))
    h = GRID.n_points // 2
    # one ulp off the mirror, or a subnormal imaginary part at either real
    # node; the constructor refuses each, naming the first sorted node of
    # the broken pair
    ulp = np.spacing(f[h + 7].real)
    cases = ((h + 7, ulp, h - 7), (h - 7, 1e-300j, h - 7), (h, 1e-300j, h), (0, 1e-300j, 0))
    for node, delta, first in cases:
        g = f.copy()
        g[node] += delta
        assert not fs._is_real_field(g)
        assert not fs._is_real_field(np.array([f, g]))
        omega = float(GRID.omega[first])
        with pytest.raises(DomainError, match=re.escape(f"at node {first} (omega = {omega!r})")):
            fs.SpectralFunction(GRID, g)


PROPERTY_GRID = fs.GridSpec(1024, 40.0)


@st.composite
def real_fields(draw):
    # an even real part plus an odd imaginary part, with the unpaired node
    # -omega_max kept real
    w = PROPERTY_GRID.omega
    amp = st.floats(-1.0, 1.0, allow_subnormal=False)
    width = st.floats(0.5, 3.0)
    even = draw(amp) * np.exp(-draw(width) * w**2)
    fhat = even + 1j * draw(amp) * w * np.exp(-draw(width) * w**2)
    fhat[0] = fhat[0].real
    return fs.SpectralFunction(PROPERTY_GRID, fhat)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(real_fields(), real_fields(), st.floats(-3.0, 3.0), st.floats(0.0, 2.0))
def test_operations_keep_fields_real(f, g, c, t):
    # each result passes the constructor's exact guard; assert it again on
    # the spectrum itself
    kernel = heat_kernel()
    nl = Nonlinearity(mu=0.05, lam=0.01, terms=((3, 1.0),))
    sol = solve_block(f, kernel, TimeChange(p=1.0), nl, 0, 2.0, SolverParams(m=8))
    results = [f + g, f - g, f * c, c * f, fs.apply_multiplier(f, kernel, t)]
    results += [fs.pointwise_power(f, k) for k in (2, 3, 4)]
    results.append(fs.dilate(f, 2.0))  # L^((p+1)/d) of the canonical block
    results += sol.slices
    assert all(fs._is_real_field(r.fhat) for r in results)


def test_power_of_real_field_is_exactly_hermitian():
    # a real field with a nonzero real value at -omega_max: the padded
    # inverse splits that value between +-omega_max, so the padded field,
    # its powers and their band stay exactly real, and the band's
    # transform is long enough that no image lands on -omega_max either
    f = gauss(1e-4)
    assert f.fhat[0].real > 0.05
    assert_hermitian(f.fhat)
    for k, oracle in convolution_powers(GRID, f.fhat, 3):
        got = fs.pointwise_power(f, k).fhat
        assert_hermitian(got)
        assert np.max(np.abs(got - oracle)) < 1e-12 * np.max(np.abs(oracle))
    assert_hermitian(deriv_rows(f.fhat, GRID) * 1j)
    assert_hermitian(fs.dilate(gauss(), 1.7).fhat)


def canonical_block():
    """The half rows of a canonical first block's solution and its integrand's
    coefficients."""
    path = Path(__file__).resolve().parent.parent / "configs" / "canonical.yaml"
    flow = config.load_config(str(path)).flow
    f0, _, _ = rgflow.initial_state(flow)
    nl, tc, kernel = flow.nonlinearity, flow.tc, flow.kernel
    sol = solve_block(f0, kernel, tc, nl, 0, flow.L, flow.solver)
    return sol._layout, sol._rows, nl.combined_coefficients(0, flow.L, tc.p, kernel.d)


def padded_power(grid, rows, coeffs, m):
    """sum_p c_p u^p of half rows by complex transforms of the whole sorted
    axis embedded in m points, the -omega_max value split between the two
    ends: exact for a degree-k product of any band when m > (k+1) N/2."""
    n = grid.n_points
    big = np.zeros(rows.shape[:-1] + (m,), np.complex128)
    lo = (m - n) // 2
    big[..., lo : lo + n] = fs._from_half(rows)
    big[..., lo] *= 0.5
    big[..., lo + n] = big[..., lo]
    dx = 2.0 * grid.x_max / m
    u = inverse_sorted(big, dx).real
    total = sum(c * u**p for p, c in coeffs.items())
    return fs._to_half(forward_sorted(total, dx)[..., lo : lo + n])


def test_band_sized_power_matches_the_padded_one():
    # canonical block rows transform on a fraction of the grid, and their
    # power stays within 1e-15 of each row's peak of the fully padded one
    layout, rows, coeffs = canonical_block()
    assert max(coeffs) == 3
    got = layout.power(rows, coeffs)
    want = padded_power(layout.grid, rows, coeffs, 4 * layout.grid.n_points)
    err = np.max(np.abs(got - want), axis=-1)
    assert np.all(err <= 1e-15 * np.max(np.abs(want), axis=-1))


def test_canonical_block_power_transforms_on_at_most_half_the_grid(monkeypatch):
    # the gain of band sizing, pinned: every transform of a canonical
    # block's power is at most N/2 points long, where the padded power took
    # 2N; a fall back to full padding fails here
    layout, rows, coeffs = canonical_block()
    lengths = []
    irfft = np.fft.irfft

    def recorded(a, n=None, *args, **kwargs):
        lengths.append(n)
        return irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recorded)
    layout.power(rows, coeffs)
    assert lengths and max(lengths) <= layout.grid.n_points // 2


def test_a_row_gets_the_same_power_in_any_stack(threads):
    # a narrow row, a full-band row and one in between share a stack, the
    # narrow ones apart, so one length comes back after another (a chunk
    # transforms each run of equal lengths on its own); each row's power
    # is the one it gets alone, bit for bit, as its transform length
    # depends on that row only
    layout = fs._Layout(GRID)
    narrow, wide, full = (layout.rows(gauss(a).fhat) for a in (1.0, 0.01, 1e-4))
    mixed = np.array([narrow, full, 0.5 * narrow, wide, full, narrow])
    coeffs = {2: 0.7, 3: -1.0}
    lengths = fs._power_lengths(mixed, 3, GRID.n_points, np.empty(mixed.shape))
    assert len(set(lengths.tolist())) == 3 and lengths[0] < GRID.n_points < lengths[1]
    for rows in (mixed, np.array([narrow, wide, narrow])):
        alone = [layout.power(r, coeffs) for r in rows]
        assert np.array_equal(layout.power(rows, coeffs), alone)
        chunk = rows.copy()
        layout.power_chunk(chunk, coeffs, chunk, fs._Workspace())  # in place
        assert np.array_equal(chunk, alone)


def test_non_finite_rows_keep_their_power_non_finite():
    # an inf or a NaN on a row's outer nodes alone puts the row on the full
    # band, so its power is not finite, not cut to the band of the rest;
    # the finite rows beside it are unchanged
    layout = fs._Layout(GRID)
    narrow = layout.rows(gauss().fhat)
    h = GRID.n_points // 2
    rows = np.array([narrow] * 4)
    rows[1, h] = np.nan  # -omega_max
    rows[2, h - 1] = np.inf
    rows[3, h - 300] = np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        got = layout.power(rows, {2: 1.0, 3: 1.0})
    assert np.array_equal(got[0], layout.power(narrow, {2: 1.0, 3: 1.0}))
    for row in got[1:]:
        assert not np.isfinite(row[0]) and not np.any(np.isfinite(row))


def test_non_real_spectra_are_refused():
    # an odd real spectrum is the transform of an imaginary field, and an
    # imaginary multiple of a real field is one too
    with pytest.raises(DomainError, match="not the transform of a real function"):
        fs.from_profile(GRID, lambda w: w * np.exp(-(w**2)))
    f = gauss()
    with pytest.raises(DomainError):
        f * 1j
    with pytest.raises(DomainError):
        fs.SpectralFunction(GRID, np.full(GRID.n_points, np.nan))


def test_apply_multiplier_identity_and_semigroup():
    k = heat_kernel()
    f = gauss()
    same = fs.apply_multiplier(f, k, 0.0)
    assert np.array_equal(same.fhat, f.fhat)
    twice = fs.apply_multiplier(fs.apply_multiplier(f, k, 0.3), k, 0.9)
    once = fs.apply_multiplier(f, k, 1.2)
    assert np.max(np.abs(twice.fhat - once.fhat)) < 1e-13
    with pytest.raises(DomainError):
        fs.apply_multiplier(f, k, -0.1)


def test_dilate_identity_and_gaussian():
    f = gauss()
    assert np.array_equal(fs.dilate(f, 1.0).fhat, f.fhat)
    out = fs.dilate(f, 2.0)
    assert np.max(np.abs(out.fhat - np.exp(-GRID.omega**2 / 4.0))) < 1e-8
    # the zero node is pinned, so the total integral is conserved exactly
    assert out.at_zero == f.at_zero


@pytest.mark.parametrize("a", [0.5, 0.0, math.nan, math.inf])
def test_dilate_refuses_factors_below_one_and_non_finite(a):
    # every RG block rescales by L^((p+1)/d) >= 1; a factor below 1 would
    # stretch the field past the box, where the periodic grid wraps it
    with pytest.raises(DomainError, match=f"got {a}"):
        fs.dilate(gauss(), a)


def test_dilate_reuses_its_chirp_factors():
    # the cached factors give the chirp of the uncached formula on the half
    # nodes k = 0 .. N/2 bit for bit
    def uncached(phys, x_max, a):
        n_pts = phys.shape[0]
        c_ld = np.pi * fs._LD_ONE / (n_pts * np.longdouble(a))
        k_idx = np.arange(n_pts // 2 + 1)
        u = phys * fs._chirp_phase(c_ld, np.arange(n_pts))
        v = np.conj(fs._chirp_phase(c_ld, np.arange(-(n_pts - 1), n_pts // 2 + 1)))
        conv = np.fft.ifft(np.fft.fft(u, 4 * n_pts) * np.fft.fft(v, 4 * n_pts))
        s = conv[k_idx + n_pts - 1]
        lin = np.mod(c_ld * n_pts * k_idx.astype(np.longdouble), fs._LD_TWO_PI)
        s = s * np.exp(1j * lin.astype(np.float64)) * fs._chirp_phase(c_ld, k_idx)
        return 2.0 * x_max / n_pts * s

    phys = inverse(fs._to_half(gauss().fhat + 0.1j * GRID.omega * gauss(2.0).fhat))
    for a in (1.7, 2.0, 1.7):
        assert np.array_equal(fs._resample_trig(phys, GRID.x_max, a), uncached(phys, GRID.x_max, a))
    assert fs._chirp_factors(GRID.n_points, 1.7) is fs._chirp_factors(GRID.n_points, 1.7)
    assert not any(arr.flags.writeable for arr in fs._chirp_factors(GRID.n_points, 1.7))


def test_dilate_runs_no_complex_transform_of_the_grid(monkeypatch):
    # the field goes to real samples by the half pair; the only complex FFTs
    # are the chirp convolution's, of the first power of two at which it
    # does not wrap: 16384 on the canonical grid
    lengths = []

    def recorded(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return transform(a, n, *args, **kwargs)

        return call

    fs._chirp_factors.cache_clear()
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name)))
    out = fs.dilate(gauss(), 2.0)
    assert lengths == [4 * GRID.n_points] * 3
    assert np.max(np.abs(out.fhat - np.exp(-GRID.omega**2 / 4.0))) < 1e-15


def test_dilate_composes():
    # two blocks' dilations compose to one by the product of the factors,
    # and both agree with the Gaussian's closed form exp(-(omega / 3)^2)
    f = gauss()
    twice = fs.dilate(fs.dilate(f, 2.0), 1.5)
    once = fs.dilate(f, 3.0)
    assert np.max(np.abs(twice.fhat - once.fhat)) < 1e-12
    assert np.max(np.abs(once.fhat - np.exp(-GRID.omega**2 / 9.0))) < 1e-12
    assert twice.at_zero == f.at_zero


def test_dilate_guards_spectral_tails():
    wide = fs.from_profile(GRID, lambda w: np.exp(-((w / 40.0) ** 2)))
    with pytest.raises(UnderResolved):
        fs.dilate(wide, 4.0)
    with pytest.raises(DomainError):
        fs.dilate(gauss(), 1e-3)


def test_real_functions_stay_real():
    k = heat_kernel()
    f = gauss()
    out = fs.dilate(fs.apply_multiplier(fs.pointwise_power(f, 2), k, 0.4), 1.7)
    assert np.max(np.abs(inverse_sorted(out.fhat, GRID.dx).imag)) < 1e-10


def test_eval_at_zero():
    assert fs.eval_at_zero(fs.zero_function(GRID)) == 0.0
    odd = fs.from_profile(GRID, lambda w: 1j * w * np.exp(-(w**2)))
    assert fs.eval_at_zero(odd) == 0.0


def test_csv_round_trip(tmp_path):
    f = gauss(1.3)
    path = tmp_path / "f.csv"
    fs.to_csv(f, path)
    back = fs.from_csv(path)
    assert back.grid.compatible(f.grid)
    assert np.array_equal(back.fhat, f.fhat)
