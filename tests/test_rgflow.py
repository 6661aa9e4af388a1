"""RG flow: config validation, single steps, and full canonical runs."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from block_oracles import inverse_sorted

from marginalrg import funcspace as fs
from marginalrg import marginal as mg
from marginalrg import rgflow as rg
from marginalrg.blocksolver import Nonlinearity, SolverParams, solve_block
from marginalrg.errors import ConfigError, DecompositionDrift, Divergence, UnderResolvedWarning
from marginalrg.funcspace import GridSpec, SpectralFunction
from marginalrg.kernel import fixed_point_profile, heat_kernel
from marginalrg.timechange import TimeChange

GRID = GridSpec(4096, 40.0)
HEAT = heat_kernel()
TC0 = TimeChange(p=1.0)
CANONICAL_NL = Nonlinearity(0.05, 0.01, ((3, 1.0),))


def make_config(**overrides):
    base = dict(
        kernel=HEAT,
        tc=TC0,
        nonlinearity=CANONICAL_NL,
        grid=GRID,
        solver=SolverParams(m=64),
        L=2.0,
        n_steps=12,
        A0=0.05,
        g0_kind="even-bump",
        g0_eps=1e-3,
    )
    base.update(overrides)
    return rg.FlowConfig(**base)


@pytest.fixture(scope="module")
def canonical_trace():
    return rg.run_flow(make_config())


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(L=1.0)
    with pytest.raises(ConfigError):
        make_config(n_steps=0)
    # True is an int to Python, but no step count, as on the YAML path
    with pytest.raises(ConfigError, match="n_steps must be an integer"):
        make_config(n_steps=True)
    with pytest.raises(ConfigError):
        make_config(A0=0.0)
    with pytest.raises(ConfigError):
        make_config(g0_kind="spike")
    with pytest.raises(ConfigError, match="integer"):
        make_config(kernel=heat_kernel().__class__(d=3.0))
    # the marginal power is derived: a term at alpha_c is rejected, and a
    # d = 4 kernel damps with u^3 where the heat kernel damps with u^2
    with pytest.raises(ConfigError, match="power 2 must exceed the critical power 2"):
        make_config(nonlinearity=Nonlinearity(0.05, 0.01, ((2, 1.0),)))
    quartic = make_config(
        kernel=heat_kernel().__class__(d=4.0), nonlinearity=Nonlinearity(0.05), g0_kind="zero"
    )
    assert quartic.alpha_c == 3
    with pytest.raises(ConfigError, match=r"\|lambda\| < mu"):
        make_config(nonlinearity=Nonlinearity(0.05, 0.1, ((3, 1.0),)))
    with pytest.raises(ConfigError, match="mu"):
        make_config(nonlinearity=Nonlinearity(-0.05, 0.0))
    # negative mu passes only with the explicit override
    make_config(nonlinearity=Nonlinearity(-0.05, 0.0), allow_negative_mu=True)
    with pytest.raises(ConfigError, match="A0"):
        make_config(g0_eps=0.5)
    # A0^alpha_c is compared in logs: it neither overflows nor underflows
    make_config(A0=1e155)
    make_config(A0=1e-200, g0_kind="zero", g0_eps=0.0)
    with pytest.raises(ConfigError, match="A0"):
        make_config(A0=1e-200)


def test_initial_remainder_masses():
    for kind, eps in (("zero", 0.0), ("even-bump", 1e-3), ("odd-bump", 1e-3)):
        g = rg.initial_remainder(GRID, kind, eps)
        assert fs.eval_at_zero(g) == 0.0
    odd = rg.initial_remainder(GRID, "odd-bump", 1e-3)
    # imaginary odd spectrum must give a real physical field
    assert np.max(np.abs(inverse_sorted(odd.fhat, GRID.dx).imag)) < 1e-15
    with pytest.raises(ConfigError):
        rg.initial_remainder(GRID, "spikes", 1.0)


def test_initial_state_split_exact():
    cfg = make_config()
    f0, a0, g0 = rg.initial_state(cfg)
    h0 = rg.linear_profile(HEAT, TC0, 0, 2.0, GRID)
    assert a0 == 0.05
    assert np.array_equal(f0.fhat, a0 * h0.fhat + g0.fhat)


def test_linear_rg_step_fixes_scaling_profile():
    fp = fixed_point_profile(HEAT, 1.0, GRID)
    out = rg.linear_rg_step(fp, HEAT, TC0, 0, 2.0)
    assert np.max(np.abs(out.fhat - fp.fhat)) < 1e-12


def test_linear_rg_step_preserves_zero_mass():
    g = rg.initial_remainder(GRID, "even-bump", 1e-3)
    out = rg.linear_rg_step(g, HEAT, TC0, 0, 2.0)
    assert abs(fs.eval_at_zero(out)) < 1e-18


def test_linear_rg_step_contracts():
    g = SpectralFunction(GRID, 1j * GRID.omega * np.exp(-GRID.omega**2))
    ratio = fs.weighted_norm(rg.linear_rg_step(g, HEAT, TC0, 0, 2.0), 2) / fs.weighted_norm(g, 2)
    assert ratio < 1.0
    # pinned regression, measured with this build
    assert ratio == pytest.approx(0.7537219382406662, rel=1e-10)


def test_rg_step_rejects_bad_split():
    cfg = make_config()
    f0, a0, g0 = rg.initial_state(cfg)
    with pytest.raises(DecompositionDrift):
        rg.rg_step(f0, a0 + 1e-3, g0, HEAT, TC0, CANONICAL_NL, 0, 2.0, cfg.solver)


def test_split_corrupted_below_unit_amplitude_still_raises():
    # at |A| <= 1 the amplitude scale is 1: the bounds are SPLIT_TOL and
    # MASS_TOL themselves
    cfg = make_config()
    f0, a0, g0 = rg.initial_state(cfg)
    fhat = f0.fhat.copy()
    fhat[GRID.n_points // 2] += 2e-9
    with pytest.raises(DecompositionDrift, match="2.000e-09 exceeds 1.0e-09 entering level 0"):
        rg.rg_step(
            SpectralFunction(GRID, fhat), a0, g0, HEAT, TC0, CANONICAL_NL, 0, 2.0, cfg.solver
        )


def test_linear_flow_at_large_amplitude_completes():
    # the split of an exact linear step carries rounding relative to A: at
    # A0 = 1e8 its residual (4.5e-8 leaving level 0) is inside 1e-9 |A|,
    # where an absolute bound stopped the flow; the tail limit is relative
    # too, so nothing warns
    cfg = make_config(
        nonlinearity=Nonlinearity(0.0, 0.0),
        grid=GridSpec(1024, 40.0),
        g0_kind="zero",
        g0_eps=0.0,
        n_steps=3,
        A0=1e8,
    )
    tr = rg.run_flow(cfg)
    assert tr.completed
    assert len(tr.amplitude) == 4
    assert all(a == pytest.approx(1e8, rel=1e-12) for a in tr.amplitude)


def test_rg_step_canonical_first_block():
    cfg = make_config()
    f0, a0, g0 = rg.initial_state(cfg)
    f1, a1, g1, diag = rg.rg_step(f0, a0, g0, HEAT, TC0, CANONICAL_NL, 0, 2.0, cfg.solver)
    assert diag.correction_at_zero < 0.0
    assert a1 == pytest.approx(0.049975450336815844, rel=1e-12)
    assert abs(fs.eval_at_zero(g1)) < 1e-15
    assert diag.drift_in == 0.0
    assert diag.drift_out < 1e-12
    assert 1 <= diag.picard_iters <= 8
    h1 = rg.linear_profile(HEAT, TC0, 1, 2.0, GRID)
    resid = f1.fhat - (a1 * h1.fhat + g1.fhat)
    assert np.max(np.abs(resid)) < 1e-12


def test_stationary_flow_without_forcing():
    cfg = make_config(
        nonlinearity=Nonlinearity(0.0, 0.0), g0_kind="zero", g0_eps=0.0, n_steps=4
    )
    tr = rg.run_flow(cfg)
    assert tr.completed
    assert tr.amplitude == [0.05] * 5
    assert all(g < 1e-14 for g in tr.g_norm)
    drift = np.max(np.abs(tr.final_profile.fhat - tr.profiles[0].fhat))
    assert drift < 1e-12
    assert all(math.isnan(t) for t in tr.theorem_gap)


def test_canonical_flow_monotonicity(canonical_trace):
    tr = canonical_trace
    assert tr.completed and tr.failure is None
    amps = tr.amplitude
    assert len(amps) == 13
    assert all(a > b > 0.0 for a, b in zip(amps, amps[1:]))
    assert all(g < a * a for g, a in zip(tr.g_norm, amps))
    assert all(v < 0.0 for v in tr.mass_shift)
    assert abs(fs.eval_at_zero(tr.final_remainder)) < 1e-10
    # pinned regression values, measured with this build
    assert amps[1] == pytest.approx(0.049975450336815844, rel=1e-12)
    assert amps[12] == pytest.approx(0.04970828858189747, rel=1e-12)
    assert tr.g_norm[1] == pytest.approx(0.001004175140611086, rel=1e-10)


def test_canonical_flow_residual_bound(canonical_trace):
    tr = canonical_trace
    mu, alpha = 0.05, 2
    for shift, beta, amp, wn in zip(
        tr.mass_shift, tr.decay_coeff, tr.amplitude, tr.w_norm
    ):
        assert abs(shift + mu * beta * amp**alpha) <= wn
    ratios = [w / a**alpha for w, a in zip(tr.w_norm, tr.amplitude)]
    # strictly decreasing once the irrelevant-coupling transient has died
    assert all(x > y for x, y in zip(ratios[3:], ratios[4:]))
    assert ratios[-1] < ratios[0]


def test_canonical_flow_theorem_trend(canonical_trace):
    tg = canonical_trace.theorem_gap
    assert math.isnan(tg[0]) and math.isnan(tg[1])
    assert all(tg[i] > tg[i + 1] for i in range(5, 12))


def test_coupling_perturbation_is_first_order(canonical_trace):
    tr0 = rg.run_flow(make_config(nonlinearity=Nonlinearity(0.05, 0.0)))
    gap = [
        abs(a - b) for a, b in zip(canonical_trace.amplitude, tr0.amplitude)
    ]
    assert gap[0] == 0.0
    assert 1e-8 < gap[-1] < 5e-7


def test_partial_trace_on_divergence():
    cfg = make_config(solver=SolverParams(m=64, norm_guard=1e-6))
    tr = rg.run_flow(cfg)
    assert not tr.completed
    assert tr.failure is not None and tr.failure.startswith("level 0")
    assert len(tr.level) == 1 and len(tr.mass_shift) == 0


def run_solves(monkeypatch, cfg, warm=True):
    """run_flow(cfg) with each block's solve warm or cold, and the
    exceptions the solves raised."""
    raised = []

    def solve(*args):
        try:
            return solve_block(*args) if warm else solve_block(*args[:8])
        except Exception as exc:
            raised.append(exc)
            raise

    with monkeypatch.context() as patch:
        patch.setattr(rg, "solve_block", solve)
        return rg.run_flow(cfg), raised


def test_warm_start_saves_iterations_and_keeps_the_trace(monkeypatch, tmp_path):
    # each block after the first starts from the correction of the block
    # before; the flow agrees with the one solved cold block by block.
    # Measured gaps (1024 points, m = 16, 6 blocks): A_n 4.9e-13 and g_norm 1.4e-9 relative, theorem gap
    # 4.8e-13 absolute, w_norm 9.6e-7 relative; each bound is 7-20x that.
    # g_norm and w_norm are small differences of the solution, so they
    # carry the Picard tolerance at a larger relative size.
    cfg = make_config(grid=GridSpec(1024, 40.0), solver=SolverParams(m=16), n_steps=6)
    warm, _ = run_solves(monkeypatch, cfg)
    cold, _ = run_solves(monkeypatch, cfg, warm=False)
    assert warm.completed and cold.completed
    assert sum(warm.picard_iters) < sum(cold.picard_iters)
    assert warm.picard_iters[0] == cold.picard_iters[0]

    def rel(a, b):
        return max(abs(x - y) / abs(y) for x, y in zip(a, b))

    gaps = [abs(x - y) for x, y in zip(warm.theorem_gap, cold.theorem_gap) if not math.isnan(y)]
    assert rel(warm.amplitude, cold.amplitude) <= 1e-11
    assert rel(warm.g_norm[1:], cold.g_norm[1:]) <= 1e-8
    assert max(gaps) <= 1e-11
    assert rel(warm.w_norm, cold.w_norm) <= 1e-5
    again = rg.run_flow(cfg)
    paths = [tmp_path / "warm.csv", tmp_path / "again.csv"]
    rg.write_trace_csv(warm, paths[0])
    rg.write_trace_csv(again, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for a, b in zip(warm.profiles + [warm.final_remainder], again.profiles + [again.final_remainder]):
        assert np.array_equal(a.fhat, b.fhat)


@pytest.mark.parametrize("warm", [True, False])
def test_divergence_after_level_zero_leaves_a_partial_trace(monkeypatch, warm):
    # mu < 0 grows the amplitude block by block until a Picard solve
    # leaves the guard, at level 4 whether or not the blocks start warm
    cfg = make_config(
        nonlinearity=Nonlinearity(-1.0),
        grid=GridSpec(1024, 40.0),
        solver=SolverParams(m=16),
        A0=1.0,
        g0_kind="zero",
        g0_eps=0.0,
        allow_negative_mu=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        trace, raised = run_solves(monkeypatch, cfg, warm)
    assert not trace.completed
    assert [type(exc) for exc in raised] == [Divergence]
    assert raised[0].norm > raised[0].guard
    assert trace.failure == f"level 4: {raised[0]}"
    assert trace.level == [0, 1, 2, 3, 4] and len(trace.picard_iters) == 4


@pytest.mark.parametrize("g0_kind", ["even-bump", "odd-bump"])
def test_flow_transforms_real_fields_only(monkeypatch, g0_kind):
    # every block input and every dilation output is exactly the transform
    # of a real function, and the only complex transforms in the flow are
    # the dilations' chirp convolutions, of 4N points on an N-point grid
    inputs, images, lengths = [], [], []

    def solve(f, *args):
        inputs.append(f.fhat.copy())
        return solve_block(f, *args)

    def dilate(f, a, _dilate=fs.dilate):
        out = _dilate(f, a)
        images.append(out.fhat.copy())
        return out

    def recorded(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return transform(a, n, *args, **kwargs)

        return call

    monkeypatch.setattr(rg, "solve_block", solve)
    monkeypatch.setattr(fs, "dilate", dilate)
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name)))
    trace = rg.run_flow(
        make_config(grid=GridSpec(1024, 40.0), solver=SolverParams(m=16), n_steps=3, g0_kind=g0_kind)
    )
    assert trace.completed and len(trace.amplitude) == 4
    assert len(inputs) == 3 and len(images) == 9
    assert all(fs._is_real_field(x) for x in inputs + images)
    # two per dilation, one more for a chirp filter not yet cached
    assert 18 <= len(lengths) <= 19 and set(lengths) == {4096}


def test_flow_reuses_its_working_memory(monkeypatch, tmp_path):
    # one workspace serves every block of a flow: after block 0 the solver
    # allocates no stack and no scratch (counted at the two allocator
    # hooks), and the trace is bitwise the one of a flow whose every solve
    # allocates afresh
    cfg = make_config(grid=GridSpec(1024, 40.0), solver=SolverParams(m=16), n_steps=4)
    allocs = []
    inside = [False]

    def counted(make):
        def alloc(*args):
            if inside[0]:
                allocs[-1] += 1
            return make(*args)

        return alloc

    def solve(*args):
        allocs.append(0)
        inside[0] = True
        try:
            return solve_block(*args)
        finally:
            inside[0] = False

    def write(trace, name):
        path = tmp_path / name
        rg.write_trace_csv(trace, path)
        return path.read_bytes()

    with monkeypatch.context() as patch:
        patch.setattr(fs, "_empty_stack", counted(fs._empty_stack))
        patch.setattr(fs, "_empty_scratch", counted(fs._empty_scratch))
        patch.setattr(rg, "solve_block", solve)
        shared = rg.run_flow(cfg)
    assert shared.completed and len(allocs) == 4
    assert allocs[0] > 0 and allocs[1:] == [0, 0, 0]
    with monkeypatch.context() as patch:
        # the same solves, each in a workspace of its own, each but the
        # first started from the solution of the block before
        patch.setattr(rg, "solve_block", lambda *args: solve_block(*args[:7], start=args[8]))
        fresh = rg.run_flow(cfg)
    assert write(shared, "shared.csv") == write(fresh, "fresh.csv")
    for a, b in zip(shared.profiles + [shared.final_remainder], fresh.profiles + [fresh.final_remainder]):
        assert np.array_equal(a.fhat, b.fhat)


def test_trace_csv_round_trip(tmp_path, canonical_trace):
    path = tmp_path / "trace.csv"
    rg.write_trace_csv(canonical_trace, path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(rg.TRACE_COLUMNS)
    assert len(rows) == 14
    assert [int(r[0]) for r in rows[1:]] == list(range(13))
    assert float(rows[1][1]) == canonical_trace.amplitude[0]
    # the terminal row carries no step quantities
    assert rows[-1][3] == "nan" and rows[-1][7] == "0"
    assert math.isnan(float(rows[1][6]))


def test_trace_manifest(canonical_trace):
    man = rg.trace_manifest(canonical_trace)
    assert man["completed"] is True
    assert man["rows"] == 13
    assert man["config"]["L"] == 2.0
    assert man["config"]["nonlinearity"]["mu"] == 0.05
    assert man["config"]["grid"]["n_points"] == 4096
    json.dumps(man)


@pytest.mark.parametrize("n_points", [256, 512, 1024, 4096])
@pytest.mark.parametrize("kind", rg.REMAINDER_KINDS)
def test_initial_remainders_are_real_fields(kind, n_points):
    # on coarse grids the odd bump is not yet negligible at the unpaired
    # node -omega_max; the field must still be exactly real there
    g = rg.initial_remainder(GridSpec(n_points, 40.0), kind, 1e-3)
    assert fs._is_real_field(g.fhat)


def _trace_bytes(trace, path):
    rg.write_trace_csv(trace, path)
    return path.read_bytes()


@pytest.mark.parametrize("tc", [TC0, TimeChange(p=1.0, delta=0.5, coeff=0.3)], ids=["zero", "power"])
def test_flow_computes_each_marginal_response_once_and_matches_per_block_workspaces(
    monkeypatch, tmp_path, tc
):
    # one marginal response per flow when the blocks share their nodes,
    # one per block with a remainder; either way the trace is bitwise that
    # of a flow whose every block has a workspace of its own, each chunk
    # of a warm start taking the start's u0 off with the start's own
    # multipliers
    cfg = make_config(grid=GridSpec(1024, 40.0), solver=SolverParams(m=16), n_steps=4, tc=tc)
    responses = [0]

    def counted_response(*args, _response=mg.marginal_response, **kwargs):
        responses[0] += 1
        return _response(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(mg, "marginal_response", counted_response)
        shared = rg.run_flow(cfg)
    assert shared.completed
    assert responses[0] == (1 if tc.vanishes else 4)
    with monkeypatch.context() as patch:
        patch.setattr(rg, "solve_block", lambda *args: solve_block(*args[:7], start=args[8]))
        fresh = rg.run_flow(cfg)
    assert _trace_bytes(shared, tmp_path / "shared.csv") == _trace_bytes(fresh, tmp_path / "fresh.csv")
    for a, b in zip(shared.profiles, fresh.profiles):
        assert np.array_equal(a.fhat, b.fhat)


def test_vanishing_power_remainder_flows_as_the_zero_model(monkeypatch, tmp_path):
    # a power remainder with coeff = 0 is the zero remainder: the flow reuses
    # its level-0 response and writes the zero model's trace byte for byte
    calls = [0]

    def response(*args, _response=mg.marginal_response, **kwargs):
        calls[0] += 1
        return _response(*args, **kwargs)

    monkeypatch.setattr(mg, "marginal_response", response)
    traces = {}
    for name, tc in (
        ("zero", TC0),
        ("flat", TimeChange(p=1.0, delta=0.5, coeff=0.0)),
    ):
        calls[0] = 0
        trace = rg.run_flow(make_config(grid=GridSpec(1024, 40.0), tc=tc))
        assert trace.completed and calls[0] == 1
        rg.write_trace_csv(trace, tmp_path / f"{name}.csv")
        traces[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert traces["flat"] == traces["zero"]
