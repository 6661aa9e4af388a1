"""Tests of the benchmark itself: ``python3 -m pytest benchmarks``."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from marginalrg import blocksolver, funcspace  # noqa: E402

# per-op counts of the canonical flow
FLOW_COUNTS = {
    "funcspace.fft.calls": 18288,
    "funcspace.weighted_norm.calls": 5496,
    "kernel.multiplier.calls": 1715,
    "funcspace.dilate.calls": 36,
    "blocksolver.picard_iters": 36,
}


def traced_ops(work, count):
    tracer = tracing.Tracer()
    runs = []
    for _ in range(count):
        tracer.reset()
        workloads.marginal.overlap_constant.cache_clear()
        with tracer.installed():
            result = tracer.call("op", work.op)
        runs.append((tracer.summary(), result))
    return runs


@pytest.fixture(scope="module")
def flow_runs():
    work = workloads.prepare(ROOT, "flow_canonical", 0)
    return work, traced_ops(work, 2)


def test_flow_counts_repeat_exactly_and_match_the_canonical_figures(flow_runs):
    _, ((first, _), (second, _)) = flow_runs
    for key, expected in FLOW_COUNTS.items():
        assert first[key] == second[key] == expected, key


def test_self_times_account_for_the_traced_op(flow_runs):
    _, ((summary, _), _) = flow_runs
    assert summary["trace.accounted_s"] == pytest.approx(summary["trace.op_wall_s"], rel=1e-9)
    assert 0.0 <= summary["trace.unattributed_s"] < 0.01 * summary["trace.op_wall_s"]


def test_flow_gate_passes_canonical_and_fails_a_shifted_amplitude_column(flow_runs):
    work, ((_, trace), _) = flow_runs
    assert work.check(trace) == []
    shifted = dataclasses.replace(trace, amplitude=[a + 1e-6 for a in trace.amplitude])
    assert work.check(shifted)


def test_beta_gate_fails_a_perturbed_table():
    work = workloads.prepare(ROOT, "beta_table", 0)
    data = work.op()
    assert work.check(data) == []
    table = [dict(row) for row in data["beta_n_table"]]
    table[3]["direct"] += 1e-6
    assert work.check(dict(data, beta_n_table=table))


def test_tracer_patches_every_binding_and_restores_them():
    originals = (funcspace.weighted_norm, blocksolver.weighted_norm, np.fft.fft)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert blocksolver.weighted_norm is funcspace.weighted_norm
        assert blocksolver.weighted_norm is not originals[0]
        assert np.fft.fft is not originals[2]
    assert (funcspace.weighted_norm, blocksolver.weighted_norm, np.fft.fft) == originals


def test_fft_points_cover_real_and_batched_transforms():
    tracer = tracing.Tracer()
    with tracer.installed():
        np.fft.rfft(np.ones((3, 64)), axis=1)
        np.fft.irfft(np.ones(33))
        import scipy.fft

        scipy.fft.fft(np.ones(128))
    summary = tracer.summary()
    assert summary["funcspace.fft.calls"] == 3
    assert summary["funcspace.fft.points"] == 3 * 64 + 64 + 128


def test_seeds_draw_valid_inputs_and_leave_beta_unchanged():
    base = workloads.prepare(ROOT, "flow_canonical", 0).flow
    for seed in range(1, 40):
        flow = workloads.draw_flow(base, seed)  # FlowConfig validates on construction
        assert workloads.A0_BAND[0] <= flow.A0 <= workloads.A0_BAND[1]
    assert workloads.draw_flow(base, 3) == workloads.draw_flow(base, 3)
    assert workloads.prepare(ROOT, "beta_table", 7).flow == base


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "beta_table", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
