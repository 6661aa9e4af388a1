"""Benchmark runner for marginalrg.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload flow_canonical --seed 0 --seconds 35 --trace 0

One process is the only client and runs ops back to back (a closed loop).
The first op is cold and is recorded but not counted in ``wall_s``. Ops
run until ``--seconds`` have passed since the first one started. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the ops after
the cold one alternate traced and untraced, and the JSON holds the
per-layer metrics of the traced ops plus the tracing overhead. Every
metric is also printed by name with its unit, and a results file with the
machine facts, every op and (traced) every span is written under
``benchmarks/out``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

# A fresh interpreter that imports the package, loads the canonical config
# and builds the workload's validated FlowConfig, then reports ready.
SETUP_SNIPPET = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/benchmarks"]
import workloads
workloads.prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]))
print("ready", flush=True)
"""


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload, seed):
    """Seconds from process start to first op ready, in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_SNIPPET, str(ROOT), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def machine_facts(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "pocketfft (numpy.fft and scipy.fft)",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_op(work, tracer):
    """One op and its gate; the gate runs after the timed region."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result = None
    try:
        if tracer is None:
            result = work.op()
        else:
            tracer.reset()
            with tracer.installed():
                result = tracer.call("op", work.op)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        problems = work.check(result)
    except Exception as exc:  # an op that raises is counted, not fatal
        traceback.print_exc()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        problems = [f"raised {type(exc).__name__}: {exc}"]
    record = {
        "wall_s": wall,
        "traced": tracer is not None,
        "problems": problems,
        "minflt": after.ru_minflt - usage.ru_minflt,
        "cpu_s": (after.ru_utime + after.ru_stime) - (usage.ru_utime + usage.ru_stime),
    }
    if tracer is not None:
        record.update(layers=tracer.summary(), block_s=tracer.block_times(), spans=tracer.spans)
    return record, result


def timing_line(name, samples):
    """Median, sample count and the highest percentile with ten samples beyond it."""
    from tracer import tail

    line = f"{name}: median {statistics.median(samples):.6f} s over {len(samples)} samples"
    qualifying = tail(samples)
    if qualifying is None:
        return line + "; no percentile has ten samples beyond it"
    value, pct = qualifying
    return line + f"; p{pct:.0f} {value:.6f} s"


def layer_values(records, setup_layers):
    """Per-layer metric values: medians over the traced ops."""
    from tracer import tail

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records[1:] if not r["traced"]]
    values = {
        key: statistics.median_low([r["layers"][key] for r in traced]) for key in traced[0]["layers"]
    }
    blocks = [b for r in traced for b in r["block_s"]]
    block_tail = tail(blocks)
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    untraced_wall = statistics.median([r["wall_s"] for r in untraced])
    cpu = statistics.median([r["cpu_s"] for r in traced])
    values.update(
        {
            "rgflow.block_s.median": statistics.median(blocks) if blocks else 0.0,
            "rgflow.block_s.tail": block_tail[0] if block_tail else 0.0,
            "config.load_config.total_s": setup_layers["config.load_config.total_s"],
            "process.minflt": statistics.median_low([r["minflt"] for r in traced]),
            "process.cpu_s": cpu,
            "process.cpu_per_wall": cpu / traced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    return values, blocks


def measure(work, args, tracer, workloads):
    """Run ops for the window; returns (op records, set-up samples, trace hash)."""
    clear_overlap_cache = workloads.marginal.overlap_constant.cache_clear
    records, setup_samples, sha = [], [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        # every marginalrg command computes overlap_constant once, so every op does
        clear_overlap_cache()
        record, result = run_op(work, tracer if traced else None)
        records.append(record)
        if sha is None and work.name == "flow_canonical" and args.seed == 0 and result is not None:
            sha = workloads.trace_sha256(result, ROOT)
        # set-up probes run between ops, spread over the window, so they
        # sample the same stretch of machine time as the ops; a traced run
        # reports no setup_s
        elapsed = time.perf_counter() - start
        due = len(setup_samples) * args.seconds / SETUP_PROBES
        if tracer is None and len(setup_samples) < SETUP_PROBES and elapsed >= due:
            setup_samples.append(probe_setup(work.name, args.seed))
        warm = records[1:]
        if tracer is None:
            enough = len(warm) >= 1
        else:
            enough = any(r["traced"] for r in warm) and any(not r["traced"] for r in warm)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    while tracer is None and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(work.name, args.seed))
    return records, setup_samples, sha


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(argv, spec)
    needed = [SRC / "marginalrg" / "__init__.py", ROOT / "configs" / "canonical.yaml"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    # cap BLAS and OpenMP pools at the cores this process may use, before
    # numpy loads (the installed OpenBLAS allows up to 64 threads)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)

    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import marginalrg
    import tracer as tracing
    import workloads

    package_dir = Path(marginalrg.__file__).resolve().parent
    if package_dir != SRC / "marginalrg":
        print(f"error: marginalrg imported from {package_dir}, not the checkout", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        work = workloads.prepare(ROOT, args.workload, args.seed)
    else:
        with tracer.installed():
            work = tracer.call("setup", workloads.prepare, ROOT, args.workload, args.seed)
        setup_layers = tracer.summary()
    in_process_setup = time.perf_counter() - import_start

    records, setup_samples, sha = measure(work, args, tracer, workloads)

    failed = sum(1 for r in records if r["problems"])
    for i, r in enumerate(records):
        for problem in r["problems"]:
            print(f"op {i} failed: {problem}")
    facts = machine_facts(nproc)
    walls = [r["wall_s"] for r in records[1:] if not r["traced"]]
    print(f"workload: {args.workload} (seed {args.seed}): {why[args.workload]}")
    print(f"inputs: A0={work.flow.A0!r} g0_kind={work.flow.g0_kind} g0_eps={work.flow.g0_eps!r}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"cold_op_s: {records[0]['wall_s']:.6f} s (first op, not in wall_s)")
    print(timing_line("wall_s", walls))
    if setup_samples:
        print(timing_line("setup_s", setup_samples))
    print(f"in-process import and config: {in_process_setup:.6f} s")
    print(f"fail_frac: {failed / len(records):.6f} ({failed} of {len(records)} ops)")
    if sha is not None:
        same = sha == work.reference["trace_csv_sha256"]
        print(f"trace_csv_sha256: {sha} ({'matches' if same else 'differs from'} the stored one; information only)")

    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    else:
        values, blocks = layer_values(records, setup_layers)
        listed = spec["per_layer"]
        print(timing_line("rgflow.block_s", blocks) if blocks else "rgflow.block_s: no rg_step in this workload")
        print(
            f"accounting: layer self times plus unattributed time {values['trace.accounted_s']:.6f} s, "
            f"traced op wall {values['trace.op_wall_s']:.6f} s"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results = dict(vars(args), machine=facts, metrics=metrics, setup_s=setup_samples, records=records)
    out_path.write_text(json.dumps(results))
    print(f"results: {out_path.relative_to(ROOT)}")
    summary = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
