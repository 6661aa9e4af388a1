"""Command-line front end: flows, constants, verification, and oracles.

Exit codes: 0 success, 1 verification found a failing check, 2 invalid
configuration or input, 3 solver failure (a partial trace is written).
"""

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .config import load_config
from .errors import ConfigError, DomainError, MarginalRGError
from .funcspace import from_csv, weighted_norm
from .marginal import marginal_constants
from .rgflow import run_flow, theorem_trend, trace_manifest, write_trace_csv
from .verify import direct_integrate, run_verification
from .blocksolver import block_to_csv


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load(args):
    if args.config is None:
        raise ConfigError("this command needs --config PATH")
    return load_config(
        args.config,
        allow_negative_mu=args.allow_negative_mu,
        out_dir=args.out,
        label=args.label,
    )


def _out_dir(run):
    path = Path(run.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_flow(args):
    run = _load(args)
    trace = run_flow(run.flow)
    out = _out_dir(run)
    write_trace_csv(trace, out / f"{run.label}_trace.csv")
    manifest = run.manifest("flow")
    manifest.update(trace_manifest(trace))
    _write_json(out / f"{run.label}_manifest.json", manifest)
    amps = trace.amplitude
    print(f"levels completed: {len(amps) - 1}")
    print(f"final amplitude: {amps[-1]!r}")
    print(f"theorem trend: {_trend_verdict(trace.theorem_gap)}")
    if not trace.completed:
        print(f"solver failure: {trace.failure}", file=sys.stderr)
        return 3
    return 0


def _trend_verdict(gaps):
    trend = theorem_trend(gaps)
    if trend is None:
        return "not applicable (needs levels past 5 and mu > 0)"
    return "decreasing on [5, end]" if trend[1] else "not decreasing"


def cmd_beta(args):
    run = _load(args)
    cfg = run.flow
    data = marginal_constants(
        cfg.kernel, cfg.tc, cfg.L, cfg.mu, grid=cfg.grid, m_tau=cfg.solver.m
    )
    text = json.dumps(data, indent=2, sort_keys=True)
    print(text)
    out = _out_dir(run)
    _write_json(out / f"{run.label}_beta.json", data)
    _write_json(out / f"{run.label}_manifest.json", run.manifest("beta"))
    return 0


def cmd_verify(args):
    run = _load(args)
    report = run_verification(run.flow, seed=args.seed)
    print(report.as_text())
    out = _out_dir(run)
    payload = run.manifest("verify", seed=args.seed)
    payload["report"] = report.as_dict()
    _write_json(out / f"{run.label}_report.json", payload)
    return 0 if report.passed else 1


def cmd_direct(args):
    run = _load(args)
    cfg = run.flow
    t_end = cfg.L**3
    sol = direct_integrate(cfg, t_end)
    out = _out_dir(run)
    landmarks = [cfg.L**k for k in range(4)]
    block_to_csv(sol, out / f"{run.label}_direct.csv", times=landmarks)
    manifest = run.manifest("direct")
    manifest["t_end"] = t_end
    manifest["landmark_times"] = landmarks
    manifest["solution_grid"] = {
        "n_points": sol.grid.n_points,
        "x_max": sol.grid.x_max,
    }
    manifest["picard_iterations"] = sol.iterations
    _write_json(out / f"{run.label}_manifest.json", manifest)
    print(f"integrated [1, {t_end!r}] on {sol.grid.n_points} points")
    print(f"picard iterations: {sol.iterations}")
    return 0


def cmd_norm(args):
    try:
        f = from_csv(args.path)
    except DomainError as exc:  # the data file is at fault, not the config
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    q = 2
    if args.config is not None:
        q = load_config(args.config, allow_negative_mu=args.allow_negative_mu).flow.kernel.q
    value = weighted_norm(f, q)
    print(json.dumps({"bq_norm": value, "path": args.path, "q": q}, sort_keys=True))
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run configuration")
    common.add_argument(
        "--allow-negative-mu",
        action="store_true",
        help="accept mu < 0 (blow-up regime, normally rejected)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    output.add_argument("--label", metavar="NAME", help="artifact name prefix (overrides config)")

    parser = argparse.ArgumentParser(
        prog="marginalrg",
        description="Block renormalization group flows for marginally perturbed integral equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("flow", cmd_flow, "run the RG flow, write trace CSV"),
        ("beta", cmd_beta, "decay constants and bracket as JSON"),
        ("verify", cmd_verify, "run the full verification suite"),
        ("direct", cmd_direct, "direct integration oracle to t = L^3"),
    ):
        sub.add_parser(name, parents=[common, output], help=text).set_defaults(func=func)
    sub.choices["verify"].add_argument("--seed", type=int, default=0, help="seed for sampled inputs")
    p = sub.add_parser("norm", parents=[common], help="weighted norm of a CSV-dumped function")
    p.add_argument("path", help="CSV file written by the function dump routines")
    p.set_defaults(func=cmd_norm)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MarginalRGError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
