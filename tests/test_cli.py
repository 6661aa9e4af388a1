import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

import marginalrg.funcspace as fs
from marginalrg.cli import main
from marginalrg.errors import UnderResolvedWarning
from marginalrg.funcspace import GridSpec, SpectralFunction
from marginalrg.rgflow import TRACE_COLUMNS

CANONICAL = Path(__file__).resolve().parents[1] / "configs" / "canonical.yaml"

SMALL_FLOW = dedent(
    """
    time: {p: 1.0}
    grid: {n_points: 1024, x_max: 40.0}
    nonlinearity:
      mu: 0.05
      lam: 0.01
      terms: [[3, 1.0]]
    flow: {L: 2.0, n_steps: 3, A0: 0.05}
    """
)


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(dedent(text))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_flow_canonical_contract(tmp_path, capsys):
    code = run_cli(
        "flow", "--config", str(CANONICAL), "--out", str(tmp_path), "--label", "canon"
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "final amplitude" in out
    assert "decreasing on [5, end]" in out
    lines = (tmp_path / "canon_trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 14
    manifest = json.loads((tmp_path / "canon_manifest.json").read_text())
    assert manifest["completed"] is True
    assert manifest["rows"] == 13
    assert manifest["command"] == "flow"
    assert manifest["config"]["nonlinearity"]["mu"] == 0.05


def test_flow_is_bit_reproducible(tmp_path):
    cfg = write_config(tmp_path, SMALL_FLOW)
    for label in ("a", "b"):
        assert run_cli("flow", "--config", cfg, "--out", str(tmp_path), "--label", label) == 0
    assert (tmp_path / "a_trace.csv").read_bytes() == (tmp_path / "b_trace.csv").read_bytes()


def test_flow_without_damping_has_no_theorem_trend(tmp_path, capsys):
    # mu = 0: every theorem gap is nan, so even levels past 5 give no trend
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0}
        grid: {n_points: 1024, x_max: 40.0}
        nonlinearity: {mu: 0.0, lam: 0.0}
        flow: {L: 2.0, n_steps: 7, A0: 0.05}
        """,
    )
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path), "--label", "free") == 0
    out = capsys.readouterr().out
    assert "levels completed: 7" in out
    assert "theorem trend: not applicable (needs levels past 5 and mu > 0)" in out


def test_flow_solver_failure_writes_partial_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SMALL_FLOW.replace("flow:", "solver: {norm_guard: 1.0e-6}\nflow:"),
    )
    code = run_cli("flow", "--config", cfg, "--out", str(tmp_path), "--label", "part")
    assert code == 3
    assert "solver failure" in capsys.readouterr().err
    lines = (tmp_path / "part_trace.csv").read_text().splitlines()
    assert len(lines) == 2
    manifest = json.loads((tmp_path / "part_manifest.json").read_text())
    assert manifest["completed"] is False
    assert manifest["failure"].startswith("level 0")

    # an amplitude whose u^2 overflows ends in the same typed failure; its
    # spectrum passes the absolute tail_tol, so the solve warns first
    cfg = write_config(tmp_path, SMALL_FLOW.replace("A0: 0.05", "A0: 1.0e+155"), name="big.yaml")
    with pytest.warns(UnderResolvedWarning), np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("flow", "--config", cfg, "--out", str(tmp_path), "--label", "big")
    assert code == 3
    assert "divergence at iteration 1" in capsys.readouterr().err
    assert len((tmp_path / "big_trace.csv").read_text().splitlines()) == 2


def test_flow_divergence_after_level_zero_exits_3(tmp_path, capsys):
    # the amplitude of a mu < 0 flow grows until the level-4 solve leaves
    # the guard: exit 3 with the four completed levels and the fifth state
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0}
        grid: {n_points: 1024, x_max: 40.0}
        solver: {m: 16}
        nonlinearity: {mu: -1.0}
        flow: {L: 2.0, A0: 1.0}
        """,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        code = run_cli(
            "flow", "--config", cfg, "--out", str(tmp_path), "--label", "grow", "--allow-negative-mu"
        )
    assert code == 3
    assert "divergence at iteration" in capsys.readouterr().err
    assert len((tmp_path / "grow_trace.csv").read_text().splitlines()) == 1 + 5
    manifest = json.loads((tmp_path / "grow_manifest.json").read_text())
    assert manifest["failure"].startswith("level 4: divergence at iteration")


def test_exit_2_names_the_violated_condition(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0}
        nonlinearity: {mu: 0.05, lam: 0.1, terms: [[3, 1.0]]}
        """,
    )
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "|lambda| < mu" in capsys.readouterr().err

    cfg = write_config(tmp_path, "time: {p: 1.0}\nkernel: {d: 3.0}\n", name="alpha.yaml")
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "2.5" in capsys.readouterr().err

    assert run_cli("flow", "--out", str(tmp_path)) == 2
    assert "--config" in capsys.readouterr().err

    # a data file that norm cannot read is an input error with the same
    # exit: a CSV whose frequency axis is not uniform
    path = tmp_path / "skewed.csv"
    path.write_text("omega,re_fhat,im_fhat\n-2,0,0\n-1,1,0\n0,1,0\n2,0,0\n")
    assert run_cli("norm", str(path)) == 2
    assert "input error: frequency axis" in capsys.readouterr().err

    # a CSV with a non-numeric field names the file, not a raw traceback
    path = tmp_path / "text.csv"
    path.write_text("omega,re_fhat,im_fhat\n0.0,1.0,abc\n")
    assert run_cli("norm", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "text.csv is not a numeric CSV" in err

    # dealiasing always uses the smallest exact padding; there is no knob
    cfg = write_config(tmp_path, "time: {p: 1.0}\ngrid: {pad_factor: 2}\n", name="pad.yaml")
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid: ") and "'pad_factor'" in err

    # nor for the marginal power or a remainder model: p, d and coeff fix them
    for section, key, text in (
        ("nonlinearity", "critical_power", "time: {p: 1.0}\nnonlinearity: {critical_power: 2}\n"),
        ("time", "r_model", "time: {p: 1.0, r_model: power, delta: 0.5, coeff: 1.0}\n"),
    ):
        cfg = write_config(tmp_path, text, name="knob.yaml")
        assert run_cli("beta", "--config", cfg, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: ") and f"'{key}'" in err


def test_subcommands_refuse_options_they_do_not_read(tmp_path, capsys):
    # only verify samples inputs, and norm writes no file: argparse refuses
    # the rest with the exit code of invalid input
    cfg = str(CANONICAL)
    for argv in (
        ("flow", "--seed", "1", "--config", cfg),
        ("beta", "--seed", "1", "--config", cfg),
        ("direct", "--seed", "1", "--config", cfg),
        ("norm", "--out", str(tmp_path), "f.csv"),
        ("norm", "--label", "n", "f.csv"),
        ("norm", "--seed", "1", "f.csv"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_linear_flow_at_a_huge_amplitude_completes(tmp_path, capsys):
    # mu = 0 takes no A^alpha_c, which would overflow a float here; the
    # absolute tail_tol still flags the outer octaves of a 1e200 field
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0}
        grid: {n_points: 1024, x_max: 40.0}
        solver: {m: 16}
        flow: {A0: 1.0e+200, n_steps: 2}
        """,
    )
    with pytest.warns(UnderResolvedWarning):
        assert run_cli("flow", "--config", cfg, "--out", str(tmp_path), "--label", "lin") == 0
    rows = (tmp_path / "lin_trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1e+200"] * 3
    assert [row.split(",")[5] for row in rows[:2]] == ["0.0", "0.0"]


def test_beta_json_contract(tmp_path, capsys):
    import math

    code = run_cli(
        "beta", "--config", str(CANONICAL), "--out", str(tmp_path), "--label", "b"
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "R_direct",
        "R_oracle",
        "beta",
        "beta_star_lo",
        "beta_star_hi",
        "beta_n_table",
        "A_prefactor",
    }
    assert data["beta"] == pytest.approx(math.log(2.0) / (2.0 * math.sqrt(math.pi)), rel=1e-10)
    assert data["R_direct"] == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-6)
    assert data["beta_star_lo"] < data["beta"] < data["beta_star_hi"]
    assert len(data["beta_n_table"]) == 11
    on_disk = json.loads((tmp_path / "b_beta.json").read_text())
    assert on_disk == data

    # only the prefactor needs mu > 0: at the default mu = 0 it is null and
    # every other key stands; A0^alpha_c past the float range is no error
    cfg = write_config(
        tmp_path, "time: {p: 1.0}\ngrid: {n_points: 1024}\nflow: {A0: 1.0e+155}\n"
    )
    assert run_cli("beta", "--config", cfg, "--out", str(tmp_path), "--label", "free") == 0
    free = json.loads(capsys.readouterr().out)
    assert free["A_prefactor"] is None
    assert (free["beta"], free["R_direct"]) == (data["beta"], data["R_direct"])


def test_verify_power_model_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0, delta: 0.5, coeff: 1.0}
        flow: {n_steps: 3}
        """,
    )
    code = run_cli("verify", "--config", cfg, "--out", str(tmp_path), "--label", "v", "--seed", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    payload = json.loads((tmp_path / "v_report.json").read_text())
    assert payload["seed"] == 3
    report = payload["report"]
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "beta_convergence" in names
    assert "flow_monotonicity" not in names


def test_verify_refuses_a_negative_seed(tmp_path, capsys):
    # a config error (exit 2) before any check runs, not a failed check
    code = run_cli("verify", "--config", str(CANONICAL), "--out", str(tmp_path), "--seed", "-1")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "seed" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::marginalrg.errors.UnderResolvedWarning")
def test_verify_coarse_grid_fails(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0}
        grid: {n_points: 256, x_max: 80.0}
        nonlinearity:
          mu: 0.05
          lam: 0.01
          terms: [[3, 1.0]]
        """,
    )
    code = run_cli("verify", "--config", cfg, "--out", str(tmp_path), "--label", "c")
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "c_report.json").read_text())["report"]
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["fixed_point"]["passed"] is False


def test_direct_artifacts(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
        time: {p: 1.0}
        grid: {n_points: 1024, x_max: 40.0}
        """,
    )
    code = run_cli("direct", "--config", cfg, "--out", str(tmp_path), "--label", "d")
    assert code == 0
    assert "4096 points" in capsys.readouterr().out
    lines = (tmp_path / "d_direct.csv").read_text().splitlines()
    assert lines[0] == "t,omega,re_fhat,im_fhat"
    assert len(lines) == 1 + 4 * 4096
    manifest = json.loads((tmp_path / "d_manifest.json").read_text())
    assert manifest["t_end"] == 8.0
    assert manifest["landmark_times"] == [1.0, 2.0, 4.0, 8.0]
    assert manifest["solution_grid"] == {"n_points": 4096, "x_max": 160.0}


def test_norm_roundtrip(tmp_path, capsys):
    import numpy as np

    grid = GridSpec(1024, 40.0)
    f = SpectralFunction(grid, np.exp(-grid.omega**2))
    path = tmp_path / "f.csv"
    fs.to_csv(f, path)
    assert run_cli("norm", str(path)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q"] == 2
    assert data["bq_norm"] == pytest.approx(fs.weighted_norm(f, 2), rel=1e-12)

    assert run_cli("norm", str(tmp_path / "absent.csv")) == 2

    cfg = write_config(tmp_path, "time: {p: 3.0}\nkernel: {d: 4.0, q: 4}\n")
    assert run_cli("norm", "--config", cfg, str(path)) == 0
    data4 = json.loads(capsys.readouterr().out)
    assert data4["q"] == 4
    assert data4["bq_norm"] == pytest.approx(fs.weighted_norm(f, 4), rel=1e-12)


def test_norm_of_a_non_real_field(tmp_path, capsys):
    import numpy as np

    # an odd real spectrum is the transform of an imaginary field: the CSV
    # is refused with exit 2, naming the first node that breaks the symmetry
    grid = GridSpec(1024, 40.0)
    fhat = np.exp(-(grid.omega**2)) + 1e-3 * grid.omega * np.exp(-(grid.omega**2))
    path = tmp_path / "odd.csv"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("omega,re_fhat,im_fhat\n")
        for w, v in zip(grid.omega, fhat):
            fh.write(f"{float(w)!r},{float(v)!r},0.0\n")
    assert run_cli("norm", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "not the transform of a real function" in captured.err
    # node k pairs with node N - k; the first unequal pair holds the first
    # node whose odd part does not underflow
    mirror = np.append(fhat[:1], fhat[:0:-1])
    first = int(np.flatnonzero(fhat != mirror)[0])
    assert first < grid.n_points // 2
    assert f"at node {first} (omega = " in captured.err


def test_module_entry_point():
    # the subprocess finds the package where this process did, installed or not
    src = Path(fs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "marginalrg", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
