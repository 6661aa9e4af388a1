import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from marginalrg.config import RunConfig, flow_config_from_mapping, load_config
from marginalrg.errors import ConfigError
from marginalrg.timechange import TimeChange

ROOT = Path(__file__).resolve().parents[1]
CANONICAL = ROOT / "configs" / "canonical.yaml"


def minimal_mapping(**extra):
    data = {"time": {"p": 1.0}}
    data.update(extra)
    return data


def test_load_canonical_file():
    run = load_config(CANONICAL)
    assert run.label == "canonical"
    assert run.out_dir == "out"
    cfg = run.flow
    assert (cfg.kernel.d, cfg.kernel.kappa, cfg.kernel.q) == (2.0, 1.0, 2)
    assert cfg.tc == TimeChange(p=1.0) and cfg.tc.vanishes
    assert (cfg.grid.n_points, cfg.grid.x_max) == (4096, 40.0)
    assert (cfg.solver.m, cfg.solver.picard_tol, cfg.solver.picard_max) == (64, 1e-10, 50)
    assert (cfg.nonlinearity.mu, cfg.nonlinearity.lam) == (0.05, 0.01)
    assert cfg.nonlinearity.terms == ((3, 1.0),)
    # derived from p and d, not declared in the file
    assert cfg.alpha_c == 2
    assert (cfg.L, cfg.n_steps, cfg.A0) == (2.0, 12, 0.05)
    assert (cfg.g0_kind, cfg.g0_eps) == ("even-bump", 1e-3)
    assert not cfg.allow_negative_mu


def test_defaults_fill_missing_sections():
    cfg = flow_config_from_mapping(minimal_mapping())
    assert cfg.grid.n_points == 4096
    assert cfg.solver.m == 64
    assert cfg.nonlinearity.mu == 0.0
    assert cfg.alpha_c == 2
    assert (cfg.L, cfg.n_steps, cfg.A0, cfg.g0_kind) == (2.0, 12, 0.05, "zero")


def test_string_numbers_are_coerced():
    cfg = flow_config_from_mapping(
        minimal_mapping(solver={"picard_tol": "1e-12"}, flow={"A0": "0.125"})
    )
    assert cfg.solver.picard_tol == 1e-12
    assert cfg.A0 == 0.125


def test_integral_floats_are_integers():
    cfg = flow_config_from_mapping(minimal_mapping(kernel={"q": 2.0}, solver={"m": 64.0}))
    assert (cfg.kernel.q, cfg.solver.m) == (2, 64)
    assert isinstance(cfg.kernel.q, int)
    with pytest.raises(ConfigError, match=r"kernel\.q must be an integer, got 2\.5"):
        flow_config_from_mapping(minimal_mapping(kernel={"q": 2.5}))


def test_unknown_section_and_keys_are_named():
    with pytest.raises(ConfigError, match="kernels"):
        flow_config_from_mapping(minimal_mapping(kernels={"d": 2.0}))
    with pytest.raises(ConfigError, match="dd"):
        flow_config_from_mapping(minimal_mapping(kernel={"dd": 2.0}))
    with pytest.raises(ConfigError, match="n_steps"):
        flow_config_from_mapping(minimal_mapping(flow={"n_steps": 2.5}))


def test_validation_messages_name_the_condition():
    with pytest.raises(ConfigError, match=r"\|lambda\| < mu"):
        flow_config_from_mapping(
            minimal_mapping(
                nonlinearity={"mu": 0.05, "lam": 0.1, "terms": [[3, 1.0]]}
            )
        )
    with pytest.raises(ConfigError, match="2.5"):
        flow_config_from_mapping(minimal_mapping(kernel={"d": 3.0}))
    # alpha_c and the remainder model are derived, so setting them is an
    # unknown key
    with pytest.raises(ConfigError, match="nonlinearity: .*'critical_power'"):
        flow_config_from_mapping(
            minimal_mapping(nonlinearity={"mu": 0.05, "critical_power": 2})
        )
    with pytest.raises(ConfigError, match="time: .*'r_model'"):
        flow_config_from_mapping({"time": {"p": 1.0, "r_model": "zero"}})
    # a perturbation power must exceed the derived alpha_c (3 when d = 4)
    for d, j in ((2.0, 2), (4.0, 3)):
        with pytest.raises(ConfigError, match=f"power {j} must exceed the critical power {j}"):
            flow_config_from_mapping(
                minimal_mapping(
                    kernel={"d": d},
                    nonlinearity={"mu": 0.05, "lam": 0.01, "terms": [[j, 1.0]]},
                )
            )
    with pytest.raises(ConfigError, match="mu"):
        flow_config_from_mapping(minimal_mapping(nonlinearity={"mu": -0.05}))
    cfg = flow_config_from_mapping(
        minimal_mapping(nonlinearity={"mu": -0.05}), allow_negative_mu=True
    )
    assert cfg.mu == -0.05


def test_terms_shape_is_checked():
    with pytest.raises(ConfigError, match="pairs"):
        flow_config_from_mapping(
            minimal_mapping(nonlinearity={"mu": 0.05, "terms": [3]})
        )
    with pytest.raises(ConfigError, match="integer"):
        flow_config_from_mapping(
            minimal_mapping(nonlinearity={"mu": 0.05, "terms": [[3.5, 1.0]]})
        )


def test_load_config_overrides_and_errors(tmp_path):
    run = load_config(CANONICAL, out_dir=str(tmp_path), label="probe")
    assert run.out_dir == str(tmp_path)
    assert run.label == "probe"

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")

    bad = tmp_path / "bad.yaml"
    bad.write_text("time: [\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)

    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(listy)

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="time"):
        load_config(empty)

    with pytest.raises(ConfigError, match="label"):
        load_config(CANONICAL, label="a/b")


def test_manifest_lists_every_resolved_parameter():
    run = load_config(CANONICAL)
    data = run.manifest("flow", seed=7)
    assert data["version"]
    assert data["command"] == "flow"
    assert data["label"] == "canonical"
    assert data["seed"] == 7
    cfg = data["config"]
    assert set(cfg) >= {
        "kernel",
        "tc",
        "grid",
        "solver",
        "nonlinearity",
        "L",
        "n_steps",
        "A0",
        "g0_kind",
        "g0_eps",
        "allow_negative_mu",
    }
    assert cfg["solver"]["picard_max"] == 50
    assert cfg["tc"]["delta"] == 0.0
    # alpha_c and the remainder model are derived, not recorded
    assert set(cfg["tc"]) == {"p", "delta", "coeff"}
    assert set(cfg["nonlinearity"]) == {"mu", "lam", "terms"}


def test_runconfig_is_frozen():
    run = RunConfig(flow=flow_config_from_mapping(minimal_mapping()))
    with pytest.raises(AttributeError):
        run.label = "other"


def test_readme_config_block_is_a_valid_config():
    # the README's yaml block is a config that loads, and it lists every
    # key each section accepts, so the docs cannot drift from the code
    blocks = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    data = yaml.safe_load(blocks[0])
    cfg = flow_config_from_mapping(data)
    assert cfg.alpha_c == 2
    sections = {
        "kernel": cfg.kernel,
        "time": cfg.tc,
        "grid": cfg.grid,
        "solver": cfg.solver,
        "nonlinearity": cfg.nonlinearity,
    }
    for name, value in sections.items():
        assert set(data[name]) == {f.name for f in dataclasses.fields(value)}, name
    nested = {"kernel", "tc", "grid", "solver", "nonlinearity", "allow_negative_mu"}
    flow_keys = {f.name for f in dataclasses.fields(cfg)} - nested
    assert set(data["flow"]) == flow_keys
    assert set(data["output"]) == {"directory", "label"}
