"""YAML run configuration.

A run file has up to seven sections: kernel, time, grid, solver,
nonlinearity, flow, output. Every key is optional except time.p;
omitted keys take the documented defaults, and the resolved values
(defaults included) all land in the run manifest.
"""

import dataclasses
import math

import yaml

from ._version import __version__
from .blocksolver import Nonlinearity, SolverParams
from .errors import ConfigError, DomainError
from .funcspace import GridSpec
from .kernel import ScalingKernel
from .rgflow import FlowConfig
from .timechange import TimeChange

_SECTIONS = ("kernel", "time", "grid", "solver", "nonlinearity", "flow", "output")
# keys read as integers; an integral float such as 64.0 is taken as one
_INTEGER_KEYS = {
    "kernel": ("q",),
    "grid": ("n_points",),
    "solver": ("m", "picard_max"),
    "flow": ("n_steps",),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated flow configuration plus output routing."""

    flow: FlowConfig
    out_dir: str = "out"
    label: str = "run"

    def manifest(self, command, seed=None):
        """Every resolved parameter, defaults included."""
        data = {
            "version": __version__,
            "command": command,
            "label": self.label,
            "out_dir": self.out_dir,
            "config": dataclasses.asdict(self.flow),
        }
        if seed is not None:
            data["seed"] = seed
        return data


def _coerce(value):
    # YAML 1.1 reads bare "1e-10" as a string; recover numbers transparently
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def _section(data, name):
    raw = data.get(name) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {type(raw).__name__}")
    values = {key: _coerce(value) for key, value in raw.items()}
    for key in _INTEGER_KEYS.get(name, ()):
        if key in values:
            values[key] = _as_int(name, key, values[key])
    return values


def _build(name, cls, kwargs):
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def flow_config_from_mapping(data, allow_negative_mu=False):
    """Build a FlowConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)}")

    kernel = _build("kernel", ScalingKernel, _section(data, "kernel"))
    tc = _build("time", TimeChange, _section(data, "time"))
    grid = _build("grid", GridSpec, _section(data, "grid"))
    solver = _build("solver", SolverParams, _section(data, "solver"))

    nl_raw = _section(data, "nonlinearity")
    if "terms" in nl_raw:
        nl_raw["terms"] = _terms("nonlinearity", nl_raw["terms"])
    nl_raw.setdefault("mu", 0.0)
    nonlinearity = _build("nonlinearity", Nonlinearity, nl_raw)

    flow_raw = _section(data, "flow")
    return _build(
        "flow",
        FlowConfig,
        dict(
            kernel=kernel,
            tc=tc,
            nonlinearity=nonlinearity,
            grid=grid,
            solver=solver,
            allow_negative_mu=allow_negative_mu,
            **flow_raw,
        ),
    )


def _as_int(section, key, value):
    if isinstance(value, bool) or (
        not isinstance(value, int) and not (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(value)


def _terms(section, raw):
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{section}.terms must be a list of [power, coeff] pairs")
    pairs = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(
                f"{section}.terms entries must be [power, coeff] pairs, got {entry!r}"
            )
        power = _as_int(section, "terms power", _coerce(entry[0]))
        coeff = _coerce(entry[1])
        if not isinstance(coeff, (int, float)) or not math.isfinite(coeff):
            raise ConfigError(f"{section}.terms coefficient must be finite, got {entry[1]!r}")
        pairs.append((power, float(coeff)))
    return tuple(pairs)


def load_config(path, allow_negative_mu=False, out_dir=None, label=None):
    """Read a YAML run file into a RunConfig.

    out_dir and label override the file's output section when given.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    output = _section(data, "output")
    unknown = sorted(set(output) - {"directory", "label"})
    if unknown:
        raise ConfigError(f"unknown output keys: {', '.join(unknown)}")
    flow = flow_config_from_mapping(
        {k: v for k, v in data.items() if k != "output"},
        allow_negative_mu=allow_negative_mu,
    )
    resolved_dir = out_dir if out_dir is not None else str(output.get("directory", "out"))
    resolved_label = label if label is not None else str(output.get("label", "run"))
    if not resolved_label or "/" in resolved_label:
        raise ConfigError(f"label must be a plain name, got {resolved_label!r}")
    return RunConfig(flow=flow, out_dir=resolved_dir, label=resolved_label)
