"""The exported names of every marginalrg module, and what it loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import marginalrg

MODULES = ["marginalrg"] + [
    f"marginalrg.{info.name}"
    for info in pkgutil.iter_modules(marginalrg.__path__)
    if info.name != "__main__"
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


RUNTIME_SCRIPT = """
import sys
from dataclasses import replace
import marginalrg
from marginalrg import config, funcspace, marginal, rgflow
flow = config.load_config(sys.argv[1]).flow
trace = rgflow.run_flow(replace(flow, n_steps=1))
marginal.marginal_constants(flow.kernel, flow.tc, flow.L, flow.mu, grid=flow.grid, n_max=1)
funcspace.weighted_norm(trace.profile(1), flow.kernel.q)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runtime_loads_no_scipy():
    # the runtime needs numpy and PyYAML only; scipy is a test dependency
    src = Path(marginalrg.__file__).resolve().parents[1]
    canonical = src.parent / "configs" / "canonical.yaml"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT, str(canonical)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
