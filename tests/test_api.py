"""The exported names of every marginalrg module, and what it loads."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import marginalrg
from marginalrg import marginal, verify

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
marginal.marginal_constants(flow.kernel, flow.tc, flow.L, flow.mu, grid=flow.grid)
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


def test_readme_library_signatures_match_the_code():
    # each signature line of the last python block under "## Library use"
    readme = Path(marginalrg.__file__).resolve().parents[2] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python")[-1].split("```", 1)[0]
    documented = re.findall(r"^(\w+)(\([^#\n]*\))", block, flags=re.MULTILINE)
    assert len(documented) >= 10
    for name, params in documented:
        fn = getattr(marginal, name, None) or getattr(verify, name)
        assert f"{name}{params}" == f"{name}{inspect.signature(fn)}"
