"""The package namespace: ``import cosmo`` loads no compute module, and each
public name resolves, on first use, to the object its home module defines.

Each check runs in a fresh interpreter, because this process has imported
every module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosmo

SUBMODULES = ("arith", "casson_walker", "links", "obstructions", "seifert")

CHECKS = {
    "import loads nothing": """
import sys, cosmo
assert [m for m in sys.modules if m.startswith("cosmo.")] == []
""",
    "every name resolves to its home module's object": f"""
import importlib, cosmo
values = {{name: getattr(cosmo, name) for name in cosmo.__all__}}
modules = [importlib.import_module("cosmo." + m) for m in {SUBMODULES!r}]
for name, value in values.items():
    homes = [m for m in modules if name in m.__all__]
    assert homes and all(getattr(m, name) is value for m in homes), name
assert set(cosmo.__all__) <= set(dir(cosmo))
""",
    "submodule attribute after a plain import": """
import cosmo
assert cosmo.links.SKEIN_NODE_BUDGET == 100_000
""",
    "star import binds exactly __all__": """
import cosmo
namespace = {}
exec("from cosmo import *", namespace)
assert set(namespace) - {"__builtins__"} == set(cosmo.__all__)
""",
    "unknown name is an AttributeError": """
import cosmo
try:
    cosmo.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("no AttributeError")
assert not hasattr(cosmo, "Fraction")
""",
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_lazy_namespace(name):
    env = {**os.environ, "PYTHONPATH": str(Path(cosmo.__file__).resolve().parent.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", CHECKS[name]], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
