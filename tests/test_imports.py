import os
import subprocess
import sys
from pathlib import Path

import fastslow

# numpy is the only runtime dependency: importing the package and building
# every default suite config must not load scipy.
_PROBE = """
import sys
import fastslow, fastslow.cli
from fastslow import harness
for raw in harness.DEFAULTS.values():
    harness.config_from_dict(raw)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_does_not_import_scipy():
    src = str(Path(fastslow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]", out.stdout
