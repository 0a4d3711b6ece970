import os
import subprocess
import sys
from pathlib import Path

import slmajorant

# scipy subpackages the package must not load: scipy.integrate alone pulls
# in optimize, linalg, sparse and more
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def test_import_loads_scipy_special_only():
    # a fresh interpreter: conftest.py itself imports scipy.optimize
    root = str(Path(slmajorant.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys, slmajorant, slmajorant.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = set(out.stdout.split())
    assert "scipy.special" in loaded
    assert not loaded.intersection(HEAVY)
