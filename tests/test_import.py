import json
import os
import subprocess
import sys
from pathlib import Path

import slmajorant
from slmajorant import config, eigensolver, extremal, measures, oracle

MODULES = (config, eigensolver, extremal, measures, oracle)


def test_all_republishes_each_module_list_once():
    names = slmajorant.__all__
    assert len(set(names)) == len(names)
    assert set(names) == {n for m in MODULES for n in m.__all__}
    for m in MODULES:
        for name in m.__all__:
            assert getattr(slmajorant, name) is getattr(m, name)


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter: conftest.py itself imports scipy.optimize.  A
    # power-weight extremal run reaches the incomplete-beta integrals.
    root = str(Path(slmajorant.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "mode": "extremal", "weight": "power:1,1", "gamma": 2, "grid_n": 64,
        "output_dir": str(tmp_path / "out"),
    }))
    code = (
        "import sys, slmajorant, slmajorant.cli; "
        f"status = slmajorant.cli.main(['--config', {str(config)!r}]); "
        "print(status, ' '.join(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    status, *loaded = out.stdout.split()
    assert status == "0"
    assert (tmp_path / "out" / "result.json").exists()
    assert loaded == []
