"""Process start-up pays only for what it runs: the package imports no SciPy.

SciPy's ``ndimage`` and ``optimize`` chains cost about half a second of
every process's start-up, and only dataset generation (on a cache miss),
feature squeezing and L-BFGS call them, so each imports SciPy inside the
function that uses it.  A fresh interpreter proves the import graph stays
that way, then proves the deferred import runs on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro, repro.eval, repro.serve, repro.core, repro.attacks
import repro.defenses, repro.datasets, repro.zoo, repro.cli

after_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import numpy as np
from repro.defenses.squeezing import median_smooth
smoothed = median_smooth(np.zeros((2, 1, 4, 4)))
print(json.dumps({
    "after_import": after_import,
    "ndimage_after_smooth": "scipy.ndimage" in sys.modules,
    "shape": list(smoothed.shape),
}))
"""


def test_package_imports_no_scipy_until_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["after_import"] == []
    assert report["ndimage_after_smooth"] is True
    assert report["shape"] == [2, 1, 4, 4]
