import os
import subprocess
import sys
from pathlib import Path

import fracmix

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves():
    # a stale name in __all__ breaks `from fracmix import *`
    missing = [name for name in fracmix.__all__ if not hasattr(fracmix, name)]
    assert missing == []
    assert len(set(fracmix.__all__)) == len(fracmix.__all__)


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # every CLI call pays the import (the console entry point loads
    # fracmix.cli too): the first four made up about 0.6 s of it, and
    # scipy.optimize, which fracmix used only for brentq, another 0.22 s
    # (925 -> 706 ms median over 12 fresh-interpreter pairs, 2 cores,
    # and 811 -> 596 modules loaded)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, fracmix, fracmix.cli; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    subpackages = {".".join(name.split(".")[:2]) for name in out.split()}
    heavy = {
        "scipy.stats",
        "scipy.integrate",
        "scipy.interpolate",
        "scipy.ndimage",
        "scipy.optimize",
    }
    assert subpackages & heavy == set()
