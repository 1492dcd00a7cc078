import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import run_cli

import fracmix

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves():
    # a stale name in __all__ breaks `from fracmix import *`
    missing = [name for name in fracmix.__all__ if not hasattr(fracmix, name)]
    assert missing == []
    assert len(set(fracmix.__all__)) == len(fracmix.__all__)


# scipy subpackages and standard modules that `import fracmix, fracmix.cli`
# must not load, each with every module under it; fracmix imports
# scipy.linalg and scipy.special inside the functions that call them, so
# only commands that factor, solve or estimate load them, and
# concurrent.futures (which loads logging) inside run_experiment; the SVG
# writer escapes its labels itself, as xml.sax.saxutils would, which
# imports urllib.request and with it http.client, ssl and email
# (urllib.parse still loads, through pathlib)
HEAVY = {
    "concurrent.futures",
    "logging",
    "ssl",
    "email",
    "http",
    "xml.sax",
    "urllib.request",
    "scipy.stats",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.ndimage",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.special",
}


def heavy(modules):
    """The module names that are a HEAVY name or lie under one."""
    return {m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY)}


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # every CLI call pays the import (the console entry point loads
    # fracmix.cli too): the first four made up about 0.6 s of it, and
    # scipy.optimize, which fracmix used only for brentq, another 0.22 s
    # (925 -> 706 ms median over 12 fresh-interpreter pairs, 2 cores,
    # and 811 -> 596 modules loaded); importing scipy.linalg and
    # scipy.special on first use took it from 662 to 291 ms (median of
    # 10 alternating pairs, 2 cores) and from 598 to 286 modules; dropping
    # xml.sax.saxutils took it to 234 modules
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, fracmix, fracmix.cli; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert heavy(out.split()) == set()


def run_cold(*args):
    """``python -m fracmix`` in a fresh interpreter under ``-X importtime``:
    the run with the import report cut from its stderr, and the top two
    levels of every module name the run imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fracmix", *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stderr.splitlines(keepends=True)
    report = [line for line in lines if line.startswith("import time:")]
    proc.stderr = "".join(line for line in lines if not line.startswith("import time:"))
    loaded = {".".join(line.rsplit("|", 1)[1].strip().split(".")[:2]) for line in report}
    return proc, loaded


SIMULATE = ["simulate", "--hurst", "0.7", "--subjects", "20", "--n-obs", "64", "--horizon", "5",
            "--mu", "-2", "--sigma2", "1", "--seed", "11"]


@pytest.mark.parametrize(
    "args,code",
    [(["--version"], 0), (["simulate", "--hurst", "0.7", "--out", "p.csv"], 2),
     ([*SIMULATE[:2], "1.5", *SIMULATE[3:], "--out", "p.csv"], 2),
     (["experiment", "--config", "bad.cfg", "--out", "o"], 2)],
    ids=["version", "argparse-usage", "range-usage", "experiment-config"],
)
def test_cli_calls_without_scipy_work_load_no_scipy_subpackage(tmp_path, monkeypatch, args, code):
    # the same stdout, stderr and exit code as in this process, where
    # fracmix and scipy are long loaded
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(
        "h_list = 1.5\nsubjects_list = 3\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 1\n"
    )
    got, loaded = run_cold(*args)
    want = run_cli(*args)
    assert (got.returncode, got.stdout, got.stderr) == (code, want.stdout, want.stderr)
    assert want.returncode == code
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "o").exists()
    assert "fracmix.cli" in loaded and heavy(loaded) == set()
    assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)


def test_cold_simulate_loads_no_scipy_subpackage(tmp_path):
    got, loaded = run_cold(*SIMULATE, "--out", str(tmp_path / "cold.csv"))
    want = run_cli(*SIMULATE, "--out", str(tmp_path / "warm.csv"))
    assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, want.stderr)
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    assert heavy(loaded) == set()


POOL_RUN = """
import dataclasses, hashlib, sys, threading
from fracmix import experiment
if sys.argv[1] == "eager":
    import scipy.linalg, scipy.special
first = []  # per search for scipy.special: was it on the main thread?

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            first.append(threading.current_thread() is threading.main_thread())

sys.meta_path.insert(0, Spy())
experiment._worker_count = lambda: 2
cfg = experiment.ExperimentConfig(
    h_list=(0.3, 0.8), subjects_list=(5, 40), n_obs_list=(16, 64), horizon=5.0,
    mu0=-2.0, sigma20=1.0, replications=24, base_seed=7, estimate_hurst=True,
)
digest = hashlib.sha256()
for s in experiment.run_experiment(cfg):
    for f in dataclasses.fields(s):
        v = getattr(s, f.name)
        if f.name == "histograms":
            v = [(k, h.edges.tobytes(), h.counts.tobytes()) for k, h in sorted(v.items())]
        digest.update(repr(v.hex() if isinstance(v, float) else v).encode())
print(first, digest.hexdigest())
"""


def test_scipy_special_first_imported_on_pool_threads_gives_the_same_summaries():
    # with estimate_hurst, the pool threads are the first to call e_k and
    # asym_variance_a, so they import scipy.special themselves; the
    # summaries must match bit for bit a run that imported it up front
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True,
            timeout=600,
        ).stdout.split()

    lazy, eager = run(POOL_RUN, "lazy"), run(POOL_RUN, "eager")
    # searched for once: on a pool thread, unless this scipy's linalg
    # imports special itself, when the first Gram build loads it
    (along,) = run("import sys, scipy.linalg; print('scipy.special' in sys.modules)")
    assert lazy[0] == f"[{along}]"
    assert eager[0] == "[]"  # already loaded
    assert lazy[1] == eager[1]
