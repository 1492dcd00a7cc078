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
# scipy.linalg inside the functions that call it, so only commands that
# factor or solve load it, and never imports scipy.special (the estimators
# read Gamma from math, fracmix.special's port of Hurwitz zeta and
# effects' own normal quantile), and
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


def test_pool_threads_search_for_no_scipy_special_and_give_the_same_summaries():
    # with estimate_hurst, the pool threads are the first to call e_k and
    # asym_variance_a, which read fracmix.special, not scipy.special; the
    # summaries must match bit for bit a run that imported scipy up front
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True,
            timeout=600,
        ).stdout.split()

    lazy, eager = run(POOL_RUN, "lazy"), run(POOL_RUN, "eager")
    assert lazy[0] == "[]"  # searched for on no thread
    assert eager[0] == "[]"  # already loaded
    assert lazy[1] == eager[1]


# ------------------------------------- the compiled Levinson kernel alone
# A uniform Gram build loads scipy.linalg._solve_toeplitz by itself, without
# the scipy.linalg package and its BLAS and LAPACK wrappers, and the exact
# sampler on a uniform grid factors V with numpy alone (the Schur pass); the
# Cholesky backend and the exact sampler on other grids import the package.
def run_fresh(code, *args):
    """The stdout lines of ``python -c code *args`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        check=True, timeout=600,
    ).stdout.split()


LINALG_RUN = """
import sys
import numpy as np
from fracmix import EffectsLaw, RngStream, SamplingGrid, build_gram, simulate_panel
from fracmix.experiment import ExperimentConfig, run_experiment
grid = SamplingGrid.uniform(64, 5.0)
case = sys.argv[1]
if case == "uniform-build":
    build_gram(grid, 0.7).quad_yy(np.ones((2, 64)))
elif case in ("fast-experiment", "exact-experiment"):
    cfg = ExperimentConfig(h_list=(0.3, 0.8), subjects_list=(5,), n_obs_list=(16, 64), horizon=5.0,
                           mu0=-2.0, sigma20=1.0, replications=3, base_seed=2, estimate_hurst=True,
                           sampler=case.split("-")[0])
    run_experiment(cfg)
elif case == "non-uniform-build":
    build_gram(SamplingGrid((1.0, 1.5, 3.0)), 0.7)
elif case == "exact-panel":
    simulate_panel(4, grid, 0.7, EffectsLaw(-2.0, 1.0), RngStream(3), noise="exact")
elif case == "non-uniform-exact-panel":
    simulate_panel(4, SamplingGrid((1.0, 1.5, 3.0)), 0.7, EffectsLaw(-2.0, 1.0), RngStream(3),
                   noise="exact")
print("scipy.linalg" in sys.modules, "scipy.linalg._solve_toeplitz" in sys.modules)
"""


@pytest.mark.parametrize(
    "case,package",
    [("uniform-build", False), ("fast-experiment", False), ("non-uniform-build", True),
     ("exact-panel", False), ("exact-experiment", False), ("non-uniform-exact-panel", True)],
)
def test_uniform_builds_load_the_levinson_kernel_without_scipy_linalg(case, package):
    # a kernel loaded by itself is not left in sys.modules
    assert run_fresh(LINALG_RUN, case) == [str(package), str(package)]


def test_cold_uniform_hurst_and_effects_load_no_scipy_linalg(tmp_path):
    from fracmix import Panel, SamplingGrid
    from fracmix.panel_io import read_panel_csv, write_panel_csv

    uniform, other = tmp_path / "uniform.csv", tmp_path / "other.csv"
    assert run_cli(*SIMULATE, "--out", str(uniform)).returncode == 0
    y = read_panel_csv(uniform).y[:, :3]
    write_panel_csv(other, Panel(SamplingGrid((1.0, 1.5, 3.0)), y))
    for package, args in [(False, ["hurst", "--input", str(uniform)]),
                          (False, ["effects", "--input", str(uniform), "--hurst", "0.7"]),
                          (True, ["effects", "--input", str(other), "--hurst", "0.7"])]:
        got, loaded = run_cold(*args)
        want = run_cli(*args)
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, want.stderr)
        assert ("scipy.linalg" in loaded) == package, args
        # the interval quantile is fracmix's own: statistics.NormalDist's
        # inv_cdf would load these three for about 0.5 MB
        assert loaded.isdisjoint({"scipy.special", "statistics", "decimal", "fractions"}), args


def test_cold_hurst_estimating_experiment_loads_no_scipy_special(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.3\nsubjects_list = 5\nn_obs_list = 16, 64\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 6\nbase_seed = 3\nestimate_hurst = true\n"
    )
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    got, loaded = run_cold("experiment", "--config", str(cfg), "--out", str(cold_dir))
    want = run_cli("experiment", "--config", str(cfg), "--out", str(warm_dir))
    got.stderr = got.stderr.replace(str(cold_dir), str(warm_dir))  # the one difference
    assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, want.stderr)
    cold, warm = ({p.name: p.read_bytes() for p in d.iterdir()} for d in (cold_dir, warm_dir))
    assert "hist_0.3_5_64_hurst.svg" in cold and cold == warm
    assert heavy(loaded) == {"concurrent.futures", "logging"}


ORDER_RUN = """
import sys
import pytest
from fracmix import gram
grid = gram.SamplingGrid.uniform(33, 5.0)
if sys.argv[1] == "package-first":
    import scipy.linalg
first = gram.build_gram(grid, 0.7)
calls, mp = [], pytest.MonkeyPatch()
solve = gram._toeplitz_kernel().levinson
# the dotted path imports scipy.linalg, after the kernel in "kernel-first"
mp.setattr("scipy.linalg._solve_toeplitz.levinson", lambda *a: calls.append(a) or solve(*a))
import scipy.linalg
kernel = sys.modules[gram._KERNEL]
again = gram.build_gram(grid, 0.7)
mp.undo()
print(scipy.linalg._solve_toeplitz is kernel, gram._toeplitz_kernel() is kernel,
      kernel.levinson is solve, len(calls), again.weights.tobytes() == first.weights.tobytes())
"""


@pytest.mark.parametrize("order", ["kernel-first", "package-first"])
def test_a_dotted_monkeypatch_reaches_the_kernel_in_either_load_order(order):
    assert run_fresh(ORDER_RUN, order) == ["True", "True", "True", "2", "True"]


THREADS_RUN = """
import importlib.machinery, sys, threading
from fracmix import gram
finds, find = [], importlib.machinery.PathFinder.find_spec

def spy(name, path=None, target=None):
    if name == gram._KERNEL:
        finds.append(name)
    return find(name, path, target)

importlib.machinery.PathFinder.find_spec = spy
sys.setswitchinterval(1e-6)
barrier, got = threading.Barrier(2), {}

def build(i):
    barrier.wait()
    got[i] = (gram.build_gram(gram.SamplingGrid.uniform(257, 5.0), 0.6).weights.tobytes(),
              gram._toeplitz_kernel())

threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(any(t.is_alive() for t in threads), len(finds), got[0][1] is got[1][1], got[0][0] == got[1][0],
      "scipy.linalg" in sys.modules)
"""


def test_two_threads_making_the_first_uniform_build_share_one_kernel():
    # one search for the kernel: the second thread waits for the first's load
    for _ in range(3):
        assert run_fresh(THREADS_RUN) == ["False", "1", "True", "True", "False"]


BITS_RUN = """
import dataclasses, hashlib, sys
import numpy as np
if sys.argv[1] == "package":
    import scipy.linalg
from fracmix import gram
digest = hashlib.sha256()
for n in (1, 2, 4, 32, 257, 4096):
    grid = gram.SamplingGrid.uniform(n, 5.0)
    y = np.random.default_rng(n).standard_normal((3, n)) + grid.times
    for h in (0.01, 0.15, 0.5, 0.85, 0.99):
        g = gram.build_gram(grid, h)
        for f in dataclasses.fields(g):
            v = getattr(g, f.name)
            if isinstance(v, np.ndarray):
                v = v.tobytes()
            elif isinstance(v, float):
                v = v.hex()
            digest.update(repr(v).encode())
        digest.update(g.quad_yy(y).tobytes())
print("scipy.linalg" in sys.modules, digest.hexdigest())
"""


def test_the_kernel_alone_gives_the_bits_of_the_package_import():
    (alone, a), (package, b) = run_fresh(BITS_RUN, "kernel"), run_fresh(BITS_RUN, "package")
    assert (alone, package) == ("False", "True")
    assert a == b


def test_a_scipy_the_path_finder_cannot_search_takes_the_usual_import():
    code = """
import importlib.machinery, sys
from fracmix import gram
find, searches = importlib.machinery.PathFinder.find_spec, []

def spy(name, *args):  # the kernel's own search finds nothing; the package import finds it
    if name == gram._KERNEL:
        searches.append(name)
        if len(searches) == 1:
            return None
    return find(name, *args)

importlib.machinery.PathFinder.find_spec = spy
g = gram.build_gram(gram.SamplingGrid.uniform(40, 5.0), 0.4)
print(len(searches), "scipy.linalg" in sys.modules, gram._toeplitz_kernel() is sys.modules[gram._KERNEL],
      g.weights.tobytes().hex())
"""
    fell_back = run_fresh(code)
    direct = run_fresh("from fracmix import gram\n"
                       "print(gram.build_gram(gram.SamplingGrid.uniform(40, 5.0), 0.4).weights.tobytes().hex())")
    assert fell_back == ["2", "True", "True", *direct]
