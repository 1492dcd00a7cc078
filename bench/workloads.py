"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop with one caller: a pass starts when the
previous one has returned.  Inputs come from the seed alone.  Checks are
statistical tolerances or exact oracles, never byte-equality against a
recorded stream, so a change that redraws the random streams on purpose
still passes them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

# Library calls go through module attributes, so that the tracer's
# wrappers on those attributes see them.
from fracmix import cli, effects, experiment, gram, hurst, panel_io
from fracmix.errors import EstimationRangeError
from fracmix.experiment import ExperimentConfig
from fracmix.gram import SamplingGrid
from fracmix.panel import EffectsLaw, simulate_panel
from fracmix.rng import RngStream

# Axes of the shipped scripts/full_grid.cfg, kept here so that the
# workload stays fixed when that file changes.
GRID_AXES = dict(
    h_list=(0.15, 0.5, 0.85),
    subjects_list=(50, 500),
    n_obs_list=(4, 32, 256),
    horizon=5.0,
    mu0=-2.0,
    sigma20=1.0,
)
GRID_REPLICATIONS = 32
SMOKE_REPLICATIONS = 4

# A check fails only past this many standard deviations; with the few
# dozen checks of a pass a false alarm has odds below 1e-4 per seed.
Z_CHECK = 5.0
# Oracle panels hold at least this many subjects, so the RMS error over
# them repeats from seed to seed.
ORACLE_SUBJECTS = 512


@dataclass
class Outcome:
    """What one pass did: operations attempted, refused with a
    documented error, failed (the pass aborted), and output problems."""

    attempted: int
    refused: int = 0
    failed: int = 0
    problems: tuple[str, ...] = ()


def oracle_error(grid: SamplingGrid, v, h: float, n_subjects: int, stream: RngStream) -> float:
    """RMS relative error of xi against phi on a noise-free panel.

    Without noise every row is exactly phi_i * t, so xi must equal phi.
    The panel draws its effects from ``stream`` first, so its leading
    rows are the noise-free copy of the panel simulated from that stream.
    """
    law = EffectsLaw(GRID_AXES["mu0"], GRID_AXES["sigma20"])
    clean = simulate_panel(max(n_subjects, ORACLE_SUBJECTS), grid, h, law, stream, noise="none")
    rel = effects.xi_values(clean, v) / clean.true_effects - 1.0
    return float(np.sqrt(np.mean(rel**2)))


def check_cells(rows: list[dict], replications: int) -> list[str]:
    """Statistical checks on an experiment's per-cell summaries.

    Each row carries H, N, n, mean_mu, exact_std_mu, emp_std_mu,
    mean_sigma2, exact_std_sigma2 and emp_std_sigma2.  The tolerances
    follow from R: the empirical std of R draws has relative standard
    error sqrt((kurtosis - 1) / (4R)).
    """
    mu0, sigma20 = GRID_AXES["mu0"], GRID_AXES["sigma20"]
    expected = {
        (h, n_sub, n_obs)
        for h in GRID_AXES["h_list"]
        for n_sub in GRID_AXES["subjects_list"]
        for n_obs in GRID_AXES["n_obs_list"]
    }
    got = {(r["H"], r["N"], r["n"]) for r in rows}
    if got != expected or len(rows) != len(expected):
        return [f"cells {sorted(got)} differ from the grid {sorted(expected)}"]
    problems = []
    r = replications
    se_ratio_mu = math.sqrt(2.0 / (4.0 * r))
    ratios_mu, ratios_s2 = [], []
    for row in rows:
        cell = f"cell (H={row['H']}, N={row['N']}, n={row['n']})"
        values = [v for k, v in row.items() if k not in ("H", "N", "n")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{cell}: non-finite summary {row}")
            continue
        n_sub = row["N"]
        if abs(row["mean_mu"] - mu0) > Z_CHECK * row["exact_std_mu"] / math.sqrt(r):
            problems.append(f"{cell}: mean_mu {row['mean_mu']} too far from {mu0}")
        inv_q = n_sub * row["exact_std_mu"] ** 2 - sigma20
        mean_s2 = (n_sub - 1) / n_sub * sigma20 - inv_q / n_sub
        if abs(row["mean_sigma2"] - mean_s2) > Z_CHECK * row["exact_std_sigma2"] / math.sqrt(r):
            problems.append(f"{cell}: mean_sigma2 {row['mean_sigma2']} too far from {mean_s2}")
        # sigma2_hat is a scaled chi-square with N - 1 degrees of freedom
        se_ratio_s2 = math.sqrt((2.0 + 12.0 / (n_sub - 1)) / (4.0 * r))
        for param, se, bucket in (("mu", se_ratio_mu, ratios_mu), ("sigma2", se_ratio_s2, ratios_s2)):
            ratio = row[f"emp_std_{param}"] / row[f"exact_std_{param}"]
            bucket.append((ratio, se))
            if abs(ratio - 1.0) > Z_CHECK * se:
                problems.append(f"{cell}: emp_std/exact_std for {param} is {ratio:.4f}")
    for param, bucket in (("mu", ratios_mu), ("sigma2", ratios_s2)):
        if bucket:
            mean = sum(x for x, _ in bucket) / len(bucket)
            se = math.sqrt(sum(s * s for _, s in bucket)) / len(bucket)
            if abs(mean - 1.0) > Z_CHECK * se:
                problems.append(f"mean emp_std/exact_std for {param} over cells is {mean:.4f}")
    return problems


class GridWorkload:
    """The paper's reference study on the 18 cells of the shipped grid."""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.workdir = workdir
        self.replications = SMOKE_REPLICATIONS if smoke else GRID_REPLICATIONS
        self.cfg = ExperimentConfig(
            **GRID_AXES, replications=self.replications, base_seed=seed, sampler=self.sampler
        )
        self.xi_rel_err = 0.0
        for idx, h, n_sub, n_obs in self.cfg.cells():
            grid = SamplingGrid.uniform(n_obs, self.cfg.horizon)
            stream = RngStream(seed, idx * self.replications)  # the cell's first replication
            err = oracle_error(grid, gram.build_gram(grid, h), h, n_sub, stream)
            self.xi_rel_err = max(self.xi_rel_err, err)

    @property
    def operations(self) -> int:
        return len(self.cfg.cells()) * self.replications

    def warm_up(self) -> Outcome:
        return self.run()


class GridExact(GridWorkload):
    """``fracmix experiment`` through ``cli.main`` with the exact sampler."""

    sampler = "exact"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.config_path = os.path.join(workdir, "grid.cfg")
        axes = {k: ", ".join(map(str, v)) if isinstance(v, tuple) else v for k, v in GRID_AXES.items()}
        lines = [f"{k} = {v}" for k, v in axes.items()]
        lines += [f"replications = {self.replications}", f"base_seed = {seed}"]
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self._out = None

    def run(self) -> Outcome:
        self._out = tempfile.mkdtemp(prefix="grid-", dir=self.workdir)
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(["experiment", "--config", self.config_path, "--out", self._out])
        if code != 0:
            return Outcome(self.operations, failed=self.operations, problems=(log.getvalue(),))
        return Outcome(self.operations)

    def check(self) -> list[str]:
        out, self._out = self._out, None
        try:
            return self._check_files(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_files(self, out: str) -> list[str]:
        names = os.listdir(out)
        tables = sorted(n for n in names if n.startswith("table_n") and n.endswith(".csv"))
        svgs = [n for n in names if n.startswith("hist_") and n.endswith(".svg")]
        want_tables = sorted(f"table_n{n}.csv" for n in GRID_AXES["n_obs_list"])
        n_cells = len(self.cfg.cells())
        problems = []
        if tables != want_tables:
            problems.append(f"tables {tables}, expected {want_tables}")
        if len(svgs) != 2 * n_cells:
            problems.append(f"{len(svgs)} SVG histograms, expected {2 * n_cells}")
        try:
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            if manifest["base_seed"] != self.cfg.base_seed:
                problems.append(f"manifest base_seed {manifest['base_seed']} != {self.cfg.base_seed}")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"manifest.json unreadable: {exc!r}")
        rows = []
        for name in tables:
            n_obs = int(name[len("table_n"):-len(".csv")])
            with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
                for rec in csv.DictReader(fh):
                    row = {k: float(v) for k, v in rec.items()}
                    row["N"] = int(rec["N"])
                    row["n"] = n_obs
                    rows.append(row)
        return problems + check_cells(rows, self.replications)


class GridFft(GridWorkload):
    """The same cells through ``run_experiment`` with the FFT sampler."""

    sampler = "fast"

    def run(self) -> Outcome:
        self._summaries = experiment.run_experiment(self.cfg)  # the sampler is not a config-file key
        return Outcome(self.operations)

    def check(self) -> list[str]:
        rows = [
            dict(
                H=s.h, N=s.n_subjects, n=s.n_obs,
                mean_mu=s.mean_mu_hat, exact_std_mu=s.exact_std_mu, emp_std_mu=s.emp_std_mu,
                mean_sigma2=s.mean_sigma2_hat, exact_std_sigma2=s.exact_std_sigma2,
                emp_std_sigma2=s.emp_std_sigma2,
            )
            for s in self._summaries
        ]
        return check_cells(rows, self.replications)


@dataclass(frozen=True)
class PanelSpec:
    name: str
    h: float
    n_subjects: int
    n_obs: int
    stream_id: int


ANALYSIS_PANELS = (
    PanelSpec("long", 0.85, 16, 4096, 0),  # dense Gram build dominates
    PanelSpec("wide", 0.15, 500, 32, 1),  # one of the shipped grid cells
)
SMOKE_PANELS = (
    PanelSpec("long", 0.85, 16, 256, 0),
    PanelSpec("wide", 0.15, 50, 32, 1),
)
LEVEL = 0.95
SIGMA2_FLOOR = 1e-3  # the likelihood needs sigma2 > 0; sigma2_hat may be negative


class Analysis:
    """The CLI user's two-step path over two panel files."""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.specs = SMOKE_PANELS if smoke else ANALYSIS_PANELS
        law = EffectsLaw(GRID_AXES["mu0"], GRID_AXES["sigma20"])
        for spec in self.specs:
            grid = SamplingGrid.uniform(spec.n_obs, GRID_AXES["horizon"])
            panel = simulate_panel(
                spec.n_subjects, grid, spec.h, law, RngStream(seed, spec.stream_id), noise="fast"
            )
            panel_io.write_panel_csv(self._path(spec, "in"), panel)
        self.operations = sum(spec.n_subjects + 7 for spec in self.specs)
        self.xi_rel_err = None
        self._results = None

    def warm_up(self) -> Outcome:
        return self.run(oracle=True)

    def _path(self, spec: PanelSpec, kind: str) -> str:
        return os.path.join(self.workdir, f"{spec.name}.{kind}.csv")

    def run(self, oracle: bool = False) -> Outcome:
        """read, estimate H per subject, build V, estimate effects,
        intervals, likelihood, serialize, write; per panel."""
        results, refused = [], 0
        for spec in self.specs:
            panel = panel_io.read_panel_csv(self._path(spec, "in"))
            estimates = []
            for row in panel.y:
                try:
                    estimates.append(hurst.estimate_h(row, panel.grid.horizon))
                except EstimationRangeError:
                    refused += 1
            v = gram.build_gram(panel.grid, spec.h)
            est = effects.estimate_effects(panel, v)
            ci_mu, ci_sigma2 = effects.confidence_intervals(est, LEVEL)
            law = EffectsLaw(est.mu_hat, max(est.sigma2_hat, SIGMA2_FLOOR))
            loglik = effects.log_marginal_likelihood(panel, v, law)
            text = panel_io.dumps_result(
                {"mu_hat": est.mu_hat, "sigma2_hat": est.sigma2_hat, "ci_mu": list(ci_mu),
                 "ci_sigma2": list(ci_sigma2), "loglik": loglik,
                 "h_hat": [e.h_hat for e in estimates]}
            )
            panel_io.write_panel_csv(self._path(spec, "out"), panel)
            if oracle:
                stream = RngStream(self.seed, spec.stream_id)
                err = oracle_error(panel.grid, v, spec.h, spec.n_subjects, stream)
                self.xi_rel_err = max(self.xi_rel_err or 0.0, err)
            del v  # free V and L before the next panel builds its own
            results.append((spec, panel.n_subjects, estimates, est, ci_mu, loglik, text))
        self._results = results
        return Outcome(self.operations, refused=refused)

    def check(self) -> list[str]:
        problems = []
        for spec, n_subjects, estimates, est, ci_mu, loglik, text in self._results:
            tag = f"panel {spec.name}"
            with open(self._path(spec, "in"), "rb") as a, open(self._path(spec, "out"), "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{tag}: CSV read -> write round trip is not byte-identical")
            if n_subjects != spec.n_subjects:
                problems.append(f"{tag}: read {n_subjects} subjects, wrote {spec.n_subjects}")
            for e in estimates:
                if not 0.0 < e.h_hat < 1.0 or not math.isfinite(e.asym_std):
                    problems.append(f"{tag}: h_hat {e.h_hat} asym_std {e.asym_std}")
            if spec.name == "long":
                far = [e.h_hat for e in estimates if abs(e.h_hat - spec.h) > Z_CHECK * e.asym_std]
                if far:
                    problems.append(f"{tag}: h_hat {far} beyond {Z_CHECK} asym_std of {spec.h}")
            # 4 standard deviations of mu_hat at the generating law
            sd_mu = effects.exact_moments(GRID_AXES["sigma20"], spec.n_subjects, est.q).std_mu
            if abs(est.mu_hat - GRID_AXES["mu0"]) > 4.0 * sd_mu:
                problems.append(f"{tag}: mu_hat {est.mu_hat} beyond 4 sd ({sd_mu}) of -2")
            if not ci_mu[0] < est.mu_hat < ci_mu[1] or not math.isfinite(loglik):
                problems.append(f"{tag}: interval {ci_mu} or loglik {loglik} malformed")
            if json.loads(text)["mu_hat"] != est.mu_hat:
                problems.append(f"{tag}: JSON result does not round-trip mu_hat")
        return problems


WORKLOADS = {"grid_exact": GridExact, "grid_fft": GridFft, "analysis": Analysis}
