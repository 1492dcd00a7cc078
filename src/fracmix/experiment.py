"""Replicated Monte Carlo experiments over an (H, N, n) grid.

Each cell fixes a Hurst exponent, a subject count and an observation
count; R replications each simulate a fresh panel and estimate
(mu, sigma2), optionally plus H from subject 1; a refused H estimate
is counted, and the H statistics cover the other replications.
Replication r of cell c draws from stream id c*R + r, so cells and
replications are independent and any execution order reproduces the
same aggregates.

Reported "exact" standard deviations evaluate the closed-form moment
formulas at the TRUE configured sigma2 (they are properties of the
design, constant across replications); "empirical" ones are
population-form (divide by R) standard deviations across replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .effects import estimate_mu, estimate_sigma2, exact_moments, xi_values
from .errors import EstimationRangeError, FracmixError
from .gram import HURST_MAX, HURST_MIN, GramMatrix, SamplingGrid, build_gram
from .hurst import VariationFilter, as_filter, estimate_h, k_value
from .panel import EffectsLaw, simulate_panel
from .rng import RngStream

HISTOGRAM_BINS = 30
HISTOGRAM_HALF_WIDTHS = 4.0  # bins span mean +/- 4 empirical stds


@dataclass(frozen=True)
class ExperimentConfig:
    h_list: tuple[float, ...]
    subjects_list: tuple[int, ...]
    n_obs_list: tuple[int, ...]
    horizon: float
    mu0: float
    sigma20: float
    replications: int
    k: float = 2.0
    filter: VariationFilter = field(default_factory=lambda: as_filter("diff2"))
    base_seed: int = 0
    estimate_hurst: bool = False
    sampler: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "h_list", tuple(float(h) for h in self.h_list))
        object.__setattr__(self, "subjects_list", tuple(int(v) for v in self.subjects_list))
        object.__setattr__(self, "n_obs_list", tuple(int(v) for v in self.n_obs_list))
        if not (self.h_list and self.subjects_list and self.n_obs_list):
            raise ValueError("h_list, subjects_list and n_obs_list must be nonempty")
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        # every cell builds a Gram matrix, so H takes the Gram range
        if not all(HURST_MIN <= h <= HURST_MAX for h in self.h_list):
            raise ValueError(
                f"h_list values must lie in [{HURST_MIN}, {HURST_MAX}], got {self.h_list}"
            )
        if min(self.subjects_list) < 1 or min(self.n_obs_list) < 1:
            raise ValueError("subjects_list and n_obs_list values must be >= 1")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not math.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0}")
        if not (math.isfinite(self.sigma20) and self.sigma20 >= 0.0):
            raise ValueError(f"sigma20 must be finite and >= 0, got {self.sigma20}")
        k_value(self.k)

    def cells(self) -> list[tuple[int, float, int, int]]:
        """(cell_index, h, n_subjects, n_obs) in stream-id order."""
        out = []
        idx = 0
        for h in self.h_list:
            for n_sub in self.subjects_list:
                for n_obs in self.n_obs_list:
                    out.append((idx, h, n_sub, n_obs))
                    idx += 1
        return out


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray  # HISTOGRAM_BINS + 1 values
    counts: np.ndarray  # HISTOGRAM_BINS values, summing to R


@dataclass(frozen=True)
class CellSummary:
    h: float
    n_subjects: int
    n_obs: int
    mean_mu_hat: float
    emp_std_mu: float
    exact_std_mu: float
    mean_sigma2_hat: float
    emp_std_sigma2: float
    exact_std_sigma2: float
    histograms: dict[str, Histogram]
    mean_h_hat: float | None = None
    emp_std_h: float | None = None
    hurst_refusals: int = 0


def summarize_empirical(samples: np.ndarray) -> tuple[float, float]:
    """Mean and population (divide-by-R) standard deviation."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise ValueError("need at least one sample")
    return float(np.mean(samples)), float(np.std(samples))


def make_histogram(samples: np.ndarray) -> Histogram:
    """30-bin frequency histogram over mean +/- 4 empirical stds.

    Values beyond the range (rare tail draws, or everything when the
    empirical std is 0) are clipped into the edge bins so counts always
    sum to the number of samples.
    """
    samples = np.asarray(samples, dtype=float)
    mean, std = summarize_empirical(samples)
    half = HISTOGRAM_HALF_WIDTHS * std
    if half <= 0.0:
        half = 0.5
    edges = np.linspace(mean - half, mean + half, HISTOGRAM_BINS + 1)
    clipped = np.clip(samples, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return Histogram(edges=edges, counts=counts)


def _replicate_with_gram(
    cfg: ExperimentConfig, cell_index: int, gram: GramMatrix, n_subjects: int, rep: int
) -> tuple[float, float, float | None]:
    """One replication of one cell; pure in (cfg, cell index, gram, rep)."""
    stream = RngStream(cfg.base_seed, cell_index * cfg.replications + rep)
    panel = simulate_panel(
        n_subjects,
        gram.grid,
        gram.h,
        EffectsLaw(cfg.mu0, cfg.sigma20),
        stream,
        noise=cfg.sampler,
        gram=gram,
    )
    xi = xi_values(panel, gram)
    mu_hat = estimate_mu(xi)
    sigma2_hat = estimate_sigma2(xi, gram.quad_uu) if n_subjects >= 2 else float("nan")
    h_hat = None
    if cfg.estimate_hurst:
        try:
            h_hat = estimate_h(panel.y[0], cfg.horizon, cfg.k, cfg.filter).h_hat
        except EstimationRangeError:  # a refusal, counted by the cell
            h_hat = float("nan")
    return mu_hat, sigma2_hat, h_hat


def run_experiment(cfg: ExperimentConfig) -> list[CellSummary]:
    """Run every cell of the configured grid and aggregate."""
    summaries = []
    for cell_index, h, n_subjects, n_obs in cfg.cells():
        try:
            summaries.append(_run_cell(cfg, cell_index, h, n_subjects, n_obs))
        except FracmixError as exc:
            raise type(exc)(
                f"cell (H={h}, N={n_subjects}, n={n_obs}): {exc}"
            ) from exc
    return summaries


def _run_cell(cfg, cell_index, h, n_subjects, n_obs) -> CellSummary:
    grid = SamplingGrid.uniform(n_obs, cfg.horizon)
    gram = build_gram(grid, h)  # one per cell; the exact sampler factors it once
    mu_hats = np.empty(cfg.replications)
    s2_hats = np.empty(cfg.replications)
    h_hats = np.empty(cfg.replications) if cfg.estimate_hurst else None
    for rep in range(cfg.replications):
        mu_hat, s2_hat, h_hat = _replicate_with_gram(cfg, cell_index, gram, n_subjects, rep)
        mu_hats[rep] = mu_hat
        s2_hats[rep] = s2_hat
        if h_hats is not None:
            h_hats[rep] = h_hat
    mean_mu, emp_std_mu = summarize_empirical(mu_hats)
    mean_s2, emp_std_s2 = summarize_empirical(s2_hats)
    moments = exact_moments(cfg.sigma20, n_subjects, gram.quad_uu)
    histograms = {"mu": make_histogram(mu_hats)}
    if n_subjects >= 2:  # sigma2 undefined for single-subject panels
        histograms["sigma2"] = make_histogram(s2_hats)
    mean_h = emp_std_h = None
    refusals = 0
    if h_hats is not None:
        finite = h_hats[np.isfinite(h_hats)]
        refusals = cfg.replications - finite.size
        mean_h = emp_std_h = float("nan")
        if finite.size:
            mean_h, emp_std_h = summarize_empirical(finite)
            histograms["hurst"] = make_histogram(finite)
    return CellSummary(
        h=h,
        n_subjects=n_subjects,
        n_obs=n_obs,
        mean_mu_hat=mean_mu,
        emp_std_mu=emp_std_mu,
        exact_std_mu=moments.std_mu,
        mean_sigma2_hat=mean_s2,
        emp_std_sigma2=emp_std_s2,
        exact_std_sigma2=moments.std_sigma2,
        histograms=histograms,
        mean_h_hat=mean_h,
        emp_std_h=emp_std_h,
        hurst_refusals=refusals,
    )
