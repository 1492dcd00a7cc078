"""Replicated Monte Carlo experiments over an (H, N, n) grid.

Each cell fixes a Hurst exponent, a subject count and an observation
count; R replications each return N slope reads xi_i, optionally plus
H from subject 1; the cell estimates (mu, sigma2) from each row of the
(R, N) reads.  A replication reads its stream as ``simulate_panel``
does, effects phi first and the sampler's noise draws next, but never
forms the (N, n) panel: xi = phi + W @ c takes the noise reads W @ c
straight from the draws (``slope_noise`` of the sampler
``fbm.noise_sampler`` picks), and only subject 1's path is built, when
H is estimated.  So xi is ``xi_values`` of the panel
``simulate_panel`` would draw from that stream, up to rounding.  A
refused H estimate is counted, and the H statistics cover the other
replications.  Replication r of cell c draws from stream id c*R + r, so
cells and replications are independent and any execution order
reproduces the same aggregates.

A cell builds its Gram matrix, sampler and slope form once, then queues
its replications on a thread pool that serves the whole grid (numpy's
normal draws, FFTs and BLAS calls release the GIL), one contiguous
range of replications per thread.  The calling thread keeps one cell
ahead: while the pool draws cell c it sets up and queues cell c+1, then
waits for cell c's ranges in replication order and aggregates the (R, N)
reads they wrote, one row per replication, allocated at set-up.  So
every output is bit-for-bit that of a serial loop, whatever the pool's
size, and errors are raised in the order a serial loop meets them.

Reported "exact" standard deviations evaluate the closed-form moment
formulas at the TRUE configured sigma2 (they are properties of the
design, constant across replications); "empirical" ones are
population-form (divide by R) standard deviations across replications.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import checks
from .effects import estimate_mu, estimate_sigma2, exact_moments
from .errors import EstimationRangeError, FracmixError, NonFiniteError
from .fbm import noise_sampler
from .gram import HURST_MAX, HURST_MIN, GramMatrix, SamplingGrid, build_gram
from .hurst import VariationFilter, as_filter, estimate_h, k_value
from .panel import EffectsLaw, draw_effects
from .rng import RngStream

HISTOGRAM_BINS = 30
HISTOGRAM_HALF_WIDTHS = 4.0  # bins span mean +/- 4 empirical stds
_DOUBLE_MAX = float(np.finfo(float).max)
# samples below 2**480 in magnitude have squared deviations below 2**962,
# so up to 2**61 of them sum without overflow
_SUMMARY_EXPONENT = 480


def _config_key(parse, check, **default):
    """A config field: its config-file text parser and its typed check,
    ``check(key, value)``, which returns the value to store."""
    return field(metadata={"parse": parse, "check": check}, **default)


def _list_key(parse, check):
    """A config field holding a list: comma-separated in a file, each
    value parsed and checked alone, stored as a tuple."""

    def check_all(key, values):
        if isinstance(values, str) or not hasattr(values, "__iter__"):
            raise ValueError(f"{key}: expected a sequence, got {values!r}")
        return tuple(check(key, v) for v in values)

    return _config_key(lambda text: tuple(parse(v) for v in text.split(",")), check_all)


def _truth(text: str) -> bool:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() in ("true", "1", "yes")


def _replications(key, v) -> int:
    v = checks.integer_value(key, v)
    if v < 1:
        raise ValueError(f"need at least one replication, got {v}")
    return v


def _sampler(key, v) -> str:
    if not (isinstance(v, str) and v in ("exact", "fast")):
        raise ValueError(f"sampler must be 'exact' or 'fast', got {v!r}")
    return str(v)


@dataclass(frozen=True)
class ExperimentConfig:
    """``fields(ExperimentConfig)`` is the config schema, in manifest
    order: each field holds its config-file parser and its typed check
    (``checks``), which every value passes on construction, before the
    checks across fields."""

    h_list: tuple[float, ...] = _list_key(float, checks.real_value)
    subjects_list: tuple[int, ...] = _list_key(int, checks.integer_value)
    n_obs_list: tuple[int, ...] = _list_key(int, checks.integer_value)
    horizon: float = _config_key(float, checks.horizon_value)
    mu0: float = _config_key(float, checks.mean_value)
    sigma20: float = _config_key(float, checks.variance_value)
    replications: int = _config_key(int, _replications)
    k: float = _config_key(float, lambda key, v: k_value(v), default=2.0)
    filter: VariationFilter = _config_key(as_filter, lambda key, v: as_filter(v), default="diff2")
    base_seed: int = _config_key(int, checks.seed_value, default=0)
    estimate_hurst: bool = _config_key(_truth, checks.bool_value, default=False)
    sampler: str = _config_key(str, _sampler, default="exact")

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, f.metadata["check"](f.name, getattr(self, f.name)))
        for key in ("h_list", "subjects_list", "n_obs_list"):
            values = getattr(self, key)
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{key} must be nonempty without repeated values, got {values}")
        # every cell builds a Gram matrix, so H takes the Gram range
        if not all(HURST_MIN <= h <= HURST_MAX for h in self.h_list):
            raise ValueError(
                f"h_list values must lie in [{HURST_MIN}, {HURST_MAX}], got {self.h_list}"
            )
        if min(self.subjects_list) < 1 or min(self.n_obs_list) < 1:
            raise ValueError("subjects_list and n_obs_list values must be >= 1")
        if self.estimate_hurst and min(self.n_obs_list) <= (last := self.filter.length):
            raise ValueError(f"n_obs_list values must exceed {last} to estimate H with this filter")

    def cells(self) -> list[tuple[int, float, int, int]]:
        """(cell_index, h, n_subjects, n_obs) in stream-id order."""
        grid = itertools.product(self.h_list, self.subjects_list, self.n_obs_list)
        return [(idx, *cell) for idx, cell in enumerate(grid)]


@dataclass(frozen=True, eq=False)
class Histogram:
    edges: np.ndarray  # HISTOGRAM_BINS + 1 values
    counts: np.ndarray  # HISTOGRAM_BINS values, summing to R


@dataclass(frozen=True, eq=False)
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
    """Mean and population (divide-by-R) standard deviation.

    A sample holding a magnitude of 2**480 or more is scaled down by a
    power of two before summing and the results are scaled back, so a
    finite sample whose sum or squared deviations would overflow gets
    finite statistics.  The scaling is exact apart from elements too small
    to move the results; smaller samples are not scaled.  A sample holding
    an infinity or NaN raises ``NonFiniteError`` before any arithmetic.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(samples).all():
        raise NonFiniteError("samples must be finite, got an infinity or NaN")
    shift = math.frexp(np.max(np.abs(samples)))[1] - _SUMMARY_EXPONENT
    if shift > 0:
        scaled = np.ldexp(samples, -shift)
        return float(np.ldexp(np.mean(scaled), shift)), float(np.ldexp(np.std(scaled), shift))
    return float(np.mean(samples)), float(np.std(samples))


def make_histogram(samples: np.ndarray) -> Histogram:
    """30-bin frequency histogram over mean +/- 4 empirical stds.

    Values beyond the range (rare tail draws) are clipped into the edge
    bins so counts always sum to the number of samples.  A half-width
    below 60 ulps of the mean is widened to that, and a zero std gives
    mean +/- max(0.5, 60 ulps), kept inside the double range, so the
    edges stay distinct and finite at every finite mean.
    """
    samples = np.asarray(samples, dtype=float)
    mean, std = summarize_empirical(samples)
    half = HISTOGRAM_HALF_WIDTHS * std
    floor = 2 * HISTOGRAM_BINS * math.ulp(mean)
    if half < floor:
        half = floor if half > 0.0 else max(0.5, floor)
        mean = min(max(mean, half - _DOUBLE_MAX), _DOUBLE_MAX - half)
    edges = np.linspace(mean - half, mean + half, HISTOGRAM_BINS + 1)
    clipped = np.clip(samples, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return Histogram(edges=edges, counts=counts)


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_threads(cfg: ExperimentConfig) -> int:
    """The threads ``run_experiment`` runs cfg's replications on: one per
    CPU this process may use, and no more than there are replications."""
    return min(_worker_count(), cfg.replications)


def _replicate_with_gram(
    cfg: ExperimentConfig,
    cell_index: int,
    gram: GramMatrix,
    read: Callable[..., tuple[np.ndarray, np.ndarray | None]],
    n_subjects: int,
    rep: int,
) -> tuple[np.ndarray, float]:
    """One replication of one cell, pure in (cfg, cell index, gram, rep):
    the (N,) slope reads and subject 1's H estimate, NaN when it is
    refused or not asked for.  read is the cell's ``slope_noise``, bound
    to its ``slope_form`` of the Gram matrix's weights."""
    gen = RngStream(cfg.base_seed, cell_index * cfg.replications + rep).generator()
    phi = draw_effects(EffectsLaw(cfg.mu0, cfg.sigma20), gen, n_subjects)
    noise, w0 = read(gen, n_subjects, cfg.estimate_hurst)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        xi = phi + noise
        y0 = None if w0 is None else phi[0] * gram.grid.times + w0
    if not np.isfinite(xi).all():
        raise NonFiniteError("slope reads must be finite")
    h_hat = float("nan")
    if y0 is not None:
        if not np.isfinite(y0).all():
            raise NonFiniteError("subject 1's observations must be finite")
        try:
            h_hat = estimate_h(y0, cfg.horizon, cfg.k, cfg.filter).h_hat
        except EstimationRangeError:  # a refusal, counted by the cell
            pass
    return xi, h_hat


def run_experiment(cfg: ExperimentConfig) -> list[CellSummary]:
    """Run every cell of the configured grid and aggregate.

    All cells share one pool of ``worker_threads(cfg)`` threads and its
    first-in, first-out queue.  A cell is set up on the calling thread
    (Gram matrix, sampler, slope form) and queued as one contiguous range
    of replications per thread, each run in a copy of the caller's
    context (so numpy's error state carries over).  The calling thread
    keeps one cell ahead: it sets up and queues cell c+1, then collects
    and aggregates cell c, so a thread done with its range of cell c goes
    straight on to cell c+1, and at most two cells are in flight.

    Errors come in the order a serial loop meets them, each named with
    its cell: the first failing replication in (cell, replication) order,
    and a set-up error in cell c+1 only once cell c has been collected
    cleanly.  A failing replication marks its position before its thread
    takes more work, and no replication past that position starts; when
    the run ends with an error, every range stops at its next
    replication, queued ranges are cancelled, and no thread outlives the
    call.
    """
    from concurrent.futures import ThreadPoolExecutor

    summaries = []
    threads = worker_threads(cfg)
    cuts = [cfg.replications * i // threads for i in range(threads + 1)]
    stop = _StopLine()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            ahead = None  # the cell set up and queued, not yet collected
            for cell in cfg.cells():
                try:
                    queued = _start_cell(cfg, pool, cuts, stop, cell)
                finally:  # a set-up error is raised once the cell ahead is collected cleanly
                    if ahead is not None:
                        summaries.append(_finish_cell(cfg, *ahead))
                ahead = queued
            summaries.append(_finish_cell(cfg, *ahead))
        except BaseException:
            stop.lower(-1)
            pool.shutdown(cancel_futures=True)
            raise
    return summaries


class _StopLine:
    """The first stream id, in (cell, replication) order, known to fail:
    no replication at or past it starts."""

    def __init__(self):
        self.position = math.inf
        self._lock = threading.Lock()

    def lower(self, position: int) -> None:
        with self._lock:
            self.position = min(self.position, position)


@contextlib.contextmanager
def _named(cell):
    """Prefix a ``FracmixError`` raised inside with the cell's name."""
    _, h, n_subjects, n_obs = cell
    try:
        yield
    except FracmixError as exc:
        raise type(exc)(f"cell (H={h}, N={n_subjects}, n={n_obs}): {exc}") from exc


def _start_cell(cfg, pool, cuts, stop, cell):
    """Set one cell up and queue replications cuts[i] to cuts[i+1] as one
    task of pool each; the cell, its Gram matrix, the (R, N) slope reads
    and (R,) H estimates that the tasks fill row by row, and the tasks."""
    cell_index, h, n_subjects, n_obs = cell
    with _named(cell):
        grid = SamplingGrid.uniform(n_obs, cfg.horizon)
        gram = build_gram(grid, h)  # one per cell, as are the sampler and its slope form
        sampler = noise_sampler(cfg.sampler, gram.grid, gram.h)
        read = functools.partial(sampler.slope_noise, sampler.slope_form(gram.weights))
        xi = checks.held(np.empty, (cfg.replications, n_subjects), "subjects' slope reads")
        h_hats = checks.held(np.empty, (cfg.replications,), "H estimates")
    first = cell_index * cfg.replications  # the stream id of replication 0

    def replicate(reps: range) -> None:
        for rep in reps:
            if first + rep >= stop.position:
                break
            try:
                xi[rep], h_hats[rep] = _replicate_with_gram(
                    cfg, cell_index, gram, read, n_subjects, rep
                )
            except BaseException:
                stop.lower(first + rep)
                raise

    futures = [
        pool.submit(contextvars.copy_context().run, replicate, range(lo, hi))
        for lo, hi in itertools.pairwise(cuts)
    ]
    return cell, gram, xi, h_hats, futures


def _finish_cell(cfg, cell, gram, xi, h_hats, futures) -> CellSummary:
    """Wait for a started cell's replications in order and aggregate them."""
    _, h, n_subjects, n_obs = cell
    with _named(cell):
        for future in futures:  # in order, so the first failure is the one serial runs raise
            future.result()
        finite_h = h_hats[np.isfinite(h_hats)]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            samples = {"mu": estimate_mu(xi)}
            if n_subjects >= 2:  # sigma2 undefined for single-subject panels
                samples["sigma2"] = estimate_sigma2(xi, gram.quad_uu)
            if finite_h.size:
                samples["hurst"] = finite_h
            moments = exact_moments(cfg.sigma20, n_subjects, gram.quad_uu)
            finite = all(np.isfinite(x).all() for x in [moments, *samples.values()])
            histograms = {name: make_histogram(v) for name, v in samples.items()} if finite else {}
        if not (finite and all(np.isfinite(v.edges).all() for v in histograms.values())):
            raise NonFiniteError("the estimates or their exact moments overflow a double")
        stats = {name: summarize_empirical(v) for name, v in samples.items()}
        nan = (float("nan"), float("nan"))
        mean_mu, emp_std_mu = stats["mu"]
        mean_s2, emp_std_s2 = stats.get("sigma2", nan)
        mean_h, emp_std_h = stats.get("hurst", nan) if cfg.estimate_hurst else (None, None)
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
            hurst_refusals=cfg.replications - finite_h.size if cfg.estimate_hurst else 0,
        )
