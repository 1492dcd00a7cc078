"""Acceptance criteria for the package, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible
with ``pytest -s``) carrying the measured numbers, then asserts.

Criterion 5's dispersion clause is recorded as a strict expected
failure: its stated target normalizes by sqrt(n)/log(n), while the
estimator's sampling dispersion provably and measurably follows
sqrt(n)*log(n) (about two orders of magnitude smaller at n = 2^14).
The companion test pins the corrected scale at the same tolerance.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, multivariate_normal, norm

from fracmix import (
    EffectsLaw,
    ExperimentConfig,
    RngStream,
    SamplingGrid,
    as_filter,
    asym_variance_a,
    build_gram,
    confidence_intervals,
    estimate_effects,
    estimate_h,
    exact_moments,
    log_marginal_likelihood,
    run_experiment,
    simulate_panel,
)
from fracmix.fbm import exact_paths, fast_paths
from fracmix.gram import cholesky_factor, fbm_covariance

DIFF2 = as_filter("diff2")


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_brownian_closed_forms():
    grid = SamplingGrid((1.25, 2.5, 3.75, 5.0))
    q = build_gram(grid, 0.5).quad_uu
    m = exact_moments(1.0, 50, q)
    ok = (
        abs(q - 5.0) <= 1e-10
        and abs(m.std_mu - 0.1549) <= 5e-4
        and abs(m.std_sigma2 - 0.2376) <= 5e-4
    )
    assert report(
        "1",
        ok,
        f"q={q!r} (want 5 +/- 1e-10), std_mu={m.std_mu:.6f} (want 0.1549 +/- 5e-4), "
        f"std_sigma2={m.std_sigma2:.6f} (want 0.2376 +/- 5e-4)",
    )


def test_criterion_2_reference_table_cell():
    cfg = ExperimentConfig(
        h_list=(0.5,),
        subjects_list=(500,),
        n_obs_list=(256,),
        horizon=5.0,
        mu0=-2.0,
        sigma20=1.0,
        replications=400,
        base_seed=2026,
    )
    (cell,) = run_experiment(cfg)
    ok = (
        abs(cell.mean_mu_hat + 2.0) <= 0.01
        and abs(cell.emp_std_mu - 0.0490) <= 0.15 * 0.0490
        and abs(cell.mean_sigma2_hat - 1.0) <= 0.02
        and abs(cell.emp_std_sigma2 - 0.0758) <= 0.15 * 0.0758
    )
    assert report(
        "2",
        ok,
        f"mean_mu={cell.mean_mu_hat:.4f} (want -2 +/- 0.01), "
        f"emp_std_mu={cell.emp_std_mu:.4f} (want 0.0490 +/- 15%), "
        f"mean_sigma2={cell.mean_sigma2_hat:.4f} (want 1 +/- 0.02), "
        f"emp_std_sigma2={cell.emp_std_sigma2:.4f} (want 0.0758 +/- 15%)",
    )


def test_criterion_3_sigma2_bias_law():
    h, n_subjects, n, reps = 0.85, 50, 32, 2000
    grid = SamplingGrid.uniform(n, 5.0)
    gram = build_gram(grid, h)
    law = EffectsLaw(-2.0, 1.0)
    q = gram.quad_uu
    s2 = np.empty(reps)
    for r in range(reps):
        panel = simulate_panel(n_subjects, grid, h, law, RngStream(77, r))
        s2[r] = estimate_effects(panel, gram).sigma2_hat
    m = exact_moments(1.0, n_subjects, q)
    predicted = (n_subjects - 1) / n_subjects - 1.0 / (n_subjects * q)
    tol = 4.0 * m.std_sigma2 / math.sqrt(reps)
    ok = abs(s2.mean() - predicted) <= tol
    assert report(
        "3",
        ok,
        f"mean_sigma2={s2.mean():.5f}, predicted={predicted:.5f}, tolerance={tol:.5f}",
    )


@pytest.mark.parametrize("h", [0.15, 0.5, 0.85])
def test_criterion_4_hurst_consistency(h):
    n, reps = 2**12, 100
    grid = SamplingGrid.uniform(n, 1.0)
    law = EffectsLaw(-2.0, 1.0)
    hs = np.empty(reps)
    stream_base = int(h * 100)
    for r in range(reps):
        panel = simulate_panel(1, grid, h, law, RngStream(88 + stream_base, r), noise="fast")
        hs[r] = estimate_h(panel.y[0], 1.0, 2.0, DIFF2).h_hat
    ok = abs(hs.mean() - h) <= 0.01
    assert report(
        "4",
        ok,
        f"H={h}: mean_h_hat={hs.mean():.5f} over {reps} replications (want +/- 0.01)",
    )


def _hurst_dispersion_sample():
    n, reps = 2**14, 200
    paths = fast_paths(n, 1.0, 0.5, RngStream(99).generator(), reps)
    t = np.arange(1, n + 1) / n
    gen = RngStream(100).generator()
    hs = np.empty(reps)
    for r in range(reps):
        y = paths[r] + (-2.0 + gen.standard_normal()) * t
        hs[r] = estimate_h(y, 1.0, 2.0, DIFF2).h_hat
    return n, hs


def test_criterion_5_variance_constant():
    a = asym_variance_a(0.5, 2.0, DIFF2)
    ok = abs(a - 3.0) <= 1e-9
    assert report("5 (A value)", ok, f"A(0.5, 2, diff2)={a!r} (want 3.0 +/- 1e-9)")


@pytest.mark.xfail(
    strict=True,
    reason="stated target normalizes the estimator error by sqrt(n)/log(n); "
    "the measured dispersion follows sqrt(n)*log(n) (see companion test and "
    "the asym_std field), making this target ~100x too large at n=2^14",
)
def test_criterion_5_dispersion_as_stated():
    n, hs = _hurst_dispersion_sample()
    target = math.sqrt(3.0) / (2.0 * math.sqrt(n) / math.log(n))
    ok = abs(hs.std() - target) <= 0.25 * target
    report(
        "5 (dispersion, stated)",
        ok,
        f"empirical std={hs.std():.3e}, stated target={target:.3e} +/- 25%",
    )
    assert ok


def test_criterion_5_dispersion_corrected_scale():
    n, hs = _hurst_dispersion_sample()
    target = math.sqrt(3.0) / (2.0 * math.sqrt(n) * math.log(n))
    ok = abs(hs.std() - target) <= 0.25 * target
    assert report(
        "5 (dispersion, corrected)",
        ok,
        f"empirical std={hs.std():.3e}, sqrt(n)*log(n) target={target:.3e} +/- 25%",
    )


def test_criterion_6_drift_invariance_bitwise():
    # trajectories and slopes are rounded to 2^-26 on a dyadic grid, so
    # y + c*t is exact in IEEE754 and the filter cancellation is exact
    # integer arithmetic; for full-precision inputs the invariance holds
    # to the root finder's tolerance instead
    n, trials = 1024, 100
    quantum = 2.0**26
    t = np.arange(1, n + 1) / n
    gen = RngStream(111).generator()
    mismatches = 0
    for _ in range(trials):
        y = np.round(np.cumsum(gen.standard_normal(n)) / math.sqrt(n) * quantum) / quantum
        c = np.round(gen.uniform(-1000.0, 1000.0) * quantum) / quantum
        base = estimate_h(y, 1.0, 2.0, DIFF2)
        shifted = estimate_h(y + c * t, 1.0, 2.0, DIFF2)
        mismatches += (shifted.h_hat != base.h_hat) or (shifted.asym_std != base.asym_std)
    ok = mismatches == 0
    assert report("6", ok, f"{mismatches}/{trials} bitwise mismatches under added drift")


@pytest.mark.parametrize("h", [0.15, 0.85])
def test_criterion_7_sampler_equivalence(h):
    n, draws = 256, 10_000
    grid = SamplingGrid.uniform(n, 5.0)
    gram = build_gram(grid, h)
    a = exact_paths(cholesky_factor(gram.grid, gram.h), RngStream(121, 0).generator(), draws)[:, -1]
    b = fast_paths(n, 5.0, h, RngStream(121, 1).generator(), draws)[:, -1]
    p = ks_2samp(a, b).pvalue
    ok = p > 0.01
    assert report("7", ok, f"H={h}: endpoint KS p-value={p:.4f} (need > 0.01)")


def _quadrature_loglik(panel, gram, mu, sigma2):
    total = 0.0
    sd = math.sqrt(sigma2)
    V = fbm_covariance(gram.grid, gram.h)
    for yi in panel.y:
        def f(phi):
            return multivariate_normal.pdf(
                yi, mean=phi * panel.grid.times, cov=V
            ) * norm.pdf(phi, mu, sd)

        val, _ = quad(f, mu - 10 * sd, mu + 10 * sd, epsabs=1e-12, epsrel=1e-10, limit=200)
        total += math.log(val)
    return total


def test_criterion_8_likelihood_oracle():
    grid = SamplingGrid((1.25, 2.5, 3.75, 5.0))
    worst = 0.0
    for h, mu, s2 in [(0.5, 0.0, 1.0), (0.85, -2.0, 1.0), (0.15, 1.5, 0.25)]:
        gram = build_gram(grid, h)
        panel = simulate_panel(3, grid, h, EffectsLaw(mu, s2), RngStream(131))
        closed = log_marginal_likelihood(panel, gram, EffectsLaw(mu, s2))
        oracle = _quadrature_loglik(panel, gram, mu, s2)
        worst = max(worst, abs(closed - oracle))
    ok = worst <= 1e-6
    assert report("8", ok, f"max |closed - quadrature| = {worst:.2e} (need <= 1e-6)")


def test_criterion_9_interval_coverage():
    reps, level = 400, 0.95
    grid = SamplingGrid.uniform(32, 5.0)
    gram = build_gram(grid, 0.5)
    law = EffectsLaw(-2.0, 1.0)
    hits = 0
    for r in range(reps):
        panel = simulate_panel(500, grid, 0.5, law, RngStream(141, r))
        (lo, hi), _ = confidence_intervals(estimate_effects(panel, gram), level)
        hits += lo <= -2.0 <= hi
    coverage = hits / reps
    ok = 0.92 <= coverage <= 0.98
    assert report("9", ok, f"coverage={coverage:.4f} over {reps} replications (need [0.92, 0.98])")
