import dataclasses
import json

import numpy as np
import pytest

from fracmix import (
    EffectsLaw,
    EstimationRangeError,
    ExperimentConfig,
    NonFiniteError,
    RngStream,
    SamplingGrid,
    SeriesLengthError,
    build_gram,
    estimate_h,
    run_experiment,
    simulate_panel,
    summarize_empirical,
)
from fracmix.cli import main
from fracmix.effects import estimate_mu, xi_values
from fracmix.experiment import _replicate_with_gram, make_histogram


def small_config(**overrides):
    base = dict(
        h_list=(0.5,),
        subjects_list=(10,),
        n_obs_list=(4,),
        horizon=5.0,
        mu0=-2.0,
        sigma20=1.0,
        replications=5,
        base_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_summarize_empirical_trivia():
    assert summarize_empirical(np.array([1.0, 1.0, 1.0])) == (1.0, 0.0)
    assert summarize_empirical(np.array([0.0, 2.0])) == (1.0, 1.0)


def test_summarize_empirical_population_form():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    mean, std = summarize_empirical(x)
    assert std == pytest.approx(np.sqrt(np.mean((x - mean) ** 2)), rel=1e-15)


def test_summarize_empirical_monte_carlo():
    gen = np.random.default_rng(9)
    mean, std = summarize_empirical(gen.standard_normal(1_000_000))
    assert abs(mean) < 0.01
    assert std == pytest.approx(1.0, abs=0.01)


def test_single_replication_single_subject():
    cfg = small_config(subjects_list=(1,), replications=1)
    (cell,) = run_experiment(cfg)
    grid = SamplingGrid.uniform(4, 5.0)
    gm = build_gram(grid, 0.5)
    p = simulate_panel(1, grid, 0.5, EffectsLaw(-2.0, 1.0), RngStream(123, 0), gram=gm)
    assert cell.mean_mu_hat == estimate_mu(xi_values(p, gm))
    assert cell.emp_std_mu == 0.0
    assert np.isnan(cell.mean_sigma2_hat)  # variance undefined for N = 1
    assert "sigma2" not in cell.histograms


def test_reproducible_across_runs():
    cfg = small_config(replications=8)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for x, y in zip(a, b):
        assert x.mean_mu_hat == y.mean_mu_hat
        assert x.emp_std_sigma2 == y.emp_std_sigma2
        assert np.array_equal(x.histograms["mu"].counts, y.histograms["mu"].counts)


def test_replication_order_does_not_matter():
    # replications address disjoint streams, so any execution order
    # reproduces the same aggregates
    cfg = small_config(replications=6, estimate_hurst=True)
    gm = build_gram(SamplingGrid.uniform(4, cfg.horizon), 0.5)
    forward = [_replicate_with_gram(cfg, 0, gm, 10, r) for r in range(6)]
    backward = [_replicate_with_gram(cfg, 0, gm, 10, r) for r in reversed(range(6))]
    xi, h_hats = (np.array(v) for v in zip(*forward))
    xi_back, h_back = (np.array(v) for v in zip(*backward[::-1]))
    assert xi.shape == (6, 10)
    assert xi.tobytes() == xi_back.tobytes()
    assert np.array_equal(h_hats, h_back, equal_nan=True)


def test_cell_enumeration_matches_stream_layout():
    cfg = small_config(h_list=(0.15, 0.5), subjects_list=(5, 10), n_obs_list=(4, 8))
    cells = cfg.cells()
    assert len(cells) == 8
    assert cells[0] == (0, 0.15, 5, 4)
    assert cells[-1] == (7, 0.5, 10, 8)


def test_reference_cell_exact_stds():
    cfg = small_config(subjects_list=(50,), replications=400)
    (cell,) = run_experiment(cfg)
    assert round(cell.exact_std_mu, 4) == 0.1549
    assert round(cell.exact_std_sigma2, 4) == 0.2376
    assert cell.mean_mu_hat == pytest.approx(-2.0, abs=0.025)
    assert cell.emp_std_mu == pytest.approx(0.1549, rel=0.15)


def test_reference_cell_large_panel_mean():
    cfg = small_config(subjects_list=(500,), replications=400)
    (cell,) = run_experiment(cfg)
    assert cell.mean_mu_hat == pytest.approx(-2.0, abs=0.01)
    assert round(cell.exact_std_mu, 4) == 0.0490


def test_brownian_exact_std_constant_in_n():
    cfg = small_config(subjects_list=(50,), n_obs_list=(4, 32, 256), replications=1)
    cells = run_experiment(cfg)
    stds = [c.exact_std_mu for c in cells]
    assert np.allclose(stds, stds[0], atol=1e-9)


def test_hurst_statistics_optional():
    cfg = small_config(n_obs_list=(64,), replications=4, estimate_hurst=True, horizon=1.0)
    (cell,) = run_experiment(cfg)
    assert cell.mean_h_hat is not None
    assert 0.0 < cell.mean_h_hat < 1.0
    assert "hurst" in cell.histograms
    off = run_experiment(small_config(replications=2))[0]
    assert off.mean_h_hat is None


def test_hurst_refusals_are_counted_not_fatal():
    # at n = 4 the one-subject H estimate is refused in about a third of
    # the replications; the run goes on and (mu, sigma2) do not move
    cfg = small_config(
        h_list=(0.15, 0.5, 0.85), subjects_list=(50,), n_obs_list=(4, 32),
        replications=40, estimate_hurst=True,
    )
    cells = run_experiment(cfg)
    plain = run_experiment(dataclasses.replace(cfg, estimate_hurst=False))
    law = EffectsLaw(cfg.mu0, cfg.sigma20)
    for (idx, h, n_sub, n_obs), cell, ref in zip(cfg.cells(), cells, plain):
        gm = build_gram(SamplingGrid.uniform(n_obs, cfg.horizon), h)
        refused = 0
        for rep in range(cfg.replications):
            stream = RngStream(cfg.base_seed, idx * cfg.replications + rep)
            panel = simulate_panel(n_sub, gm.grid, h, law, stream, gram=gm)
            try:
                estimate_h(panel.y[0], cfg.horizon, cfg.k, cfg.filter)
            except EstimationRangeError:
                refused += 1
        assert cell.hurst_refusals == refused
        assert ref.hurst_refusals == 0
        assert cell.histograms["hurst"].counts.sum() == cfg.replications - refused
        assert np.isfinite(cell.mean_h_hat) and np.isfinite(cell.emp_std_h)
        for name in ("mu", "sigma2"):
            for stat in (f"mean_{name}_hat", f"emp_std_{name}", f"exact_std_{name}"):
                assert getattr(cell, stat) == getattr(ref, stat)
            assert np.array_equal(cell.histograms[name].counts, ref.histograms[name].counts)
            assert np.array_equal(cell.histograms[name].edges, ref.histograms[name].edges)
    assert cells[0].hurst_refusals > 0  # the cell (0.15, 50, 4)


def test_hurst_statistics_when_every_estimate_is_refused(monkeypatch, tmp_path):
    def refuse(*args):
        raise EstimationRangeError("refused")

    monkeypatch.setattr("fracmix.experiment.estimate_h", refuse)
    (cell,) = run_experiment(small_config(estimate_hurst=True))
    assert cell.hurst_refusals == 5
    assert np.isnan(cell.mean_h_hat) and np.isnan(cell.emp_std_h)
    assert "hurst" not in cell.histograms
    assert np.isfinite(cell.mean_mu_hat)
    # the manifest stays valid JSON: the NaN statistics are written null
    path = tmp_path / "c.cfg"
    path.write_text(
        "h_list = 0.5\nsubjects_list = 10\nn_obs_list = 4\nhorizon = 5.0\nmu0 = -2.0\n"
        "sigma20 = 1.0\nreplications = 5\nbase_seed = 123\nestimate_hurst = true\n"
    )
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    (entry,) = json.loads((tmp_path / "o" / "manifest.json").read_text())["hurst_refusals"]
    assert entry["refusals"] == 5
    assert entry["mean_h_hat"] is None and entry["emp_std_h"] is None


def test_other_hurst_errors_still_abort(monkeypatch):
    def fail(*args):
        raise SeriesLengthError("too short")

    monkeypatch.setattr("fracmix.experiment.estimate_h", fail)
    with pytest.raises(SeriesLengthError, match="cell"):
        run_experiment(small_config(estimate_hurst=True))


def test_cli_reports_hurst_refusals(tmp_path, capsys):
    cfg_text = (
        "h_list = 0.15, 0.85\nsubjects_list = 50\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 40\nbase_seed = 123\n"
    )
    runs = {}
    for flag in ("false", "true"):
        path = tmp_path / f"{flag}.cfg"
        path.write_text(cfg_text + f"estimate_hurst = {flag}\n")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / flag)]) == 0
        runs[flag] = capsys.readouterr().err.splitlines()
        manifest = json.loads((tmp_path / flag / "manifest.json").read_text())
        if flag == "false":
            assert "hurst_refusals" not in manifest
    cells = run_experiment(
        small_config(h_list=(0.15, 0.85), subjects_list=(50,), replications=40, estimate_hurst=True)
    )
    counts = [c.hurst_refusals for c in cells]
    assert manifest["hurst_refusals"] == [
        {"H": 0.15, "N": 50, "n": 4, "refusals": counts[0],
         "mean_h_hat": cells[0].mean_h_hat, "emp_std_h": cells[0].emp_std_h},
        {"H": 0.85, "N": 50, "n": 4, "refusals": counts[1],
         "mean_h_hat": cells[1].mean_h_hat, "emp_std_h": cells[1].emp_std_h},
    ]
    lines = [line for line in runs["true"] if "refused" in line]
    assert len(lines) == sum(c > 0 for c in counts) > 0
    assert lines[0] == (
        f"cell (H=0.15, N=50, n=4): H estimate refused in {counts[0]} of 40 replications"
    )
    assert not any("refused" in line for line in runs["false"])
    table = "table_n4.csv"
    assert (tmp_path / "true" / table).read_bytes() == (tmp_path / "false" / table).read_bytes()


def test_histogram_contract():
    gen = np.random.default_rng(10)
    x = gen.standard_normal(400)
    hist = make_histogram(x)
    assert hist.edges.shape == (31,)
    assert hist.counts.sum() == 400
    mean, std = summarize_empirical(x)
    assert hist.edges[0] == pytest.approx(mean - 4 * std)
    assert hist.edges[-1] == pytest.approx(mean + 4 * std)
    # clipping keeps extreme values inside the edge bins
    x2 = np.concatenate([x, [50.0]])
    assert make_histogram(x2).counts.sum() == 401


def test_histogram_degenerate_spread():
    hist = make_histogram(np.full(7, 3.0))
    assert hist.counts.sum() == 7
    assert hist.edges[0] < 3.0 < hist.edges[-1]


def test_empirical_matches_exact_at_reference_replications():
    cfg = small_config(subjects_list=(50,), n_obs_list=(32,), replications=400)
    (cell,) = run_experiment(cfg)
    assert cell.emp_std_mu == pytest.approx(cell.exact_std_mu, rel=0.20)
    assert cell.emp_std_sigma2 == pytest.approx(cell.exact_std_sigma2, rel=0.20)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replications=0)
    with pytest.raises(ValueError):
        small_config(h_list=())


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_base_seed_outside_64_bits(tmp_path, capsys, seed):
    # on construction, naming the key, not inside the first replication
    with pytest.raises(ValueError, match="base_seed"):
        small_config(base_seed=seed)
    path = tmp_path / "c.cfg"
    path.write_text(
        "h_list = 0.5\nsubjects_list = 10\nn_obs_list = 4\nhorizon = 5.0\nmu0 = -2.0\n"
        f"sigma20 = 1.0\nreplications = 5\nbase_seed = {seed}\n"
    )
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "base_seed" in capsys.readouterr().err


@pytest.mark.parametrize("law", [dict(mu0=1e308), dict(sigma20=1e308)], ids=["mu0", "sigma20"])
def test_overflowing_cell_raises_named_error(law):
    # an overflowing panel or variance names the cell instead of
    # writing inf into the tables
    with pytest.raises(NonFiniteError, match=r"cell \(H=0.5, N=10, n=4\)"):
        run_experiment(small_config(horizon=1.0, replications=2, **law))


@pytest.mark.parametrize("mean", [2.0**64, -(2.0**64), np.finfo(float).max])
def test_histogram_edges_distinct_at_every_mean(mean):
    hist = make_histogram(np.array([mean]))  # one replication: zero spread
    assert np.isfinite(hist.edges).all()
    assert np.all(np.diff(hist.edges) > 0.0)
    assert hist.counts.sum() == 1


def test_config_rejects_unknown_sampler():
    # on construction, not inside the first cell after its Gram build
    with pytest.raises(ValueError, match="bogus"):
        small_config(sampler="bogus")
    assert small_config(sampler="fast").sampler == "fast"
