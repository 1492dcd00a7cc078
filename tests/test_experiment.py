import concurrent.futures
import dataclasses
import functools
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fracmix import (
    EffectsLaw,
    EstimationRangeError,
    ExperimentConfig,
    FactorizationError,
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
from fracmix import experiment, fbm
from fracmix.cli import main
from fracmix.effects import estimate_mu, xi_values
from fracmix.experiment import _replicate_with_gram, make_histogram
from fracmix.fbm import fgn_spectrum
from fracmix.gram import cholesky_factor
from fracmix.hurst import VariationFilter, as_filter

EPS = np.finfo(float).eps
FULL_GRID = Path(__file__).resolve().parents[1] / "scripts" / "full_grid.cfg"


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


def replicate(cfg, gm, n_subjects, rep, cell_index=0):
    # one replication, its sampler and slope form built for it alone
    sampler = fbm.noise_sampler(cfg.sampler, gm.grid, gm.h)
    read = functools.partial(sampler.slope_noise, sampler.slope_form(gm.weights))
    return _replicate_with_gram(cfg, cell_index, gm, read, n_subjects, rep)


def test_summarize_empirical_trivia():
    assert summarize_empirical(np.array([1.0, 1.0, 1.0])) == (1.0, 0.0)
    assert summarize_empirical(np.array([0.0, 2.0])) == (1.0, 1.0)


def test_summarize_empirical_population_form():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    mean, std = summarize_empirical(x)
    assert std == pytest.approx(np.sqrt(np.mean((x - mean) ** 2)), rel=1e-15)


def test_summarize_empirical_of_huge_finite_samples():
    # the sum of these two overflows a double, their mean and spread do not
    a = np.finfo(float).max / 2
    b = np.nextafter(a, np.inf)
    mean, std = summarize_empirical(np.array([a, b]))
    assert mean in (a, b)
    assert 0.0 < std <= b - a
    assert summarize_empirical(np.array([-2 * a, 2 * a])) == (0.0, 2 * a)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_summarize_empirical_refuses_a_non_finite_sample(bad):
    # refused before any arithmetic, so no numpy warning (an error in this suite)
    with pytest.raises(NonFiniteError, match="samples must be finite"):
        summarize_empirical(np.array([bad, 1.0]))
    with pytest.raises(NonFiniteError, match="samples must be finite"):
        make_histogram(np.array([1.0, bad]))


def test_summarize_empirical_leaves_the_full_grid_tables_alone(tmp_path, monkeypatch):
    # ordinary samples are not scaled: the tables are those of plain mean and std
    text = FULL_GRID.read_text()
    assert "replications = 400" in text
    (tmp_path / "grid.cfg").write_text(text.replace("replications = 400", "replications = 8"))
    tables = {}
    for name in ("scaled", "plain"):
        if name == "plain":
            monkeypatch.setattr(
                experiment, "summarize_empirical", lambda x: (float(np.mean(x)), float(np.std(x)))
            )
        out = tmp_path / name
        assert main(["experiment", "--config", str(tmp_path / "grid.cfg"), "--out", str(out)]) == 0
        tables[name] = [(out / f"table_n{n}.csv").read_bytes() for n in (4, 32, 256)]
    assert tables["scaled"] == tables["plain"]


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
    p = simulate_panel(1, grid, 0.5, EffectsLaw(-2.0, 1.0), RngStream(123, 0))
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


@pytest.mark.parametrize("sampler", ["exact", "fast"])
@pytest.mark.parametrize("h", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("n_obs", [5, 32])
def test_slope_reads_are_those_of_the_simulated_panel(monkeypatch, sampler, h, n_obs):
    # a replication draws the panel simulate_panel draws from its stream:
    # the same effects bit for bit, and xi_values of that panel up to the
    # rounding of the two dot products
    drawn, draw_effects = [], experiment.draw_effects

    def spy(*args):
        drawn.append(draw_effects(*args))
        return drawn[-1]

    monkeypatch.setattr(experiment, "draw_effects", spy)
    cfg = small_config(h_list=(h,), subjects_list=(7,), n_obs_list=(n_obs,), sampler=sampler)
    gm = build_gram(SamplingGrid.uniform(n_obs, cfg.horizon), h)
    law = EffectsLaw(cfg.mu0, cfg.sigma20)
    for rep in range(3):
        xi, _ = replicate(cfg, gm, 7, rep)
        panel = simulate_panel(7, gm.grid, h, law, RngStream(cfg.base_seed, rep), noise=sampler)
        phi = panel.true_effects
        assert drawn[-1].tobytes() == phi.tobytes()
        w = panel.y - phi[:, None] * gm.grid.times
        bound = 4 * n_obs * EPS * (np.abs(phi) + np.abs(w) @ np.abs(gm.weights))
        assert np.all(np.abs(xi - xi_values(panel, gm)) <= bound)


@pytest.mark.parametrize("sampler", ["exact", "fast"])
@pytest.mark.parametrize("h", [0.85, 0.99])
def test_slope_reads_beat_the_panel_read(sampler, h):
    # against a long-double read of the same draws, reading xi from the
    # draws is at least as accurate as Y @ c on the simulated panel
    ld = np.longdouble
    if np.finfo(ld).eps >= EPS:
        pytest.skip("long double is no wider than double here")
    n_sub, n_obs = 500, 256
    cfg = small_config(h_list=(h,), subjects_list=(n_sub,), n_obs_list=(n_obs,), sampler=sampler)
    gm = build_gram(SamplingGrid.uniform(n_obs, cfg.horizon), h)
    xi, _ = replicate(cfg, gm, n_sub, 0)
    law = EffectsLaw(cfg.mu0, cfg.sigma20)
    panel = simulate_panel(n_sub, gm.grid, h, law, RngStream(cfg.base_seed, 0), noise=sampler)
    gen = RngStream(cfg.base_seed, 0).generator()
    gen.standard_normal(n_sub)  # the effects
    if sampler == "exact":
        z = gen.standard_normal((n_obs, n_sub)).astype(ld)
        w = (cholesky_factor(gm.grid, h).astype(ld) @ z).T
    else:
        lam = fgn_spectrum(n_obs, h)
        pairs = (n_sub + 1) // 2
        z = gen.standard_normal((pairs, lam.size)) + 1j * gen.standard_normal((pairs, lam.size))
        g = np.fft.fft(np.sqrt(lam.astype(ld) / lam.size) * z.astype(np.clongdouble), axis=1)
        g = np.concatenate([g.real, g.imag])[:n_sub, :n_obs]
        w = np.cumsum(g, axis=1) * ld((cfg.horizon / n_obs) ** h)
    y = panel.true_effects.astype(ld)[:, None] * gm.grid.times.astype(ld) + w
    truth = y @ gm.weights.astype(ld)

    def rms(x):
        return float(np.sqrt(np.mean((x - truth) ** 2)))

    assert rms(xi) <= rms(xi_values(panel, gm))


@pytest.mark.parametrize("estimate_hurst", [False, True])
@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_replications_never_form_the_paths(monkeypatch, sampler, estimate_hurst):
    def refuse(*args):
        raise AssertionError("a replication built every path")

    monkeypatch.setattr(fbm.ExactSampler, "paths", refuse)
    monkeypatch.setattr(fbm.FftSampler, "paths", refuse)
    cfg = small_config(n_obs_list=(8,), sampler=sampler, estimate_hurst=estimate_hurst)
    with pytest.raises(AssertionError, match="every path"):  # the guard holds for panels
        simulate_panel(2, SamplingGrid.uniform(8, 5.0), 0.5, EffectsLaw(0.0, 1.0), RngStream(1),
                       noise=sampler)
    (cell,) = run_experiment(cfg)
    assert np.isfinite(cell.mean_mu_hat)


def test_replication_order_does_not_matter():
    # replications address disjoint streams, so any execution order
    # reproduces the same aggregates
    cfg = small_config(replications=6, estimate_hurst=True)
    gm = build_gram(SamplingGrid.uniform(4, cfg.horizon), 0.5)
    forward = [replicate(cfg, gm, 10, r) for r in range(6)]
    backward = [replicate(cfg, gm, 10, r) for r in reversed(range(6))]
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
            panel = simulate_panel(n_sub, gm.grid, h, law, stream)
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
    # an int past the double range is an infinite horizon, not an OverflowError
    with pytest.raises(ValueError, match="^horizon must be positive and finite, got 1000"):
        small_config(horizon=10**400)
    with pytest.raises(ValueError, match="^mu0 must be finite, got -1000"):
        small_config(mu0=-(10**400))


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


@pytest.mark.parametrize(
    "key,value",
    [("replications", 2.5), ("replications", 5.0), ("replications", True),
     ("replications", np.True_), ("base_seed", 1.5), ("base_seed", False),
     ("subjects_list", (5.7,)), ("subjects_list", (10, True)), ("n_obs_list", (8.9,)),
     ("n_obs_list", ("4",))],
)
def test_config_rejects_values_that_are_not_integers(tmp_path, capsys, key, value):
    # on construction, naming the key: not a TypeError in the first
    # replication, nor a value cut to an integer
    with pytest.raises(ValueError, match=f"^{key}: expected an integer"):
        small_config(**{key: value})
    number = value[0] if isinstance(value, tuple) else value
    if type(number) is not float:
        return
    # a config file parses its integers itself, as before
    keys = dict(h_list=0.5, subjects_list=10, n_obs_list=4, horizon=5.0, mu0=-2.0, sigma20=1.0,
                replications=5)
    keys[key] = number
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"key {key!r}" in capsys.readouterr().err


def test_config_takes_numpy_integers_as_ints():
    cfg = small_config(subjects_list=(np.int32(10),), n_obs_list=(np.uint8(4),),
                       replications=np.int64(5), base_seed=np.uint64(2**64 - 1))
    got = (cfg.subjects_list, cfg.n_obs_list, cfg.replications, cfg.base_seed)
    assert got == ((10,), (4,), 5, 2**64 - 1)
    assert all(type(v) is int for v in (*got[0], *got[1], *got[2:]))


@pytest.mark.parametrize(
    "key,value,kind",
    [("estimate_hurst", "false", "a bool"), ("estimate_hurst", 1, "a bool"),
     ("estimate_hurst", None, "a bool"), ("horizon", "5", "a real number"),
     ("sigma20", "1", "a real number"), ("mu0", True, "a real number"),
     ("mu0", np.True_, "a real number"), ("k", "2", "a real number"),
     ("k", True, "a real number"), ("h_list", ("0.5",), "a real number"),
     ("h_list", (0.5, None), "a real number"), ("h_list", 0.5, "a sequence"),
     ("h_list", "0.5", "a sequence"), ("subjects_list", 10, "a sequence")],
)
def test_config_rejects_values_of_the_wrong_type(key, value, kind):
    # a typed check per field: a string is never parsed, a bool is not a
    # number, and the error names the key
    with pytest.raises(ValueError, match=f"^{key}: expected {kind}, got "):
        small_config(**{key: value})


def test_config_takes_numpy_scalars_as_python_values():
    cfg = small_config(h_list=(np.float64(0.5), np.float32(0.25)), horizon=np.int64(5),
                       mu0=np.float64(-2.0), sigma20=np.float16(1.0), k=np.int32(3),
                       estimate_hurst=np.True_, replications=np.int64(5))
    got = (*cfg.h_list, cfg.horizon, cfg.mu0, cfg.sigma20, cfg.k)
    assert got == (0.5, 0.25, 5.0, -2.0, 1.0, 3.0)
    assert all(type(v) is float for v in got)
    assert cfg.estimate_hurst is True and type(cfg.replications) is int
    assert small_config(estimate_hurst=np.False_).estimate_hurst is False


def test_config_schema_is_the_dataclass_fields(tmp_path, capsys):
    # every field holds its file parser and its typed check, and the
    # manifest echoes the fields in their order: a new field cannot ship
    # without a parser and a check
    from fracmix.panel_io import load_experiment_config

    schema = dataclasses.fields(ExperimentConfig)
    keys = [f.name for f in schema]
    assert keys == ["h_list", "subjects_list", "n_obs_list", "horizon", "mu0", "sigma20",
                    "replications", "k", "filter", "base_seed", "estimate_hurst", "sampler"]
    for f in schema:
        assert set(f.metadata) == {"parse", "check"}
        assert callable(f.metadata["parse"]) and callable(f.metadata["check"])
    text = {"h_list": "0.5, 0.85", "subjects_list": "10", "n_obs_list": "4, 8",
            "horizon": "5", "mu0": "-2", "sigma20": "1", "replications": "2", "k": "3",
            "filter": "diff3", "base_seed": "7", "estimate_hurst": "yes", "sampler": "fast"}
    cfg = ExperimentConfig(**{f.name: f.metadata["parse"](text[f.name]) for f in schema})
    assert cfg == small_config(h_list=(0.5, 0.85), subjects_list=(10,), n_obs_list=(4, 8),
                               horizon=5.0, mu0=-2.0, sigma20=1.0, replications=2, k=3.0,
                               filter=(-1.0, 3.0, -3.0, 1.0), base_seed=7, estimate_hurst=True,
                               sampler="fast")
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
    assert load_experiment_config(path) == cfg
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert list(manifest["config"]) == [k for k in keys if k != "base_seed"]
    assert manifest["base_seed"] == 7 and manifest["config"]["filter"] == [-1.0, 3.0, -3.0, 1.0]


@pytest.mark.parametrize("law", [dict(mu0=1e308), dict(sigma20=1e308)], ids=["mu0", "sigma20"])
def test_overflowing_cell_raises_named_error(law):
    # an overflowing panel or variance names the cell instead of
    # writing inf into the tables
    with pytest.raises(NonFiniteError, match=r"cell \(H=0.5, N=10, n=4\): the estimates"):
        run_experiment(small_config(horizon=1.0, replications=2, **law))


@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_non_finite_slope_reads_raise_named_error(monkeypatch, sampler):
    def overflowing(self, weights, gen, count, first_path=False):
        return np.full(count, np.inf), None

    owner = {"exact": fbm.ExactSampler, "fast": fbm.FftSampler}[sampler]
    monkeypatch.setattr(owner, "slope_noise", overflowing)
    with pytest.raises(NonFiniteError, match=r"cell \(H=0.5, N=10, n=4\): slope reads"):
        run_experiment(small_config(sampler=sampler))


@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_overflowing_subject_one_raises_named_error(sampler):
    # phi * t overflows at t = 5, while each xi = phi + noise stays finite
    cfg = small_config(mu0=1e308, sigma20=0.0, estimate_hurst=True, sampler=sampler)
    with pytest.raises(NonFiniteError, match=r"cell \(H=0.5, N=10, n=4\): subject 1"):
        run_experiment(cfg)


@pytest.mark.parametrize("mean", [2.0**64, -(2.0**64), np.finfo(float).max])
def test_histogram_edges_distinct_at_every_mean(mean):
    hist = make_histogram(np.array([mean]))  # one replication: zero spread
    assert np.isfinite(hist.edges).all()
    assert np.all(np.diff(hist.edges) > 0.0)
    assert hist.counts.sum() == 1


@pytest.mark.parametrize("mean", [2.0**64, -(2.0**100)])
def test_histogram_edges_distinct_below_the_mean_resolution(mean):
    # a spread of one ulp: 4 stds are below the 60-ulp zero-spread floor
    x = np.array([mean, mean + math.ulp(mean)])
    hist = make_histogram(x)
    assert np.isfinite(hist.edges).all()
    assert np.unique(hist.edges).size == 31
    assert hist.counts.sum() == 2


def test_config_rejects_unknown_sampler():
    # on construction, not inside the first cell after its Gram build
    with pytest.raises(ValueError, match="bogus"):
        small_config(sampler="bogus")
    assert small_config(sampler="fast").sampler == "fast"


@pytest.mark.parametrize("estimate_hurst", [False, True])
def test_config_rejects_an_invalid_filter_spec(estimate_hurst):
    # on construction, whether or not H is estimated
    with pytest.raises(ValueError, match="bogus"):
        small_config(filter="bogus", estimate_hurst=estimate_hurst)
    with pytest.raises(ValueError, match="order"):
        small_config(filter=[1.0, -1.0], estimate_hurst=estimate_hurst)


def test_config_holds_its_filter_as_a_variation_filter():
    named, listed = small_config(filter="diff3"), small_config(filter=[-1.0, 3.0, -3.0, 1.0])
    assert named.filter is as_filter("diff3")
    assert listed == named == small_config(filter=(-1.0, 3.0, -3.0, 1.0))
    assert hash(listed) == hash(named)  # a list spec used to make hash() raise TypeError
    assert small_config(filter="1,-3,3,-1").filter == as_filter([1.0, -3.0, 3.0, -1.0])


def cell_record(cell):
    hists = [(h.edges.tobytes(), h.counts.tobytes()) for _, h in sorted(cell.histograms.items())]
    fields = [getattr(cell, f.name) for f in dataclasses.fields(cell) if f.name != "histograms"]
    return np.array(fields, dtype=float).tobytes(), hists


def test_list_filter_runs_bitwise_as_its_variation_filter(monkeypatch):
    # every replication reads the config's one filter object; nothing re-parses the spec
    seen, estimate = [], experiment.estimate_h

    def spy(y, horizon, k, filt):
        seen.append(filt)
        return estimate(y, horizon, k, filt)

    monkeypatch.setattr(experiment, "estimate_h", spy)
    runs = []
    for spec in ([1.0, -3.0, 3.0, -1.0], as_filter([1.0, -3.0, 3.0, -1.0])):
        cfg = small_config(n_obs_list=(16, 32), replications=6, estimate_hurst=True, filter=spec)
        runs.append([cell_record(c) for c in run_experiment(cfg)])
        assert isinstance(cfg.filter, VariationFilter)
        assert len(seen) == 12 and all(f is cfg.filter for f in seen)
        seen.clear()
    assert runs[0] == runs[1]


def serial_cell(cfg, cell_index, h, n_subjects, n_obs):
    # the (R, N) reads and (R,) H estimates of a plain loop over the cell
    gm = build_gram(SamplingGrid.uniform(n_obs, cfg.horizon), h)
    reads = [replicate(cfg, gm, n_subjects, r, cell_index) for r in range(cfg.replications)]
    return map(np.array, zip(*reads))


@pytest.mark.parametrize("replications", [1, 5])
@pytest.mark.parametrize("estimate_hurst", [False, True])
@pytest.mark.parametrize("sampler", ["exact", "fast"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_threaded_cells_equal_a_serial_loop(monkeypatch, workers, sampler, estimate_hurst,
                                            replications):
    # every row the cell estimates from is the serial loop's, bit for bit,
    # in replication order; N = 7 splits the fast sampler's last pair
    rows, estimate = [], experiment.estimate_mu

    def spy(xi):
        rows.extend(xi.copy())  # one (R, N) matrix per cell
        return estimate(xi)

    monkeypatch.setattr(experiment, "_worker_count", lambda: workers)
    monkeypatch.setattr(experiment, "estimate_mu", spy)
    cfg = small_config(h_list=(0.15, 0.85), subjects_list=(7,), n_obs_list=(9,), sampler=sampler,
                       estimate_hurst=estimate_hurst, replications=replications)
    assert experiment.worker_threads(cfg) == min(workers, replications)
    before = threading.enumerate()
    cells = run_experiment(cfg)
    assert threading.enumerate() == before  # the pool's threads end with the run
    for (idx, h, n_sub, n_obs), cell in zip(cfg.cells(), cells):
        xi, h_hats = serial_cell(cfg, idx, h, n_sub, n_obs)
        got = np.array(rows[idx * replications : (idx + 1) * replications])
        assert got.shape == (replications, 7) and got.tobytes() == xi.tobytes()
        finite = h_hats[np.isfinite(h_hats)]
        if estimate_hurst:
            assert cell.hurst_refusals == replications - finite.size
        if estimate_hurst and finite.size:
            assert (cell.mean_h_hat, cell.emp_std_h) == summarize_empirical(finite)


def test_spectrum_is_computed_once_per_fast_cell(monkeypatch):
    calls, spectrum = [], fbm.fgn_spectrum

    def counting(n, h):
        calls.append((n, h))
        return spectrum(n, h)

    monkeypatch.setattr(fbm, "fgn_spectrum", counting)
    monkeypatch.setattr(experiment, "_worker_count", lambda: 2)
    cfg = small_config(h_list=(0.15, 0.85), n_obs_list=(4, 9), replications=5, sampler="fast",
                       estimate_hurst=True)
    run_experiment(cfg)
    assert calls == [(n, h) for _, h, _, n in cfg.cells()]
    calls.clear()
    run_experiment(dataclasses.replace(cfg, sampler="exact"))
    assert calls == []


def test_one_task_per_thread_and_cell(monkeypatch):
    # bookkeeping does not grow with R: one future per range of replications
    submitted = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args[-1])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(experiment, "_worker_count", lambda: 3)
    cfg = small_config(h_list=(0.15, 0.85), replications=50)
    run_experiment(cfg)
    assert submitted == 2 * [range(0, 16), range(16, 33), range(33, 50)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_replication_names_the_error(monkeypatch, workers):
    # replications 1 and 3 both fail, 3 sooner in time; the run raises
    # 1's error, named with its cell, as a serial loop does
    replicate_one = experiment._replicate_with_gram

    def failing(cfg, cell_index, gram, read, n_subjects, rep):
        if rep == 1:
            time.sleep(0.05)
        if rep in (1, 3):
            raise NonFiniteError(f"replication {rep} failed")
        return replicate_one(cfg, cell_index, gram, read, n_subjects, rep)

    monkeypatch.setattr(experiment, "_worker_count", lambda: workers)
    monkeypatch.setattr(experiment, "_replicate_with_gram", failing)
    before = threading.enumerate()
    with pytest.raises(NonFiniteError, match=r"^cell \(H=0.5, N=10, n=4\): replication 1 failed$"):
        run_experiment(small_config(replications=5))
    assert threading.enumerate() == before


def test_later_ranges_stop_after_a_failure(monkeypatch):
    # replication 0 fails once the range from 20 runs; that range stops at
    # its next replication instead of running all 20, and no later cell starts
    ran, replicate_one, started = [], experiment._replicate_with_gram, threading.Event()

    def failing(cfg, cell_index, gram, read, n_subjects, rep):
        ran.append((cell_index, rep))
        if rep == 0:
            started.wait(timeout=10)
            raise NonFiniteError("replication 0 failed")
        started.set()
        time.sleep(0.01)
        return replicate_one(cfg, cell_index, gram, read, n_subjects, rep)

    monkeypatch.setattr(experiment, "_worker_count", lambda: 2)
    monkeypatch.setattr(experiment, "_replicate_with_gram", failing)
    with pytest.raises(NonFiniteError, match="replication 0 failed"):
        run_experiment(small_config(h_list=(0.5, 0.85), replications=40))
    cells, reps = zip(*ran)
    assert set(cells) == {0} and 1 not in reps
    assert 1 <= sum(rep >= 20 for rep in reps) < 10


def failing_set_up(h_failing, built):
    # build_gram that records each H it is asked for and refuses one
    build = experiment.build_gram

    def building(grid, h):
        built.append(h)
        if h == h_failing:
            raise FactorizationError("set-up failed")
        return build(grid, h)

    return building


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_replication_comes_before_the_next_cells_set_up_error(monkeypatch, workers):
    # cell 1 is set up, and fails, while cell 0's replication 2 is still
    # running; the run raises replication 2's error, as a serial loop does
    built, replicate_one = [], experiment._replicate_with_gram

    def failing(cfg, cell_index, gram, read, n_subjects, rep):
        if (cell_index, rep) == (0, 2):
            time.sleep(0.05)
            raise NonFiniteError("replication 2 failed")
        return replicate_one(cfg, cell_index, gram, read, n_subjects, rep)

    monkeypatch.setattr(experiment, "_worker_count", lambda: workers)
    monkeypatch.setattr(experiment, "build_gram", failing_set_up(0.85, built))
    monkeypatch.setattr(experiment, "_replicate_with_gram", failing)
    before = threading.enumerate()
    with pytest.raises(NonFiniteError, match=r"^cell \(H=0.5, N=10, n=4\): replication 2 failed$"):
        run_experiment(small_config(h_list=(0.5, 0.85), replications=5))
    assert built == [0.5, 0.85]
    assert threading.enumerate() == before


def test_a_clean_cell_is_collected_before_the_next_cells_set_up_error(monkeypatch):
    built, rows, estimate = [], [], experiment.estimate_mu

    def spy(xi):
        rows.extend(xi.copy())
        return estimate(xi)

    monkeypatch.setattr(experiment, "_worker_count", lambda: 2)
    monkeypatch.setattr(experiment, "build_gram", failing_set_up(0.85, built))
    monkeypatch.setattr(experiment, "estimate_mu", spy)
    before = threading.enumerate()
    with pytest.raises(FactorizationError, match=r"^cell \(H=0.85, N=10, n=4\): set-up failed$"):
        run_experiment(small_config(h_list=(0.5, 0.85, 0.15), replications=5))
    assert built == [0.5, 0.85]  # cell 2 is never set up
    assert len(rows) == 5  # cell 0 was aggregated first
    assert threading.enumerate() == before


def test_the_failing_thread_marks_its_position_before_its_next_range(monkeypatch):
    # one thread: replication 2 of cell 0 fails once cell 1's range is
    # queued behind it; the thread then takes that range and runs none of it
    ran, replicate_one, queued = [], experiment._replicate_with_gram, threading.Event()
    submitted = []

    class WatchedPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            submitted.append(args[-1])
            if len(submitted) == 2:  # cell 1's one range
                queued.set()
            return future

    def failing(cfg, cell_index, gram, read, n_subjects, rep):
        ran.append((cell_index, rep))
        if (cell_index, rep) == (0, 2):
            assert queued.wait(timeout=10)
            raise NonFiniteError("replication 2 failed")
        return replicate_one(cfg, cell_index, gram, read, n_subjects, rep)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", WatchedPool)
    monkeypatch.setattr(experiment, "_worker_count", lambda: 1)
    monkeypatch.setattr(experiment, "_replicate_with_gram", failing)
    with pytest.raises(NonFiniteError, match="replication 2 failed"):
        run_experiment(small_config(h_list=(0.5, 0.85), replications=5))
    assert ran == [(0, 0), (0, 1), (0, 2)]


def test_an_aggregation_error_stops_the_next_cells_ranges(monkeypatch):
    # cell 0's estimates fail once cell 1's ranges run; they stop at their
    # next replication instead of running all 40
    ran, replicate_one, started = [], experiment._replicate_with_gram, threading.Event()

    def replicating(cfg, cell_index, gram, read, n_subjects, rep):
        if cell_index == 1:
            ran.append(rep)
            started.set()
            time.sleep(0.01)
        return replicate_one(cfg, cell_index, gram, read, n_subjects, rep)

    def estimating(xi):
        started.wait(timeout=10)
        raise NonFiniteError("aggregation failed")

    monkeypatch.setattr(experiment, "_worker_count", lambda: 2)
    monkeypatch.setattr(experiment, "_replicate_with_gram", replicating)
    monkeypatch.setattr(experiment, "estimate_mu", estimating)
    before = threading.enumerate()
    with pytest.raises(NonFiniteError, match=r"^cell \(H=0.5, N=10, n=4\): aggregation failed$"):
        run_experiment(small_config(h_list=(0.5, 0.85), replications=40))
    assert 1 <= len(ran) < 10
    assert threading.enumerate() == before


def test_at_most_two_cells_are_set_up_ahead_of_the_last_collected(monkeypatch):
    events, build, estimate = [], experiment.build_gram, experiment.estimate_mu

    def building(grid, h):
        events.append(1)
        return build(grid, h)

    def estimating(xi):
        events.append(-1)
        return estimate(xi)

    monkeypatch.setattr(experiment, "_worker_count", lambda: 2)
    monkeypatch.setattr(experiment, "build_gram", building)
    monkeypatch.setattr(experiment, "estimate_mu", estimating)
    cfg = small_config(h_list=(0.15, 0.5, 0.85), n_obs_list=(4, 9), replications=5)
    run_experiment(cfg)
    ahead = np.cumsum(events)  # cells set up and not yet collected
    assert events.count(1) == events.count(-1) == len(cfg.cells())
    assert ahead.max() == 2 and ahead[-1] == 0


def test_stop_line_keeps_the_lowest_position_under_fast_switching():
    # 8 threads lower one stop line at once, switching every microsecond;
    # a lost update would leave a position above the lowest one marked
    stop, interval = experiment._StopLine(), sys.getswitchinterval()
    positions = np.random.default_rng(3).permutation(8 * 400).reshape(8, 400) + 7

    def lowering(values):
        for value in values.tolist():
            stop.lower(value)

    threads = [threading.Thread(target=lowering, args=(row,)) for row in positions]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert stop.position == 7


@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_first_failure_across_cells_under_fast_switching(monkeypatch, sampler):
    # 8 threads on 3 cells of 24 replications, several failing in each of
    # the last two cells; the run raises the first in (cell, replication) order
    replicate_one, failing_at = experiment._replicate_with_gram, {(1, 9), (1, 20), (2, 0), (2, 3)}

    def failing(cfg, cell_index, gram, read, n_subjects, rep):
        if (cell_index, rep) in failing_at:
            raise NonFiniteError(f"replication {rep} failed")
        return replicate_one(cfg, cell_index, gram, read, n_subjects, rep)

    monkeypatch.setattr(experiment, "_worker_count", lambda: 8)
    monkeypatch.setattr(experiment, "_replicate_with_gram", failing)
    before, interval = threading.enumerate(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(NonFiniteError, match=r"^cell \(H=0.5, N=10, n=4\): replication 9 failed$"):
            run_experiment(small_config(h_list=(0.15, 0.5, 0.85), replications=24, sampler=sampler))
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == before


def test_replications_run_in_the_callers_numpy_error_state(monkeypatch):
    states, draw_effects = [], experiment.draw_effects

    def spy(*args):
        states.append(np.geterr())
        return draw_effects(*args)

    monkeypatch.setattr(experiment, "_worker_count", lambda: 2)
    monkeypatch.setattr(experiment, "draw_effects", spy)
    with np.errstate(all="raise"):
        run_experiment(small_config(replications=4))
    assert len(states) == 4 and all(s["divide"] == s["under"] == "raise" for s in states)


@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_more_threads_than_cores_under_fast_switching(monkeypatch, sampler):
    # threads share the cell's slope form and the filter, whose lag table a
    # replication builds on first use; switching every microsecond, 8
    # threads still give the one-thread rows bit for bit
    rows, estimate = [], experiment.estimate_mu

    def spy(xi):
        rows.extend(xi.copy())  # one (R, N) matrix per cell
        return estimate(xi)

    monkeypatch.setattr(experiment, "estimate_mu", spy)
    runs = []
    for workers in (1, 8):
        monkeypatch.setattr(experiment, "_worker_count", lambda: workers)
        cfg = small_config(h_list=(0.15, 0.85), n_obs_list=(16,), replications=24, sampler=sampler,
                           estimate_hurst=True, filter=as_filter([1.0, -3.0, 3.0, -1.0]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cells = run_experiment(cfg)
        finally:
            sys.setswitchinterval(interval)
        runs.append((np.array(rows).tobytes(), [(c.mean_h_hat, c.emp_std_h) for c in cells]))
        rows.clear()
    assert runs[0] == runs[1]
