import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fracmix.cli import main
from fracmix.errors import EstimationRangeError
from fracmix.rng import RngStream

RUN = [sys.executable, "-m", "fracmix"]


def run_cli(*args):
    """Run the CLI in this process, with its streams captured; argparse's
    usage errors arrive as SystemExit and give its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_entry_point(*args):
    """Run ``python -m fracmix`` in a fresh interpreter."""
    return subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600)


def simulate(tmp_path, name="panel.csv", run=run_cli, **overrides):
    flags = {
        "--hurst": "0.5",
        "--subjects": "2",
        "--n-obs": "4",
        "--horizon": "5",
        "--mu": "-2",
        "--sigma2": "1",
        "--seed": "7",
    }
    flags.update(overrides)
    out = tmp_path / name
    args = ["simulate"]
    for k, v in flags.items():
        args.extend([k, str(v)])
    args.extend(["--out", str(out)])
    res = run(*args)
    assert res.returncode == 0, res.stderr
    return out, res


# ---------------------------------------------------------------- simulate
def test_simulate_writes_expected_rows(tmp_path):
    out, res = simulate(tmp_path, run=run_entry_point)
    lines = out.read_text().splitlines()
    assert lines[0] == "subject,t,y"
    assert len(lines) == 1 + 8  # header + N*n data rows
    ts = sorted({row.split(",")[1] for row in lines[1:]})
    assert ts == ["1.25", "2.5", "3.75", "5.0"]
    # seed and grid are reported on stderr, results never are
    assert "seed: 7" in res.stderr
    assert "grid:" in res.stderr
    assert res.stdout == ""


def test_simulate_rejects_bad_hurst(tmp_path):
    res = run_cli(
        "simulate", "--hurst", "1.5", "--subjects", "2", "--n-obs", "4",
        "--horizon", "5", "--mu", "0", "--sigma2", "1", "--seed", "1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2
    assert "--hurst" in res.stderr


@pytest.mark.parametrize(
    "flag,value",
    [("--mu", "nan"), ("--mu", "inf"), ("--sigma2", "nan"), ("--sigma2", "inf"),
     ("--horizon", "nan"), ("--horizon", "inf")],
)
def test_simulate_rejects_non_finite_flag(tmp_path, flag, value):
    flags = {"--hurst": "0.5", "--subjects": "2", "--n-obs": "4", "--horizon": "5",
             "--mu": "0", "--sigma2": "1", "--seed": "1", flag: value}
    args = [a for kv in flags.items() for a in kv]
    res = run_cli("simulate", *args, "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2, res.stderr
    assert flag in res.stderr and "Traceback" not in res.stderr


def test_simulate_overflowing_panel_exits_3(tmp_path):
    # finite flags whose drift overflows a double: no file, no traceback
    out = tmp_path / "x.csv"
    res = run_cli(
        "simulate", "--hurst", "0.5", "--subjects", "2", "--n-obs", "4",
        "--horizon", "10", "--mu", "1e308", "--sigma2", "1", "--seed", "1",
        "--out", str(out),
    )
    assert res.returncode == 3, res.stderr
    assert "finite" in res.stderr and "Traceback" not in res.stderr
    (line,) = res.stderr.splitlines()  # no numpy overflow warning ahead of it
    assert line.startswith("error:")
    assert not out.exists()


def test_simulate_rejects_seed_past_64_bits(tmp_path):
    out = tmp_path / "x.csv"
    res = run_cli(
        "simulate", "--hurst", "0.5", "--subjects", "2", "--n-obs", "4",
        "--horizon", "5", "--mu", "0", "--sigma2", "1", "--seed", str(2**64),
        "--out", str(out),
    )
    assert res.returncode == 2, res.stderr
    assert "--seed" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_simulate_is_seed_deterministic(tmp_path):
    a, _ = simulate(tmp_path, name="a.csv")
    b, _ = simulate(tmp_path, name="b.csv")
    assert a.read_bytes() == b.read_bytes()
    c, _ = simulate(tmp_path, name="c.csv", **{"--seed": "8"})
    assert a.read_bytes() != c.read_bytes()


def test_simulate_zero_variance_slopes_concentrate(tmp_path):
    outs = {}
    for horizon in (5, 50):
        out, _ = simulate(
            tmp_path,
            name=f"h{horizon}.csv",
            **{"--sigma2": "0", "--subjects": "1000", "--horizon": str(horizon)},
        )
        rows = list(csv.DictReader(out.read_text().splitlines()))
        ends = [float(r["y"]) / float(r["t"]) for r in rows if float(r["t"]) == float(horizon)]
        outs[horizon] = np.var(ends)
    # slope spread is T^{2H-2} = 1/T here, so the large horizon shrinks it
    assert outs[50] < 0.5 * outs[5]
    assert outs[50] == pytest.approx(1 / 50, rel=0.3)


def test_round_trip_is_byte_identical(tmp_path):
    out, _ = simulate(tmp_path, **{"--subjects": "3", "--n-obs": "8", "--hurst": "0.85"})
    from fracmix.panel_io import read_panel_csv, write_panel_csv

    again = tmp_path / "again.csv"
    write_panel_csv(again, read_panel_csv(out))
    assert again.read_bytes() == out.read_bytes()


# ------------------------------------------------------------------- hurst
def test_hurst_estimates_simulated_panel(tmp_path):
    out, _ = simulate(
        tmp_path,
        **{"--hurst": "0.85", "--subjects": "1", "--n-obs": "4096", "--horizon": "1"},
    )
    res = run_cli("hurst", "--input", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert abs(doc["h_hat"] - 0.85) < 0.03
    assert doc["n"] == 4096
    assert doc["k"] == 2
    assert doc["filter"] == [1, -2, 1]


def test_hurst_rejects_low_order_filter(tmp_path):
    out, _ = simulate(tmp_path)
    res = run_cli("hurst", "--input", str(out), "--filter", "1,-1")
    assert res.returncode == 2
    assert "filter" in res.stderr


def test_hurst_rejects_unknown_filter_name(tmp_path):
    out, _ = simulate(tmp_path)
    res = run_cli("hurst", "--input", str(out), "--filter", "diff9")
    assert res.returncode == 2
    assert "--filter" in res.stderr and "diff2" in res.stderr and "diff3" in res.stderr


@pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
def test_hurst_rejects_bad_k(tmp_path, k):
    out, _ = simulate(tmp_path)
    res = run_cli("hurst", "--input", str(out), f"--k={k}")
    assert res.returncode == 2, res.stderr
    assert "--k" in res.stderr and "positive and finite" in res.stderr


def test_hurst_rejects_bad_subject(tmp_path):
    out, _ = simulate(tmp_path)
    res = run_cli("hurst", "--input", str(out), "--subject", "5")
    assert res.returncode == 2
    assert "--subject" in res.stderr


def test_hurst_out_of_range_series_exits_4(tmp_path):
    # drift-only panel: the k-variation is 0, outside the invertible range
    path = tmp_path / "drift.csv"
    n = 64
    with path.open("w") as fh:
        fh.write("subject,t,y\n")
        for j in range(1, n + 1):
            t = j / n
            fh.write(f"1,{t!r},{(-3.0 * t)!r}\n")
    res = run_cli("hurst", "--input", str(path))
    assert res.returncode == 4


def test_hurst_custom_filter_accepted(tmp_path):
    out, _ = simulate(
        tmp_path, **{"--subjects": "1", "--n-obs": "1024", "--horizon": "1"}
    )
    res = run_cli("hurst", "--input", str(out), "--filter=-1,3,-3,1")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["filter_order"] == 3


# ----------------------------------------------------------------- effects
def toy_slope_panel(tmp_path, slopes, times=(1.25, 2.5, 3.75, 5.0)):
    path = tmp_path / "toy.csv"
    with path.open("w") as fh:
        fh.write("subject,t,y\n")
        for i, c in enumerate(slopes, start=1):
            for t in times:
                fh.write(f"{i},{t!r},{c * t!r}\n")
    return path


def test_effects_on_pure_slope_panel(tmp_path):
    path = toy_slope_panel(tmp_path, [1.0, 3.0])
    res = run_cli("effects", "--input", str(path), "--hurst", "0.5")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["mu_hat"] == pytest.approx(2.0, abs=1e-10)
    # population variance of slopes is 1, q = T = 5
    assert doc["q"] == pytest.approx(5.0, abs=1e-10)
    assert doc["sigma2_hat"] == pytest.approx(1.0 - 0.2, abs=1e-10)
    assert doc["sigma2_hat_clamped"] == doc["sigma2_hat"]
    assert doc["exact_std_basis"] == "plug-in"
    assert len(doc["ci_mu"]) == 2


def test_effects_clamps_negative_sigma2(tmp_path):
    path = toy_slope_panel(tmp_path, [2.0, 2.0])  # zero spread: sigma2_hat = -1/q
    res = run_cli("effects", "--input", str(path), "--hurst", "0.5")
    doc = json.loads(res.stdout)
    assert doc["sigma2_hat"] == pytest.approx(-0.2, abs=1e-12)
    assert doc["sigma2_hat_clamped"] == 0.0


@pytest.mark.parametrize("subjects", [7, 5])
def test_effects_on_identical_subjects(tmp_path, subjects):
    # sigma2_hat = -1/q exactly; the variance of mu_hat cancels to a few
    # ulps below zero at these (q, N) and must read as 0, not crash
    path = tmp_path / "same.csv"
    times, row = (1.25, 2.5, 3.75, 5.0), (0.3, -1.1, 0.8, 2.4)
    lines = [f"{i},{t!r},{y!r}" for i in range(1, subjects + 1) for t, y in zip(times, row)]
    path.write_text("subject,t,y\n" + "\n".join(lines) + "\n")
    res = run_cli("effects", "--input", str(path), "--hurst", "0.49")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["exact_std_mu"] == 0.0
    assert doc["sigma2_hat"] == -1.0 / doc["q"]


def test_effects_estimation_value_error_exits_4(tmp_path, monkeypatch, capsys):
    from fracmix import cli

    def refuse(panel, gram):
        raise ValueError("sigma2=-1 below -1/q; variance of mu_hat would be negative")

    monkeypatch.setattr(cli, "estimate_effects", refuse)
    path = toy_slope_panel(tmp_path, [1.0, 3.0])
    assert cli.main(["effects", "--input", str(path), "--hurst", "0.5"]) == 4
    assert "estimation failed: sigma2=-1 below -1/q" in capsys.readouterr().err


def test_effects_brownian_mu_is_endpoint_mean(tmp_path):
    out, _ = simulate(tmp_path, **{"--subjects": "20", "--n-obs": "8"})
    res = run_cli("effects", "--input", str(out), "--hurst", "0.5")
    doc = json.loads(res.stdout)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    ends = [float(r["y"]) for r in rows if float(r["t"]) == 5.0]
    assert doc["mu_hat"] == pytest.approx(np.mean(ends) / 5.0, abs=1e-10)


def test_effects_requires_hurst_flag(tmp_path):
    path = toy_slope_panel(tmp_path, [1.0, 2.0])
    res = run_entry_point("effects", "--input", str(path))
    assert res.returncode == 2


def test_effects_rejects_bad_level(tmp_path):
    path = toy_slope_panel(tmp_path, [1.0, 2.0])
    res = run_cli("effects", "--input", str(path), "--hurst", "0.5", "--level", "1.5")
    assert res.returncode == 2
    assert "--level" in res.stderr


@pytest.mark.parametrize("hurst", ["0.995", "0.005"])
def test_effects_rejects_hurst_outside_gram_range(tmp_path, hurst):
    # inside (0, 1) but outside the range build_gram accepts: an input error
    path = toy_slope_panel(tmp_path, [1.0, 2.0])
    res = run_cli("effects", "--input", str(path), "--hurst", hurst)
    assert res.returncode == 2
    assert "--hurst" in res.stderr


@pytest.mark.parametrize("command", ["effects", "hurst"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_csv_value_exits_4_naming_the_line(tmp_path, command, bad):
    path = tmp_path / "bad.csv"
    rows = [f"1,{j / 8!r},{0.1 * j!r}" for j in range(1, 9)]
    rows[4] = f"1,{5 / 8!r},{bad}"  # line 6 of the file
    path.write_text("subject,t,y\n" + "\n".join(rows) + "\n")
    extra = ["--hurst", "0.5"] if command == "effects" else []
    res = run_cli(command, "--input", str(path), *extra)
    assert res.returncode == 4, res.stderr
    assert "line 6" in res.stderr
    assert "Traceback" not in res.stderr


def test_effects_grid_inconsistency_exits_4(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "subject,t,y\n"
        "1,1.0,0.5\n1,2.0,1.0\n"
        "2,1.0,0.4\n2,3.0,0.9\n"
    )
    res = run_cli("effects", "--input", str(path), "--hurst", "0.5")
    assert res.returncode == 4


def test_json_reals_round_trip(tmp_path):
    out, _ = simulate(tmp_path, **{"--subjects": "5", "--n-obs": "8", "--hurst": "0.7"})
    res = run_cli("effects", "--input", str(out), "--hurst", "0.7")
    doc = json.loads(res.stdout)
    # serialized with 17 significant digits: parsing and re-serializing
    # reproduces the identical document
    from fracmix.panel_io import dumps_result

    assert dumps_result(doc) == res.stdout


# -------------------------------------------------------------- experiment
CONFIG = """
# reference-style grid, tiny replication count
h_list = 0.15, 0.5, 0.85
subjects_list = 50, 500
n_obs_list = 4, 32, 256
horizon = 5.0
mu0 = -2.0
sigma20 = 1.0
replications = 2
base_seed = 11
"""


def test_experiment_grid_outputs(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(CONFIG)
    outdir = tmp_path / "results"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(outdir))
    assert res.returncode == 0, res.stderr
    tables = sorted(p.name for p in outdir.glob("table_*.csv"))
    assert tables == ["table_n256.csv", "table_n32.csv", "table_n4.csv"]
    for name in tables:
        rows = list(csv.DictReader((outdir / name).read_text().splitlines()))
        assert len(rows) == 6  # 3 H values x 2 subject counts
        assert list(rows[0]) == [
            "H", "N", "mean_mu", "exact_std_mu", "emp_std_mu",
            "mean_sigma2", "exact_std_sigma2", "emp_std_sigma2",
        ]
    svgs = list(outdir.glob("hist_*.svg"))
    assert len(svgs) == 36  # 18 cells x 2 estimators
    assert (outdir / "hist_0.5_50_4_mu.svg").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["base_seed"] == 11
    assert manifest["config"]["replications"] == 2
    text = (outdir / "hist_0.5_50_4_mu.svg").read_text()
    assert text.startswith("<?xml") and "</svg>" in text


def test_experiment_exact_std_columns(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 50\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 1\n"
    )
    outdir = tmp_path / "res"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(outdir))
    assert res.returncode == 0, res.stderr
    (row,) = list(csv.DictReader((outdir / "table_n4.csv").read_text().splitlines()))
    assert float(row["exact_std_mu"]) == pytest.approx(0.1549, abs=5e-5)
    assert float(row["exact_std_sigma2"]) == pytest.approx(0.2376, abs=5e-5)
    assert float(row["emp_std_mu"]) == 0.0  # single replication


def test_experiment_missing_key_exits_2(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 10\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\n"
    )
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "replications" in res.stderr


def test_experiment_out_of_range_value_exits_2(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 1.5\nsubjects_list = 10\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 1\n"
    )
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "h_list" in res.stderr and "Traceback" not in res.stderr


def test_experiment_config_parse_error_names_line(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("h_list = 0.5\nthis line is wrong\n")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def test_experiment_unwritable_output_exits_5(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 5\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = 0.0\nsigma20 = 1.0\nreplications = 1\n"
    )
    # a regular file in the parent position blocks directory creation
    # regardless of privileges
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(blocker / "sub"))
    assert res.returncode == 5


@pytest.mark.parametrize("blocked", ["table_n4.csv", "hist_0.5_5_4_mu.svg", "manifest.json"])
def test_experiment_output_write_failure_exits_5(tmp_path, blocked):
    # a directory where an output file goes fails that one write after
    # the run; the --out probe passes
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 5\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = 0.0\nsigma20 = 1.0\nreplications = 1\n"
    )
    outdir = tmp_path / "out"
    (outdir / blocked).mkdir(parents=True)
    res = run_cli("experiment", "--config", str(cfg), "--out", str(outdir))
    assert res.returncode == 5
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "--out" in errors[0] and blocked in errors[0]
    assert "wrote tables" not in res.stderr


@pytest.mark.parametrize("command", ["hurst", "effects"])
@pytest.mark.parametrize(
    "tail,fragment",
    [
        (b"1,1.0,\xff\n", "not UTF-8 text"),
        (b"1,1.0," + b"9" * 200_000 + b"\n", "line 6: field larger than field limit"),
    ],
    ids=["0xff", "long-field"],
)
def test_unreadable_panel_csv_exits_4(tmp_path, command, tail, fragment):
    path, _ = simulate(tmp_path)
    data = path.read_bytes()
    # the header and subject 1's four rows, then the bad line 6
    path.write_bytes(data[: data.index(b"\n2,") + 1] + tail)
    flags = ["--hurst", "0.5"] if command == "effects" else []
    res = run_cli(command, "--input", str(path), *flags)
    assert res.returncode == 4
    assert res.stderr.startswith("error: --input: ") and fragment in res.stderr


def test_experiment_config_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_bytes(b"h_list = 0.5\n# caf\xe9\n")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: --config: not UTF-8 text")


def test_missing_input_file_exits_2(tmp_path):
    res = run_cli("hurst", "--input", str(tmp_path / "nope.csv"))
    assert res.returncode == 2


def test_experiment_cells_named_by_shortest_round_trip_h(tmp_path, monkeypatch):
    # two H values equal to 6 significant digits name two cells in every output
    def refuse(*args):
        raise EstimationRangeError("refused")

    monkeypatch.setattr("fracmix.experiment.estimate_h", refuse)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.1234567, 0.1234568\nsubjects_list = 3\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 2\nestimate_hurst = true\n"
    )
    outdir = tmp_path / "res"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(outdir))
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in outdir.glob("hist_*.svg")) == [
        "hist_0.1234567_3_4_mu.svg", "hist_0.1234567_3_4_sigma2.svg",
        "hist_0.1234568_3_4_mu.svg", "hist_0.1234568_3_4_sigma2.svg",
    ]
    assert "(H=0.1234568, N=3, n=4)" in (outdir / "hist_0.1234568_3_4_mu.svg").read_text()
    rows = list(csv.DictReader((outdir / "table_n4.csv").read_text().splitlines()))
    assert [row["H"] for row in rows] == ["0.1234567", "0.1234568"]
    assert rows[0]["mean_mu"] != rows[1]["mean_mu"]
    assert "cell (H=0.1234568, N=3, n=4): H estimate refused in 2 of 2" in res.stderr


def one_cell_config(tmp_path, **keys):
    """A valid one-cell config file, ``keys`` overriding its values."""
    base = {"h_list": "0.5", "subjects_list": "3", "n_obs_list": "4", "horizon": "5.0",
            "mu0": "-2.0", "sigma20": "1.0", "replications": "1"}
    path = tmp_path / "grid.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**base, **keys}.items()))
    return path


def _config_value(value):
    """A manifest config value as config-file text."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ", ".join(map(str, value))
    return str(value)


def test_manifest_reproduces_a_fast_sampler_run(tmp_path):
    # the sampler is a config key, echoed in the manifest, so the manifest
    # alone rebuilds a config file that reruns the same experiment
    def run(cfg, name):
        res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / name))
        assert res.returncode == 0, res.stderr
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        return files, json.loads(files["manifest.json"])

    def rerun(manifest, name):
        keys = {**manifest["config"], "base_seed": manifest["base_seed"]}
        again = tmp_path / "again.cfg"
        again.write_text("".join(f"{k} = {_config_value(v)}\n" for k, v in keys.items()))
        return run(again, name)[0]

    fast, manifest = run(one_cell_config(tmp_path, sampler="fast", replications="3"), "a")
    assert manifest["config"]["sampler"] == "fast"
    assert rerun(manifest, "b") == fast
    exact, manifest = run(one_cell_config(tmp_path, replications="3"), "c")
    assert manifest["config"]["sampler"] == "exact"  # the default, which draws otherwise
    assert exact["table_n4.csv"] != fast["table_n4.csv"]
    # every optional key away from its default, the filter as a coefficient list
    optional = dict(filter="-1,3,-3,1", estimate_hurst="true", k="3", sampler="fast",
                    base_seed="5", n_obs_list="16, 64", replications="3")
    files, manifest = run(one_cell_config(tmp_path, **optional), "d")
    assert manifest["config"]["filter"] == [-1.0, 3.0, -3.0, 1.0]
    assert (manifest["config"]["k"], manifest["config"]["estimate_hurst"]) == (3.0, True)
    assert "hist_0.5_3_64_hurst.svg" in files
    assert rerun(manifest, "e") == files


def test_experiment_unknown_sampler_exits_2(tmp_path):
    cfg = one_cell_config(tmp_path, sampler="bogus")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: --config: ") and "sampler" in line and "bogus" in line


def test_exact_experiment_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # on uniform grids the exact sampler's factor comes from elementwise
    # numpy (the Schur pass); LAPACK's factor of V at n = 128 rounds
    # differently at 1 and 2 OpenBLAS threads, and so did table_n128.csv.
    # At N = 300, n = 128 a replication's 38,400 normals are two blocks.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "h_list = 0.15, 0.85\nsubjects_list = 5, 300\nn_obs_list = 32, 128\nhorizon = 5.0\n"
        "mu0 = -2.0\nsigma20 = 1.0\nreplications = 4\nbase_seed = 7\n"
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        res = subprocess.run(
            RUN + ["experiment", "--config", str(cfg), "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert {"table_n32.csv", "table_n128.csv", "manifest.json"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_experiment_overflowing_cell_exits_4_naming_the_first_failing_cell(tmp_path, sampler):
    # every cell overflows at mu0 = 1e308; the first one in grid order is
    # named, the run exits 4 as any other cell failure does, and no table
    # is written
    cfg = one_cell_config(tmp_path, h_list="0.5, 0.85", n_obs_list="4, 8", mu0="1e308",
                          replications="3", sampler=sampler)
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 4
    running, line = res.stderr.splitlines()
    assert running.startswith("running 4 cells x 3 replications")
    assert line.startswith("error: cell (H=0.5, N=3, n=4): ")
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("key,value", [("h_list", "0.5, 0.5"), ("n_obs_list", "4, 2")])
def test_experiment_config_fails_before_the_first_cell(tmp_path, key, value):
    # a repeated axis value, or a series too short for the filter, exits 2 up front
    cfg = one_cell_config(tmp_path, estimate_hurst="true", filter="diff3", **{key: value})
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"error: --config: {key}")
    assert not (tmp_path / "o").exists()


SIMULATE_FLAGS = ["--hurst", "0.5", "--horizon", "5", "--mu", "0", "--sigma2", "1", "--seed", "1"]


# counts numpy refuses to size by arithmetic, before it allocates anything
@pytest.mark.parametrize(
    "argv,code,fragment",
    [
        (["simulate", "--subjects", str(2**64), "--n-obs", "4"], 3, f"{2**64} subjects"),
        (["simulate", "--subjects", str(2**63 - 1), "--n-obs", "4"], 3, f"{2**63 - 1} subjects"),
        (["simulate", "--subjects", "2", "--n-obs", str(2**64)], 3, f"{2**64} observations"),
        (["experiment", "subjects_list", str(2**64)], 4, f"{2**64} subjects"),
        (["experiment", "n_obs_list", str(2**64)], 4, f"{2**64} observations"),
    ],
    ids=["subjects-2**64", "subjects-2**63-1", "n-obs-2**64", "subjects_list", "n_obs_list"],
)
def test_unsizable_count_exits_with_one_error_line(tmp_path, argv, code, fragment):
    if argv[0] == "simulate":
        args = [*argv, *SIMULATE_FLAGS, "--out", str(tmp_path / "x.csv")]
    else:
        cfg = one_cell_config(tmp_path, **{argv[1]: argv[2]})
        args = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
    res = run_cli(*args)
    assert res.returncode == code
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0]
    assert "Traceback" not in res.stderr


def test_unholdable_replications_exit_before_any_replication(tmp_path, monkeypatch):
    # the cell's (R, N) reads are allocated at set-up, so a replication
    # count no machine can hold ends at once instead of growing until the
    # OS kills the run; a replication that starts fails the test
    from fracmix import experiment

    started = []

    def replicating(*args):
        started.append(args[-1])
        raise AssertionError("a replication started")

    monkeypatch.setattr(experiment, "_replicate_with_gram", replicating)
    cfg = one_cell_config(tmp_path, replications=str(10**14))
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 4 and started == []
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: cell (H=0.5, N=3, n=4): cannot hold {10**14} x 3 ")
    assert not list((tmp_path / "o").iterdir())


class _Exhausted:
    """A generator whose draw number ``fail_at`` cannot be sized or allocated."""

    def __init__(self, gen, fail_at, exc):
        self.gen, self.fail_at, self.exc, self.calls = gen, fail_at, exc, 0

    def standard_normal(self, size):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.exc
        return self.gen.standard_normal(size)


MEMORY = MemoryError("Unable to allocate 8.00 PiB for an array")


# counts numpy can size but the machine cannot allocate, faked by a
# generator that fails at one draw: the effects (1) or the noise (2)
@pytest.mark.parametrize(
    "argv,fail_at,exc,code,fragment",
    [
        (["simulate"], 1, MEMORY, 3, "cannot hold 3 subjects"),
        (["simulate"], 2, MEMORY, 3, "normal draws"),
        (["experiment"], 1, MEMORY, 4, "cannot hold 3 subjects"),
        (["experiment", "sampler", "exact"], 2, MEMORY, 4, "normal draws"),
        (["experiment", "sampler", "fast"], 2, MEMORY, 4, "normal draws"),
        (["experiment", "sampler", "exact"], 2, ValueError("maximum supported dimension"), 4,
         "normal draws"),
    ],
    ids=["simulate-effects", "simulate-noise", "experiment-effects", "experiment-exact-noise",
         "experiment-fast-noise", "experiment-unsizable-noise"],
)
def test_unallocatable_count_exits_with_one_error_line(
    tmp_path, monkeypatch, argv, fail_at, exc, code, fragment
):
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda s: _Exhausted(generator(s), fail_at, exc))
    if argv[0] == "simulate":
        args = ["simulate", "--subjects", "3", "--n-obs", "4", *SIMULATE_FLAGS,
                "--out", str(tmp_path / "x.csv")]
    else:
        cfg = one_cell_config(tmp_path, **dict(zip(argv[1::2], argv[2::2])))
        args = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
    res = run_cli(*args)
    assert res.returncode == code
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0]


def test_unallocatable_grid_exits_with_one_error_line(tmp_path, monkeypatch):
    def exhausted(*args):
        raise MEMORY

    monkeypatch.setattr(np, "arange", exhausted)
    res = run_cli("simulate", "--subjects", "2", "--n-obs", "4", *SIMULATE_FLAGS,
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 3
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ") and "cannot hold 4 observations" in line


def test_bom_panel_and_config_read_as_plain_files(tmp_path):
    path, _ = simulate(tmp_path, **{"--subjects": "4"})
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    plain = run_cli("effects", "--input", str(path), "--hurst", "0.5")
    marked = run_cli("effects", "--input", str(bom), "--hurst", "0.5")
    assert marked.returncode == 0, marked.stderr
    assert marked.stdout == plain.stdout
    cfg = one_cell_config(tmp_path)
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 0, res.stderr


# documented exits that no other test reaches: case -> (exit code, error fragment)
UNCOVERED_EXITS = {
    "hurst-non-uniform": (4, "uniform time grid"),
    "effects-one-subject": (4, "at least two subjects"),
    "simulate-missing-dir": (5, "--out: cannot write"),
    "experiment-missing-config": (2, "--config: cannot read"),
    "experiment-empty-key": (2, "line 2: empty key"),
}


def _uncovered_exit_argv(case, tmp_path):
    if case == "hurst-non-uniform":
        path = tmp_path / "skewed.csv"
        rows = [f"{i},{t},{0.1 * i * t!r}\n" for i in (1, 2) for t in (1.0, 2.0, 4.0, 8.0)]
        path.write_text("subject,t,y\n" + "".join(rows))
        return ["hurst", "--input", str(path)]
    if case == "effects-one-subject":
        path, _ = simulate(tmp_path, **{"--subjects": "1"})
        return ["effects", "--input", str(path), "--hurst", "0.5"]
    if case == "simulate-missing-dir":
        out = tmp_path / "missing" / "x.csv"
        return ["simulate", "--subjects", "2", "--n-obs", "4", *SIMULATE_FLAGS, "--out", str(out)]
    cfg = tmp_path / "grid.cfg"
    if case == "experiment-empty-key":
        cfg.write_text("h_list = 0.5\n = 5\n")
    return ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("case", UNCOVERED_EXITS)
def test_documented_exit_codes(tmp_path, case):
    code, fragment = UNCOVERED_EXITS[case]
    res = run_cli(*_uncovered_exit_argv(case, tmp_path))
    assert res.returncode == code
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ") and fragment in line


@pytest.mark.parametrize("sampler", ["exact", "fast"])
def test_manifest_records_versions_and_threads(tmp_path, monkeypatch, capsys, sampler):
    # the pool's size shows in the manifest only: every table and SVG
    # is byte for byte the same at 1 and 3 threads
    import scipy

    from fracmix import __version__, experiment

    cfg = one_cell_config(tmp_path, h_list="0.15, 0.85", replications="5", sampler=sampler,
                          estimate_hurst="true")
    runs = {}
    for workers in (1, 3):
        monkeypatch.setattr(experiment, "_worker_count", lambda: workers)
        out = tmp_path / str(workers)
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        runs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(runs[workers].pop("manifest.json"))
        assert manifest["versions"] == {"fracmix": __version__, "numpy": np.__version__,
                                        "scipy": scipy.__version__}
        assert manifest["threads"] == workers
    capsys.readouterr()
    assert runs[1] == runs[3] and "table_n4.csv" in runs[1]
