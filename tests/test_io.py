import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmix import ConfigError, Panel, PanelFormatError, SamplingGrid
from fracmix.panel_io import (
    dumps_result,
    format_real,
    load_experiment_config,
    parse_config_text,
    read_panel_csv,
    write_panel_csv,
)
from fracmix.svg import histogram_svg


def test_format_real_round_trips_doubles():
    gen = np.random.default_rng(0)
    for x in np.concatenate([gen.standard_normal(200), [1e-300, 1e300, 0.1, 2 / 3]]):
        assert float(format_real(x)) == x


def test_dumps_result_uses_17_digits():
    text = dumps_result({"x": 2 / 3})
    assert "0.66666666666666663" in text
    doc = json.loads(text)
    assert doc["x"] == 2 / 3


def test_dumps_result_structures():
    doc = {"a": [1.5, 2, "s"], "b": {"c": True, "d": None}, "e": []}
    assert json.loads(dumps_result(doc)) == doc


def test_dumps_result_writes_non_finite_reals_as_null():
    doc = {"x": float("nan"), "y": [np.inf, -np.inf, np.float64("nan")], "z": np.array([np.nan])}
    assert json.loads(dumps_result(doc)) == {"x": None, "y": [None, None, None], "z": [None]}


def test_panel_csv_round_trip(tmp_path):
    grid = SamplingGrid((0.5, 1.0, 1.75))
    y = np.array([[0.1, -0.2, 0.3], [1.0, 2.0, 3.0]])
    panel = Panel(grid=grid, y=y)
    path = tmp_path / "p.csv"
    write_panel_csv(path, panel)
    back = read_panel_csv(path)
    assert np.array_equal(back.grid.times, grid.times)
    assert np.array_equal(back.y, y)
    again = tmp_path / "again.csv"
    write_panel_csv(again, back)
    assert again.read_bytes() == path.read_bytes()
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
fuzzed_panels = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=n, max_size=n, unique=True,
        ),
        st.lists(st.lists(finite, min_size=n, max_size=n), min_size=1, max_size=4),
    )
)


@settings(max_examples=60, deadline=None)
@given(case=fuzzed_panels)
def test_panel_csv_round_trip_fuzzed(tmp_path_factory, case):
    # any finite panel, subnormals and -0.0 included: write -> read -> write
    times, rows = case
    panel = Panel(grid=SamplingGrid(sorted(times)), y=rows)
    first = tmp_path_factory.mktemp("csv") / "p.csv"
    again = first.with_name("again.csv")
    write_panel_csv(first, panel)
    write_panel_csv(again, read_panel_csv(first))
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("a,b,c\n1,1.0,2.0\n", "header"),
        ("subject,t,y\n", "no data"),
        ("subject,t,y\n1,1.0,2.0\n1,1.0,2.5\n", "strictly increasing"),
        ("subject,t,y\n2,1.0,2.0\n1,1.0,2.5\n", "sorted"),
        ("subject,t,y\n1,1.0,2.0\n2,1.0,2.5\n1,2.0,2.5\n", "sorted"),
        ("subject,t,y\n1,1.0,2.0\n2,2.0,2.5\n", "time column"),
        ("subject,t,y\n1,1.0\n", "3 fields"),
        ("subject,t,y\n1,abc,2.0\n", "line 2"),
        ('subject,t,y\n1,"1.0\n",2.0\n1,abc,2.0\n', "line 4"),  # physical lines
        ("subject,t,y\n1,1.0,2.0\n1,2.0,nan\n", "line 3: non-finite"),
        ("subject,t,y\n1,1.0,inf\n", "line 2: non-finite"),
        ("subject,t,y\n1,1.0,2.0\n1,-inf,2.5\n", "line 3: non-finite"),
        ("subject,t,y\n1,nan,2.0\n", "line 2: non-finite"),
        ("subject,t,y\n1.5,1.0,2.0\n", "line 2: invalid literal for int"),
        ("subject,t,y\n1,1.0,2.0\n1,2.0,2.5\n2,1.0,2.0\n", "subject 2 has a different time"),
        ("subject,t,y\n1,1.0,2.0\n2,1.0,2.0\n2,2.0,2.5\n", "subject 2 has a different time"),
    ],
)
def test_panel_csv_rejects_malformed(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(PanelFormatError, match=fragment):
        read_panel_csv(path)


@pytest.mark.parametrize(
    "content,subjects,times,y",
    [
        ("subject,t,y\n1,1.0,2.0\n\n1,2.0,3.0\n", 1, [1.0, 2.0], [[2.0, 3.0]]),
        ("subject,t,y\r\n1,1.0,2.0\r\n2,1.0,3.0\r\n", 2, [1.0], [[2.0], [3.0]]),
        (
            "subject,t,y\n-5,0.5,1.0\n123456789012345678901234567890,0.5,2.0\n",
            2, [0.5], [[1.0], [2.0]],
        ),
        ("\ufeffsubject,t,y\n1,1.0,2.0\n", 1, [1.0], [[2.0]]),
    ],
)
def test_panel_csv_accepts_edge_cases(tmp_path, content, subjects, times, y):
    # blank lines, CRLF line endings, a byte-order mark, negative and 30-digit subject ids
    path = tmp_path / "edge.csv"
    path.write_bytes(content.encode())
    panel = read_panel_csv(path)
    assert panel.n_subjects == subjects
    assert panel.grid.times.tolist() == times
    assert panel.y.tolist() == y


def test_parse_config_lines():
    values = parse_config_text("a = 1\n# comment\n\nb= x,y # trailing\n")
    assert values == {"a": "1", "b": "x,y"}
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_load_experiment_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "h_list = 0.15, 0.5\nsubjects_list = 50\nn_obs_list = 4, 8\n"
        "horizon = 5.0\nmu0 = -2\nsigma20 = 1\nreplications = 3\n"
        "filter = diff3\nestimate_hurst = true\nbase_seed = 9\n"
    )
    loaded = load_experiment_config(cfg)
    assert loaded.h_list == (0.15, 0.5)
    assert loaded.n_obs_list == (4, 8)
    assert loaded.filter.order == 3
    assert loaded.estimate_hurst is True
    assert loaded.base_seed == 9
    assert loaded.k == 2.0  # default
    assert loaded.sampler == "exact"  # default
    cfg.write_text(cfg.read_text() + "sampler = fast\n")
    assert load_experiment_config(cfg).sampler == "fast"


def test_load_experiment_config_errors(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("h_list = 0.5\n")
    with pytest.raises(ConfigError, match="subjects_list"):
        load_experiment_config(cfg)
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 50\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2\nsigma20 = 1\nreplications = 3\nwhat = 1\n"
    )
    with pytest.raises(ConfigError, match="what"):
        load_experiment_config(cfg)
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 50\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2\nsigma20 = 1\nreplications = 3\nfilter = 1,-1\n"
    )
    with pytest.raises(ConfigError, match="filter"):
        load_experiment_config(cfg)
    for bad in ("diff9", "1,x,1"):
        cfg.write_text(
            "h_list = 0.5\nsubjects_list = 50\nn_obs_list = 4\nhorizon = 5.0\n"
            f"mu0 = -2\nsigma20 = 1\nreplications = 3\nfilter = {bad}\n"
        )
        with pytest.raises(ConfigError, match="filter"):
            load_experiment_config(cfg)
    cfg.write_text(
        "h_list = 0.5\nsubjects_list = 50\nn_obs_list = 4\nhorizon = 5.0\n"
        "mu0 = -2\nsigma20 = 1\nreplications = 3\nestimate_hurst = maybe\n"
    )
    with pytest.raises(ConfigError, match="estimate_hurst"):
        load_experiment_config(cfg)
    # values that parse but lie outside their range
    good = {
        "h_list": "0.5", "subjects_list": "50", "n_obs_list": "4", "horizon": "5.0",
        "mu0": "-2", "sigma20": "1", "replications": "3", "estimate_hurst": "true",
    }
    for key, bad in (
        ("subjects_list", "0"),
        ("n_obs_list", "4, 0"),
        ("sigma20", "-1"),
        ("mu0", "nan"),
        ("k", "-1"),
        ("h_list", "1.5"),
        ("h_list", "0.5, 0.005"),
        ("horizon", "-5"),
        ("horizon", "inf"),
        ("h_list", "0.5, 0.15, 0.5"),
        ("subjects_list", "50, 50"),
        ("n_obs_list", "4, 8, 4"),
        ("n_obs_list", "4, 2"),  # no complete window of diff2 at n = 2
        ("sampler", "bogus"),
    ):
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**good, key: bad}.items()))
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            load_experiment_config(cfg)


def test_histogram_svg_structure():
    edges = np.linspace(-1.0, 1.0, 31)
    counts = np.arange(30)
    text = histogram_svg(edges, counts, "title & co", "value")
    assert text.startswith("<?xml")
    assert text.count("<rect") == 30 + 1  # bars + background
    assert "<polyline" in text
    assert "title &amp; co" in text
    assert "frequency" in text
    with pytest.raises(ValueError):
        histogram_svg(edges, counts[:-1], "t", "x")
