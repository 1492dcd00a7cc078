import json
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_edges import MALFORMED

from fracmix import ConfigError, Panel, PanelFormatError, SamplingGrid, panel_io
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


# ---------------------------------------------------------------------------
# the numpy pass against the row loop: same Panel bytes, or same error


def outcome(path):
    """What ``read_panel_csv`` gives: the panel's bytes, or the error's type and text."""
    try:
        panel = read_panel_csv(path)
    except Exception as exc:
        return type(exc), str(exc)
    return panel.y.shape, panel.grid.times.tobytes(), panel.y.tobytes()


def loop_outcome(path):
    """``outcome`` with the numpy pass switched off: the row loop's answer."""
    with mock.patch.object(panel_io, "_numpy_rows", lambda fh: None):
        return outcome(path)


def assert_as_loop(path, data: bytes):
    path.write_bytes(data)
    assert outcome(path) == loop_outcome(path), data[:200]


def written(rows, times) -> bytes:
    """``write_panel_csv``'s text for these rows."""
    body = "".join(
        f"{i},{t!r},{v!r}\n" for i, row in enumerate(rows, start=1) for t, v in zip(times, row)
    )
    return ("subject,t,y\n" + body).encode()


GOOD = "subject,t,y\n1,0.5,1.0\n1,1.0,2.0\n2,0.5,3.0\n2,1.0,4.0\n"
DIFFERENTIAL = {
    "good": GOOD,
    "crlf": GOOD.replace("\n", "\r\n"),
    "lone-cr": GOOD.replace("\n", "\r"),
    "mixed-endings": "subject,t,y\n1,0.5,1.0\r1,1.0,2.0\r\n2,0.5,3.0\n2,1.0,4.0",
    "header-cr": "subject,t,y\r1,0.5,1.0\n",
    "quoted": 'subject,t,y\n1,"0.5",1.0\n1,1.0,2.0\n',
    "quoted-id": 'subject,t,y\n"1",0.5,1.0\n',
    "quoted-newline": 'subject,t,y\n1,"0.5\n",1.0\n1,1.0,2.0\n',
    "quoted-header": '"subject",t,y\n1,0.5,1.0\n',
    "bom": "\ufeff" + GOOD,
    "bom-quoted": '\ufeffsubject,t,y\n1,"0.5",1.0\n',
    "blank-lines": "subject,t,y\n\n1,0.5,1.0\n\r\n\n1,1.0,2.0\n\n",
    "space-line": "subject,t,y\n1,0.5,1.0\n \n1,1.0,2.0\n",
    "tab-line": "subject,t,y\n1,0.5,1.0\n\t\n",
    "formfeed-line": "subject,t,y\n1,0.5,1.0\n\x0c\n",
    "padded-fields": "subject,t,y\n 1 , 0.5 ,\t1.0\x0c\n",
    "unicode-space": "subject,t,y\n1,\u20030.5,1.0\u2003\n",
    "unicode-separators": "subject,t,y\n1,0.5,1.0\x851,1.0,2.0\u20281,1.5,3.0\n",
    "trailing-comma": "subject,t,y\n1,0.5,1.0,\n",
    "two-fields": "subject,t,y\n1,0.5\n",
    "empty-fields": "subject,t,y\n,,\n",
    "id-30-digits": "subject,t,y\n123456789012345678901234567890,0.5,1.0\n",
    "id-2**63": f"subject,t,y\n{2**63},0.5,1.0\n",
    "id-2**63-1": f"subject,t,y\n{2**63 - 1},0.5,1.0\n",
    "id--2**63": f"subject,t,y\n{-2**63},0.5,1.0\n",
    "id--2**63-1": f"subject,t,y\n{-2**63 - 1},0.5,1.0\n{-2**63},0.5,2.0\n",
    "id--5": "subject,t,y\n-5,0.5,1.0\n-5,1.0,2.0\n7,0.5,3.0\n7,1.0,4.0\n",
    "id-signed": "subject,t,y\n+1,+0.5,-1.0\n",
    "id-float": "subject,t,y\n1.0,0.5,1.0\n",
    "id-underscore": "subject,t,y\n1_0,0.5,1.0\n",
    "value-underscore": "subject,t,y\n1,0.5,1_0.0\n",
    "unicode-digits": "subject,t,y\n\u0661,0.5,1.0\n",
    "unicode-value": "subject,t,y\n1,\u0660.5,1.0\n",
    "fullwidth-digit": "subject,t,y\n\uff11,0.5,1.0\n",
    "hex": "subject,t,y\n0x1,0.5,1.0\n",
    "nan": "subject,t,y\n1,0.5,nan\n",
    "inf": "subject,t,y\n1,inf,1.0\n",
    "-infinity": "subject,t,y\n1,0.5,-Infinity\n",
    "1e400": "subject,t,y\n1,0.5,1e400\n",
    "1e-400": "subject,t,y\n1,0.5,1e-400\n",
    "subnormal": "subject,t,y\n1,5e-324,-0.0\n",
    "long-finite-field": "subject,t,y\n1,0.5,1." + "0" * 200_000 + "\n",
    "long-padded-id": "subject,t,y\n" + "0" * 200_000 + "1,0.5,1.0\n",
    "nul": "subject,t,y\n1,0.5,1.0\x00\n",
    "nul-line": "subject,t,y\n1,0.5,1.0\n\x00\n",
    "unsorted-subjects": "subject,t,y\n2,0.5,1.0\n1,0.5,2.0\n",
    "returning-subject": "subject,t,y\n1,0.5,1.0\n2,0.5,2.0\n1,1.0,2.0\n",
    "repeated-time": "subject,t,y\n1,0.5,1.0\n1,0.5,2.0\n",
    "falling-time": "subject,t,y\n1,1.0,1.0\n1,0.5,2.0\n",
    "short-time-column": "subject,t,y\n1,0.5,1.0\n1,1.0,2.0\n2,0.5,3.0\n",
    "long-time-column": "subject,t,y\n1,0.5,1.0\n2,0.5,3.0\n2,1.0,4.0\n",
    "other-time-column": "subject,t,y\n1,0.5,1.0\n1,1.0,2.0\n2,0.5,3.0\n2,1.5,4.0\n",
    "nonpositive-time": "subject,t,y\n1,0.0,1.0\n1,1.0,2.0\n",
    "header-only": "subject,t,y\n",
    "header-no-newline": "subject,t,y",
    "blank-body": "subject,t,y\n\n\r\n\n",
    "empty": "",
    "blank": "\n",
    "bad-header": "subject,time,y\n1,0.5,1.0\n",
    "header-spaces": "subject, t, y\n1,0.5,1.0\n",
    "comment": "subject,t,y\n# note\n1,0.5,1.0\n",
    "value-comment": "subject,t,y\n1,0.5,1.0#\n",
    "no-final-newline": "subject,t,y\n1,0.5,1.0\n1,1.0,2.0",
}


@pytest.fixture(scope="module")
def written_panels(tmp_path_factory):
    """A small and a large file from ``write_panel_csv``: the large one
    puts damage in its middle past the first 8 KiB the header read decodes."""
    gen = np.random.default_rng(11)
    paths = []
    for n_subjects, n_obs in ((3, 16), (4, 256)):
        grid = SamplingGrid.uniform(n_obs, 5.0)
        path = tmp_path_factory.mktemp("written") / "panel.csv"
        write_panel_csv(path, Panel(grid=grid, y=gen.standard_normal((n_subjects, n_obs))))
        paths.append(path)
    return paths


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_numpy_pass_matches_row_loop(tmp_path, name):
    assert_as_loop(tmp_path / "d.csv", DIFFERENTIAL[name].encode())


@pytest.mark.parametrize("damage", MALFORMED)
def test_numpy_pass_matches_row_loop_on_damaged_files(tmp_path, written_panels, damage):
    for source in written_panels:
        assert_as_loop(tmp_path / "d.csv", MALFORMED[damage](source.read_bytes()))


@settings(max_examples=60, deadline=None)
@given(case=fuzzed_panels)
def test_numpy_pass_matches_row_loop_on_written_panels(tmp_path_factory, case):
    times, rows = case
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    write_panel_csv(path, Panel(grid=SamplingGrid(sorted(times)), y=rows))
    assert_as_loop(path, path.read_bytes())


# pieces of text that the two readers might treat differently
PIECES = [
    ",", "\n", "\r", "\r\n", '"', " ", "\t", "\x00", "\x0c", "\x85", "\u2003", "\u2028", "\ufeff",
    "1", "0", "-", "+", ".", "e", "_", "\u0661", "\uff11", "nan", "inf", "#",
    "9" * 30, str(2**63), "1e400", "0.5",
]


@st.composite
def damaged_texts(draw):
    """A valid panel's text, a few pieces inserted, deleted or swapped in."""
    n_obs = draw(st.integers(1, 3))
    times = sorted(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 1e-300, 3e300]),
                                 min_size=n_obs, max_size=n_obs, unique=True)))
    rows = draw(st.lists(st.lists(st.sampled_from([0.0, -1.5, 2.25, 1e-320, 7e307]),
                                  min_size=n_obs, max_size=n_obs), min_size=1, max_size=3))
    text = written(rows, times).decode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        end = at + draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(["", *PIECES])) + text[end:]
    data = text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xef\xbb\xbf", b"\xc3"])) + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=damaged_texts())
def test_numpy_pass_matches_row_loop_on_damaged_texts(tmp_path_factory, data):
    assert_as_loop(tmp_path_factory.mktemp("csv") / "d.csv", data)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.lists(st.sampled_from(["", *PIECES]), max_size=4),
                  st.sampled_from(["\n", "\r\n", "\r", ""])),
        max_size=5,
    ),
    header=st.sampled_from(["subject,t,y\n", "subject,t,y\r\n", "\ufeffsubject,t,y\n", ""]),
)
def test_numpy_pass_matches_row_loop_on_random_lines(tmp_path_factory, lines, header):
    text = header + "".join(",".join(fields) + end for fields, end in lines)
    assert_as_loop(tmp_path_factory.mktemp("csv") / "d.csv", text.encode())


# ---------------------------------------------------------------------------
# which path reads a file


def spy_on_row_loop(monkeypatch) -> list:
    """The handles the row loop opens a ``csv.reader`` on."""
    calls = []
    real = panel_io.csv.reader

    def spy(fh, *args, **kwargs):
        calls.append(fh)
        return real(fh, *args, **kwargs)

    monkeypatch.setattr(panel_io.csv, "reader", spy)
    return calls


def read_without_warnings(path):
    """``read_panel_csv`` with every warning recorded; none may be emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return read_panel_csv(path)
        finally:
            assert caught == []


def test_written_panel_takes_the_numpy_pass(tmp_path, monkeypatch):
    gen = np.random.default_rng(5)
    panel = Panel(grid=SamplingGrid.uniform(64, 5.0), y=gen.standard_normal((4, 64)))
    path = tmp_path / "p.csv"
    write_panel_csv(path, panel)

    def refuse(*args, **kwargs):
        raise AssertionError("the row loop read a file from write_panel_csv")

    monkeypatch.setattr(panel_io.csv, "reader", refuse)
    back = read_without_warnings(path)
    assert back.grid.times.tobytes() == panel.grid.times.tobytes()
    assert back.y.tobytes() == panel.y.tobytes()


@pytest.mark.parametrize(
    "content,y",
    [
        ('subject,t,y\n1,"0.5",1.0\n1,1.0,2.0\n', [[1.0, 2.0]]),
        ("\ufeffsubject,t,y\n1,0.5,1.0\n2,0.5,\"2.0\"\n", [[1.0], [2.0]]),
        ("subject,t,y\n123456789012345678901234567890,0.5,1.0\n", [[1.0]]),
    ],
)
def test_files_the_numpy_pass_refuses_reach_the_row_loop(tmp_path, monkeypatch, content, y):
    path = tmp_path / "p.csv"
    path.write_bytes(content.encode())
    calls = spy_on_row_loop(monkeypatch)
    assert read_without_warnings(path).y.tolist() == y
    assert len(calls) == 1


@pytest.mark.parametrize("content", ["subject,t,y\n", "subject,t,y\n\n\r\n\n"])
def test_no_data_rows_leaks_no_numpy_warning(tmp_path, content):
    # np.loadtxt warns "input contained no data" on these; the row loop words the error
    path = tmp_path / "p.csv"
    path.write_bytes(content.encode())
    with pytest.raises(PanelFormatError, match="no data rows"):
        read_without_warnings(path)


def test_an_id_written_as_a_float_reaches_the_row_loop(tmp_path, monkeypatch):
    # numpy >= 2.0 raises on an integer field that reads as a float (1.24-1.26
    # only warned), so the pass sets no warning filter; the row loop words it
    path = tmp_path / "p.csv"
    path.write_bytes(GOOD.replace("\n1,", "\n1.0,", 1).encode())
    calls = spy_on_row_loop(monkeypatch)
    with pytest.raises(PanelFormatError, match="line 2: invalid literal for int"):
        read_without_warnings(path)
    assert len(calls) == 1


@pytest.mark.parametrize("body", ["", "\n", "\n\r\n \t\n", "\r"])
def test_a_blank_body_never_reaches_numpy(tmp_path, monkeypatch, body):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was given a body without rows")

    monkeypatch.setattr(np, "loadtxt", refuse)
    path = tmp_path / "p.csv"
    path.write_bytes(("subject,t,y\n" + body).encode())
    with pytest.raises(PanelFormatError):
        read_without_warnings(path)


def test_blank_lines_ahead_of_the_rows_reach_numpy(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_bytes(b"subject,t,y\n\n\r\n1,0.5,1.0\n\n1,1.0,2.0\n")
    calls = spy_on_row_loop(monkeypatch)
    assert read_without_warnings(path).y.tolist() == [[1.0, 2.0]]
    assert calls == []


def test_row_loop_hands_its_array_to_the_panel(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(DIFFERENTIAL["quoted"].encode())  # read by the row loop
    y = read_panel_csv(path).y
    assert y.flags.owndata and y.flags.c_contiguous and not y.flags.writeable
    assert y.tolist() == [[1.0, 2.0]]


def gathered_first_mismatch(times, bounds):
    """The oracle: each subject's first n times gathered through an (N, n)
    index window, compared with the first subject's."""
    n = bounds[1]
    window = np.minimum(bounds[:-1, None] + np.arange(n), times.size - 1)
    bad = np.flatnonzero((np.diff(bounds) != n) | (times[window] != times[:n]).any(axis=1))
    return int(bad[0]) if bad.size else None


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    edits=st.lists(st.sampled_from(["same", "same", "shorter", "longer", "changed"]), max_size=8),
    at=st.integers(min_value=0, max_value=5),
)
def test_first_mismatch_matches_the_gathered_oracle(n, edits, at):
    first = np.arange(1.0, n + 1.0)
    blocks = [first]
    for edit in edits:
        block = first.copy()
        if edit == "shorter" and n > 1:
            block = block[:-1]
        elif edit == "longer" or edit == "shorter":
            block = np.append(block, n + 1.0)
        elif edit == "changed":
            block[at % n] += 0.25
        blocks.append(block)
    times = np.concatenate(blocks)
    bounds = np.cumsum([0] + [b.size for b in blocks])
    assert panel_io._first_mismatch(times, bounds) == gathered_first_mismatch(times, bounds)


def test_first_mismatch_compares_the_blocks_in_place():
    # the gathered oracle holds an int64 window and a float copy of every
    # block, about 2.1x the time column; the view needs a bool per time
    count, n = 256, 1024
    times = np.tile(np.arange(1.0, n + 1.0), count)
    bounds = np.arange(count + 1) * n
    tracemalloc.start()
    try:
        assert panel_io._first_mismatch(times, bounds) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * times.nbytes


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_a_pipe_is_read_by_the_row_loop(monkeypatch):
    # a handle that cannot seek back is never given to the numpy pass
    calls = spy_on_row_loop(monkeypatch)
    read, write = os.pipe()
    try:
        os.write(write, GOOD.encode())
        os.close(write)
        assert read_panel_csv(f"/dev/fd/{read}").y.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    finally:
        os.close(read)
    assert len(calls) == 1


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
