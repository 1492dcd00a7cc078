"""File formats: panel CSV, experiment config, 17-digit JSON.

Panel CSV contract: header ``subject,t,y``, rows sorted by
(subject, t), decimal points, UTF-8 (BOM optional), LF line endings.
Every subject must carry the identical time column, and every value
must be finite.  Floats are written with ``repr`` (shortest round-trip
form), one row of the panel at a time, so read -> write reproduces a
conforming file byte for byte and writing holds one row as Python
floats, not the whole panel.

A panel file is read in one of two ways.  A seekable file whose first
line is exactly the header (LF or CRLF), whose other lines are blank or
three unquoted fields (an id that fits an int64, two finite floats) no
longer than the csv field limit, and whose rows pass the order and
time-column checks, is read in one ``np.loadtxt`` pass; every file
``write_panel_csv`` writes is such a file.  Every other file is read by
the csv row loop, which alone defines a valid file: it takes quoted
fields, ids of any size and lone-CR line endings, and words every
message.  The numpy pass never raises a format error of its own; it
returns the values the loop returns for the same file, parsed by the
same CPython float parser.  The row loop fills a read-only (N, n) array
of its own, which ``Panel`` adopts without a copy.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math

import numpy as np

from .errors import ConfigError, PanelFormatError
from .experiment import ExperimentConfig
from .gram import SamplingGrid
from .hurst import as_filter
from .panel import Panel

PANEL_HEADER = ["subject", "t", "y"]


def write_panel_csv(path, panel: Panel) -> None:
    # no field needs quoting: the values are integers and finite reprs
    times = [repr(float(t)) for t in panel.grid.times]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(PANEL_HEADER) + "\n")
        for i, row in enumerate(panel.y, start=1):  # one row of Python floats at a time
            fh.write("".join([f"{i},{t},{y!r}\n" for t, y in zip(times, row.tolist())]))


def read_panel_csv(path) -> Panel:
    """Parse and validate a panel file.

    Raises ``PanelFormatError`` on non-UTF-8 or malformed CSV text, a bad
    header, unsorted rows, a non-finite value, or mismatched time columns.
    A seekable file is first read in one numpy pass (``_numpy_rows``); a
    file that pass does not take is read again from its start by the row
    loop below, which alone defines a valid file and words every message.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = _numpy_rows(fh) if fh.seekable() else None
        if rows is not None:
            times, y, n = rows
            return Panel(grid=SamplingGrid(times[:n]), y=y.reshape(-1, n))
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PanelFormatError("empty panel file")
            if header != PANEL_HEADER:
                raise PanelFormatError(f"expected header {','.join(PANEL_HEADER)!r}, got {header}")
            starts: dict[int, int] = {}  # subject -> index of its first row
            ts, ys = [], []  # every row's t and y
            last = -math.inf  # the previous row's subject; every int is above -inf
            for row in reader:
                lineno = reader.line_num  # physical: a quoted field may hold a newline
                if not row:
                    continue
                if len(row) != 3:
                    raise PanelFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
                try:
                    subject, t, y = int(row[0]), float(row[1]), float(row[2])
                except ValueError as exc:
                    raise PanelFormatError(f"line {lineno}: {exc}") from None
                if not (math.isfinite(t) and math.isfinite(y)):
                    raise PanelFormatError(f"line {lineno}: non-finite value in {','.join(row)!r}")
                if subject != last:
                    if subject < last:
                        raise PanelFormatError(f"line {lineno}: rows not sorted by subject")
                    starts[subject] = len(ts)
                    last = subject
                elif t <= ts[-1]:
                    raise PanelFormatError(
                        f"line {lineno}: times not strictly increasing within subject {subject}"
                    )
                ts.append(t)
                ys.append(y)
        except UnicodeDecodeError as exc:
            raise PanelFormatError(f"not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise PanelFormatError(f"line {reader.line_num}: {exc}") from None
    if not ts:
        raise PanelFormatError("panel file has no data rows")
    times = np.array(ts)
    bounds = np.array([*starts.values(), times.size])
    bad = _first_mismatch(times, bounds)
    if bad is not None:
        subjects = list(starts)
        raise PanelFormatError(
            f"subject {subjects[bad]} has a different time column than subject {subjects[0]}"
        )
    n = bounds[1]
    y = np.empty((len(ys) // n, n))
    y.reshape(-1)[:] = ys  # filled in place: Panel adopts y without a copy
    y.flags.writeable = False
    return Panel(grid=SamplingGrid(times[:n]), y=y)


# a row of the numpy pass: ids that do not fit an int64 make it fail
_ROW = np.dtype([("subject", np.int64), ("t", float), ("y", float)])
_HEADER_LINES = (",".join(PANEL_HEADER) + "\n", ",".join(PANEL_HEADER) + "\r\n")


def _numpy_rows(fh) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Every row's t and y, and the length n of a subject's time column,
    of a plain file in one ``np.loadtxt`` pass over the rest of fh; or
    None, with fh back at its start, for the row loop to read.

    Plain: the first line is exactly the header; every later line is
    blank or three unquoted fields, an int64 id and two finite floats,
    and no line is longer than the csv field limit; the rows pass the
    row loop's order and time-column checks.  Anything else (a decode
    error, a field numpy cannot parse, no rows, a failed check) gives
    None, so that file goes to the row loop, errors and all.  A body of
    blank lines only is refused before ``np.loadtxt`` sees it, as numpy
    warns on input with no rows; at numpy >= 2.0 every other refusal is
    an exception, so the pass sets no warning filter.  Both parse a float
    with CPython's ``PyOS_string_to_double``, so every value taken here is
    the one the loop would return.
    """
    limit = csv.field_size_limit()

    def lines():
        for line in fh:
            if len(line) > limit:  # it may hold a field the loop refuses
                raise ValueError("line longer than the csv field limit")
            yield line

    rows = None
    try:
        if fh.readline() in _HEADER_LINES:
            body, peeked = lines(), []
            for line in body:
                peeked.append(line)
                if not line.isspace():  # a row or a fault, so numpy cannot warn of no data
                    rows = np.loadtxt(
                        itertools.chain(peeked, body),
                        delimiter=",",
                        dtype=_ROW,
                        comments=None,
                        quotechar=None,
                        ndmin=1,
                    )
                    break
    except ValueError:  # a UnicodeDecodeError is a ValueError
        pass
    if rows is not None and rows.size:
        subject, times, y = rows["subject"], rows["t"], rows["y"]
        new = subject[1:] != subject[:-1]
        if (
            np.isfinite(times).all()
            and np.isfinite(y).all()
            and (subject[1:] >= subject[:-1]).all()
            and (new | (times[1:] > times[:-1])).all()
        ):
            bounds = np.flatnonzero(np.concatenate([[True], new, [True]]))
            if _first_mismatch(times, bounds) is None:
                return times, y, int(bounds[1])
    fh.seek(0)
    return None


def _first_mismatch(times: np.ndarray, bounds: np.ndarray) -> int | None:
    """The index of the first subject whose block of rows does not repeat
    the first subject's times, length included, or None.  ``bounds``
    holds each block's first row, then the row count.  The blocks ahead of
    the first one of another length are compared as rows of a view."""
    n, count = bounds[1], bounds.size - 1
    uneven = np.flatnonzero(np.diff(bounds) != n)
    m = int(uneven[0]) if uneven.size else count  # blocks 0..m-1 start at i*n
    bad = np.flatnonzero((times[: m * n].reshape(m, n) != times[:n]).any(axis=1))
    return int(bad[0]) if bad.size else (m if m < count else None)


def format_real(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def dumps_result(document: dict) -> str:
    """Serialize a result document, two spaces per nesting level, all
    reals at 17 significant digits; a non-finite real becomes ``null``,
    as JSON has no NaN or infinity."""

    def render(obj, depth):
        if isinstance(obj, (np.ndarray, np.generic)):
            obj = obj.tolist()  # numpy scalars and arrays as Python values
        if isinstance(obj, (bool, int, str)) or obj is None:
            return json.dumps(obj)
        if isinstance(obj, (float, np.floating)):
            return format_real(obj) if math.isfinite(obj) else "null"
        if isinstance(obj, dict):
            brackets = "{}"
            keyed = {str(k): v for k, v in obj.items()}  # keys of equal text merge
            items = [f"{json.dumps(k)}: {render(v, depth + 1)}" for k, v in keyed.items()]
        elif isinstance(obj, (list, tuple)):
            brackets = "[]"
            items = [render(v, depth + 1) for v in obj]
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")
        if not items:
            return brackets
        pad = "  " * depth
        body = ",\n".join(f"{pad}  {item}" for item in items)
        return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}"

    return render(document, 0) + "\n"


# ---------------------------------------------------------------------------
# experiment config files: flat "key = value" lines, # comments,
# comma-separated lists

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _bool(text: str) -> bool:
    v = text.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


# ExperimentConfig field -> parser, in manifest order; an omitted key takes its default
CONFIG_KEYS = {
    "h_list": _floats,
    "subjects_list": _ints,
    "n_obs_list": _ints,
    "horizon": float,
    "mu0": float,
    "sigma20": float,
    "replications": int,
    "k": float,
    "filter": as_filter,
    "base_seed": int,
    "estimate_hurst": _bool,
    "sampler": str,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings with line-numbered errors."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a config file into an ExperimentConfig."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: {exc}") from None
    values = parse_config_text(text)
    for key in values:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: {sorted(CONFIG_KEYS)}")
    for f in dataclasses.fields(ExperimentConfig):  # required: no default of either kind
        if f.name not in values and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {f.name!r}")
    fields = {}
    for key, parse in CONFIG_KEYS.items():
        if key in values:
            try:
                fields[key] = parse(values[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
