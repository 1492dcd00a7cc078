"""File formats: panel CSV, experiment config, 17-digit JSON.

Panel CSV contract: header ``subject,t,y``, rows sorted by
(subject, t), decimal points, UTF-8, LF line endings.  Every subject
must carry the identical time column, and every value must be finite.
Floats are written with ``repr`` (shortest round-trip form), so read ->
write reproduces a conforming file byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
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
        for i, row in enumerate(panel.y.tolist(), start=1):
            fh.write("".join([f"{i},{t},{y!r}\n" for t, y in zip(times, row)]))


def read_panel_csv(path) -> Panel:
    """Parse and validate a panel file.

    Raises ``PanelFormatError`` on non-UTF-8 or malformed CSV text, a bad
    header, unsorted rows, a non-finite value, or mismatched time columns.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
            for lineno, row in enumerate(reader, start=2):
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
    # every subject's block of rows must repeat the first: length and times
    times = np.array(ts)
    bounds = np.array([*starts.values(), times.size])
    n = bounds[1]
    window = np.minimum(bounds[:-1, None] + np.arange(n), times.size - 1)
    bad = np.flatnonzero((np.diff(bounds) != n) | (times[window] != times[:n]).any(axis=1))
    if bad.size:
        subjects = list(starts)
        raise PanelFormatError(
            f"subject {subjects[bad[0]]} has a different time column than subject {subjects[0]}"
        )
    return Panel(grid=SamplingGrid(times[:n]), y=np.array(ys).reshape(-1, n))


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
    with open(path, "r", encoding="utf-8") as fh:
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
