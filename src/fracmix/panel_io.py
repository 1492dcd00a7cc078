"""File formats: panel CSV, experiment config, 17-digit JSON.

Panel CSV contract: header ``subject,t,y``, rows sorted by
(subject, t), decimal points, UTF-8, LF line endings.  Every subject
must carry the identical time column, and every value must be finite.
Floats are written with ``repr`` (shortest round-trip form), so read ->
write reproduces a conforming file byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Any

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

    Raises ``PanelFormatError`` on a bad header, unsorted rows, a
    non-finite value, or subjects whose time columns disagree.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError("empty panel file") from None
        if header != PANEL_HEADER:
            raise PanelFormatError(f"expected header {','.join(PANEL_HEADER)!r}, got {header}")
        by_subject: dict[int, list[tuple[float, float]]] = {}
        order: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise PanelFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                subject = int(row[0])
                t = float(row[1])
                y = float(row[2])
            except ValueError as exc:
                raise PanelFormatError(f"line {lineno}: {exc}") from None
            if not (math.isfinite(t) and math.isfinite(y)):
                raise PanelFormatError(f"line {lineno}: non-finite value in {','.join(row)!r}")
            if subject not in by_subject:
                if order and subject < order[-1]:
                    raise PanelFormatError(f"line {lineno}: rows not sorted by subject")
                by_subject[subject] = []
                order.append(subject)
            elif subject != order[-1]:
                raise PanelFormatError(f"line {lineno}: rows not sorted by subject")
            rows = by_subject[subject]
            if rows and t <= rows[-1][0]:
                raise PanelFormatError(
                    f"line {lineno}: times not strictly increasing within subject {subject}"
                )
            rows.append((t, y))
    if not by_subject:
        raise PanelFormatError("panel file has no data rows")
    first = order[0]
    times = np.array([t for t, _ in by_subject[first]])
    y = np.empty((len(order), times.size))
    for i, subject in enumerate(order):
        rows = by_subject[subject]
        if len(rows) != times.size or any(t != times[j] for j, (t, _) in enumerate(rows)):
            raise PanelFormatError(
                f"subject {subject} has a different time column than subject {first}"
            )
        y[i] = [v for _, v in rows]
    return Panel(grid=SamplingGrid(times), y=y)


def format_real(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def _json_encode(obj: Any) -> Any:
    """Recursively rewrite floats as markers carrying 17-digit text."""
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return _RawReal(format_real(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_encode(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _json_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_encode(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


class _RawReal:
    def __init__(self, text: str):
        self.text = text


def dumps_result(document: dict, indent: int = 2) -> str:
    """Serialize a result document, all reals at 17 significant digits."""
    encoded = _json_encode(document)

    def render(obj, depth):
        pad = " " * (indent * depth)
        inner = " " * (indent * (depth + 1))
        if isinstance(obj, _RawReal):
            return obj.text
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, str)):
            return json.dumps(obj)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = [f"{inner}{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in obj.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(obj, list):
            if not obj:
                return "[]"
            items = [f"{inner}{render(v, depth + 1)}" for v in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot render {type(obj)!r}")

    return render(encoded, 0) + "\n"


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


# ExperimentConfig field -> (parser, default text); None marks a required key
_KEYS = {
    "h_list": (_floats, None),
    "subjects_list": (_ints, None),
    "n_obs_list": (_ints, None),
    "horizon": (float, None),
    "mu0": (float, None),
    "sigma20": (float, None),
    "replications": (int, None),
    "k": (float, "2.0"),
    "filter": (as_filter, "diff2"),
    "base_seed": (int, "0"),
    "estimate_hurst": (_bool, "false"),
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
        values = parse_config_text(fh.read())
    for key in values:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: {sorted(_KEYS)}")
    for key, (_, default) in _KEYS.items():
        if key not in values and default is None:
            raise ConfigError(f"missing required config key {key!r}")
    fields = {}
    for key, (parse, default) in _KEYS.items():
        try:
            fields[key] = parse(values.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
