"""The shipped study's outputs, pinned.

``tests/reference/`` holds one ``key value`` line per output value, each
value the text the CLI wrote (reals at 17 significant digits), of:

- ``study_exact.txt`` and ``study_fast.txt``: the three tables and the
  manifest's ``hurst_refusals`` block of ``fracmix experiment`` on the
  axes of ``scripts/full_grid.cfg``, at R = 40 with ``estimate_hurst =
  true``, once per sampler;
- ``panel.txt``: the ``fracmix hurst`` (k = 2 with diff2, and k = 4 with
  diff3) and ``fracmix effects`` JSON of one ``fracmix simulate`` panel.

The test regenerates them in-process through ``fracmix.cli.main`` and
compares keys, integers, strings and nulls exactly and reals within 1e-9
relative.  That tolerance passes other BLAS kernels and Python 3.12's
compensated ``sum``, and fails a change to the stream layout, the draw
order or a sampler's arithmetic, which moves values by Monte Carlo noise
(about 1e-2 at R = 40).  The SVG histograms are left out: a sample within
rounding of a bin edge may change bins with no real move.

Re-pin with ``PYTHONPATH=src python tests/test_reference.py``: it
rewrites the files through the generator the test uses and prints the
largest relative move per column.  Re-pin only for an intended output
move, and list each re-pin in CHANGES.md with those moves and the reason.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from fracmix.cli import main

REFERENCE = Path(__file__).parent / "reference"
SHIPPED_CONFIG = Path(__file__).parent.parent / "scripts" / "full_grid.cfg"
OUTPUTS = ("study_exact", "study_fast", "panel")
REL_TOL = 1e-9

_STUDY_KEYS = {"replications": "40", "estimate_hurst": "true"}
_INTEGER = re.compile(r"-?\d+")


class _Number(str):
    """A JSON number token, kept as the text the CLI wrote."""


def _run(*args) -> str:
    """stdout of one in-process CLI call, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in args])
    assert code == 0, f"fracmix {' '.join(map(str, args))} exited {code}"
    return out.getvalue()


def _flatten(value, key: str, leaves: dict) -> None:
    """Each leaf of a JSON value as one token: a number's own text, or the
    JSON text of a string, bool or null."""
    if isinstance(value, dict):
        for name, item in value.items():
            _flatten(item, f"{key}.{name}", leaves)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{key}[{i}]", leaves)
    else:
        leaves[key] = str(value) if isinstance(value, _Number) else json.dumps(value)


def _json(text: str):
    return json.loads(text, parse_float=_Number, parse_int=_Number)


def _study(sampler: str, workdir: Path) -> dict:
    lines = [
        line
        for line in SHIPPED_CONFIG.read_text(encoding="utf-8").splitlines()
        if line.partition("=")[0].strip() not in _STUDY_KEYS
    ]
    lines += [f"{key} = {value}" for key, value in _STUDY_KEYS.items()]
    config = workdir / "study.cfg"
    config.write_text("\n".join([*lines, f"sampler = {sampler}", ""]), encoding="utf-8")
    out = workdir / sampler
    _run("experiment", "--config", config, "--out", out)
    leaves = {}
    for table in sorted(out.glob("table_n*.csv"), key=lambda p: int(p.stem[len("table_n") :])):
        header, *rows = table.read_text(encoding="utf-8").splitlines()
        for i, row in enumerate(rows):
            for name, token in zip(header.split(","), row.split(","), strict=True):
                leaves[f"{table.name}[{i}].{name}"] = token
    manifest = _json((out / "manifest.json").read_text(encoding="utf-8"))
    _flatten(manifest["hurst_refusals"], "hurst_refusals", leaves)
    return leaves


def _panel(workdir: Path) -> dict:
    panel = workdir / "panel.csv"
    _run(
        "simulate", "--hurst", 0.7, "--subjects", 20, "--n-obs", 256, "--horizon", 5,
        "--mu", -2, "--sigma2", 1, "--seed", 20260810, "--out", panel,
    )  # fmt: skip
    leaves = {}
    for key, args in (
        ("hurst_k2_diff2", ("hurst", "--input", panel)),
        ("hurst_k4_diff3", ("hurst", "--input", panel, "--k", 4, "--filter", "diff3")),
        ("effects", ("effects", "--input", panel, "--hurst", 0.7)),
    ):
        _flatten(_json(_run(*args)), key, leaves)
    return leaves


def outputs(name: str, workdir: Path) -> dict:
    """The flattened outputs a reference file pins, generated in workdir."""
    return _panel(workdir) if name == "panel" else _study(name.removeprefix("study_"), workdir)


def pinned(name: str) -> dict:
    lines = (REFERENCE / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines if not line.startswith("#"))


def relative_move(want: str, got: str) -> float:
    """0 for the same token; |got - want| / |want| for two reals; inf for a
    move of an integer, string or null, or of a real to or from zero."""
    if want == got:
        return 0.0
    if _INTEGER.fullmatch(want) and _INTEGER.fullmatch(got):
        return math.inf
    try:
        w, g = float(want), float(got)
    except ValueError:  # null, a string or a bool
        return math.inf
    return abs(g - w) / abs(w) if w and math.isfinite(w) else math.inf


def test_relative_move_compares_integers_and_text_exactly():
    assert relative_move("50", "50") == 0.0
    assert relative_move("50", "51") == math.inf
    assert relative_move("2", "2.0000000000000004") == pytest.approx(2.2e-16, rel=0.01)
    assert relative_move("0.25", "0.25000000000000006") < REL_TOL
    assert relative_move("0.25", "0.2501") > REL_TOL
    assert relative_move("null", "0.5") == relative_move('"diff2"', '"diff3"') == math.inf


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs_match_the_pinned_reference(name, tmp_path):
    want = pinned(name)
    got = outputs(name, tmp_path)
    assert sorted(got) == sorted(want)
    moved = [f"{k} {want[k]} -> {got[k]}" for k in want if relative_move(want[k], got[k]) > REL_TOL]
    assert not moved, f"{len(moved)} of {len(want)} values moved past {REL_TOL:g}: {moved[:5]}"


if __name__ == "__main__":
    import tempfile

    REFERENCE.mkdir(exist_ok=True)
    for name in OUTPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            leaves = outputs(name, Path(tmp))
        old = pinned(name) if (REFERENCE / f"{name}.txt").exists() else {}
        moves = {}
        for key, token in leaves.items():
            column = re.sub(r"\[\d+\]", "[]", key)
            move = relative_move(old[key], token) if key in old else 0.0
            moves[column] = max(moves.get(column, 0.0), move)
        text = "".join(f"{key} {token}\n" for key, token in leaves.items())
        header = "# written by tests/test_reference.py; re-pin only for an intended move\n"
        (REFERENCE / f"{name}.txt").write_text(header + text, encoding="utf-8")
        new, dropped = len(leaves.keys() - old.keys()), len(old.keys() - leaves.keys())
        print(f"{name}: {len(leaves)} values, {new} keys new, {dropped} dropped")
        for column, move in moves.items():
            if move:
                print(f"  {column}: largest relative move {move:.3g}")
