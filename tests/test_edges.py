"""Edge-value sweep of every numeric CLI input, and a malformed-file
sweep of every input file.

Each numeric flag of ``simulate``, ``hurst`` and ``effects``, and each
numeric key of an experiment config (with ``estimate_hurst = true``),
takes every value of EDGES with the other inputs valid.  The panel
file of ``hurst`` and ``effects`` and the config file of ``experiment``
take every damage of MALFORMED done to a valid file.  Every case must
end in a documented exit code; an exception out of ``main`` or a numpy
warning (an error under the suite's ``filterwarnings``) fails it.
"""

import contextlib
import io

import pytest

from fracmix.cli import main

EDGES = ["nan", "inf", "-inf", "-1", "0", "1e-310", "1e308", str(2**64)]
# replications = 2**64 is a valid run that never ends, so it is skipped;
# the other counts at 2**64 ask numpy for an array it refuses to size
SKIPPED = {("replications", str(2**64))}
EXIT_CODES = {0, 2, 3, 4, 5}

SIMULATE = {"--hurst": "0.5", "--subjects": "3", "--n-obs": "16", "--horizon": "1",
            "--mu": "-2", "--sigma2": "1", "--seed": "7"}
HURST = {"--subject": "1", "--k": "2"}
EFFECTS = {"--hurst": "0.5", "--level": "0.95"}
CONFIG = {"h_list": "0.5", "subjects_list": "3", "n_obs_list": "16", "horizon": "1",
          "mu0": "-2", "sigma20": "1", "replications": "1", "k": "2", "base_seed": "7"}
# damage -> the damaged bytes of a valid file
MALFORMED = {
    "0xff": lambda b: b[: len(b) // 2] + b"\xff" + b[len(b) // 2 :],
    "nul": lambda b: b[: len(b) // 2] + b"\x00" + b[len(b) // 2 :],
    "long-field": lambda b: b + b"3,1.0," + b"9" * 200_000 + b"\n",
    "open-quote": lambda b: b + b'3,"1.0,2.0\n',
    "bom": lambda b: b"\xef\xbb\xbf" + b,
    "crlf": lambda b: b.replace(b"\n", b"\r\n"),
    "header-only": lambda b: b[: b.index(b"\n") + 1],
    "empty": lambda b: b"",
}


def cases(names):
    return [
        (name, value)
        for name in names
        for value in EDGES
        if (name, value) not in SKIPPED
    ]


def run(argv):
    """The exit code of ``main``; argparse's usage errors arrive as
    SystemExit and give its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def flags(defaults, name, value):
    return [f"{k}={v}" for k, v in {**defaults, name: value}.items()]


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "panel.csv"
    assert run(["simulate", *flags(SIMULATE, "--seed", "7"), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("name,value", cases(SIMULATE))
def test_simulate_flag(tmp_path, name, value):
    code = run(["simulate", *flags(SIMULATE, name, value), "--out", str(tmp_path / "p.csv")])
    assert code in EXIT_CODES


@pytest.mark.parametrize("name,value", cases(HURST))
def test_hurst_flag(panel, name, value):
    assert run(["hurst", "--input", str(panel), *flags(HURST, name, value)]) in EXIT_CODES


@pytest.mark.parametrize("name,value", cases(EFFECTS))
def test_effects_flag(panel, name, value):
    assert run(["effects", "--input", str(panel), *flags(EFFECTS, name, value)]) in EXIT_CODES


@pytest.mark.parametrize("name,value", cases(CONFIG))
def test_config_key(tmp_path, name, value):
    path = tmp_path / "edge.cfg"
    keys = {**CONFIG, name: value, "estimate_hurst": "true"}
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    code = run(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code in EXIT_CODES


@pytest.mark.parametrize("damage", MALFORMED)
@pytest.mark.parametrize("command", ["hurst", "effects"])
def test_malformed_panel_file(panel, tmp_path, command, damage):
    path = tmp_path / "damaged.csv"
    path.write_bytes(MALFORMED[damage](panel.read_bytes()))
    defaults = HURST if command == "hurst" else EFFECTS
    argv = [command, "--input", str(path), *(f"{k}={v}" for k, v in defaults.items())]
    assert run(argv) in EXIT_CODES


@pytest.mark.parametrize("damage", ["0xff", "nul", "bom", "crlf"])
def test_malformed_config_file(tmp_path, damage):
    path = tmp_path / "damaged.cfg"
    keys = {**CONFIG, "estimate_hurst": "true"}
    path.write_bytes(MALFORMED[damage]("".join(f"{k} = {v}\n" for k, v in keys.items()).encode()))
    code = run(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code in EXIT_CODES
