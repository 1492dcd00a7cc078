"""Command-line interface.

Subcommands: ``simulate`` (write a panel CSV), ``hurst`` (estimate H
from one subject), ``effects`` (estimate mu/sigma2 at known H), and
``experiment`` (replicated grid study writing CSV tables, SVG
histograms and a manifest).

Results go to stdout (JSON) or to files; logs and progress go to
stderr.  Exit codes: 0 success, 2 flag/config/input validation, 3
simulation failure, 4 estimation or data-consistency failure, 5 output
location not writable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .checks import horizon_value, mean_value, seed_value, variance_value
from .effects import confidence_intervals, estimate_effects
from .errors import ConfigError, FracmixError, PanelFormatError
from .experiment import CellSummary, run_experiment, worker_threads
from .gram import HURST_MAX, HURST_MIN, SamplingGrid, build_gram
from .hurst import as_filter, estimate_h, k_value
from .panel import EffectsLaw, simulate_panel
from .panel_io import (
    dumps_result,
    format_real,
    load_experiment_config,
    read_panel_csv,
    write_panel_csv,
)
from .rng import RngStream
from .svg import write_histogram_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIMULATION = 3
EXIT_ESTIMATION = 4
EXIT_OUTPUT = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def cmd_simulate(args) -> int:
    if not 0.0 < args.hurst < 1.0:
        raise _CliError(EXIT_USAGE, f"--hurst must lie in (0, 1), got {args.hurst}")
    if args.subjects < 1:
        raise _CliError(EXIT_USAGE, f"--subjects must be >= 1, got {args.subjects}")
    if args.n_obs < 1:
        raise _CliError(EXIT_USAGE, f"--n-obs must be >= 1, got {args.n_obs}")
    try:
        horizon_value("--horizon", args.horizon)
        mean_value("--mu", args.mu)
        variance_value("--sigma2", args.sigma2)
        seed_value("--seed", args.seed)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None
    try:
        grid = SamplingGrid.uniform(args.n_obs, args.horizon)
        panel = simulate_panel(
            args.subjects,
            grid,
            args.hurst,
            EffectsLaw(args.mu, args.sigma2),
            RngStream(args.seed),
            noise="fast",
        )
    except FracmixError as exc:
        raise _CliError(EXIT_SIMULATION, f"simulation failed: {exc}") from None
    try:
        write_panel_csv(args.out, panel)
    except OSError as exc:
        raise _CliError(EXIT_OUTPUT, f"--out: cannot write {args.out}: {exc}") from None
    print(f"seed: {args.seed}", file=sys.stderr)
    print(f"grid: {' '.join(format_real(t) for t in grid.times)}", file=sys.stderr)
    return EXIT_OK


def cmd_hurst(args) -> int:
    try:
        filt = as_filter(args.filter)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--filter: {exc}") from None
    try:
        k_value(args.k)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--k: {exc}") from None
    panel = _read_panel(args.input)
    if not 1 <= args.subject <= panel.n_subjects:
        raise _CliError(
            EXIT_USAGE,
            f"--subject {args.subject} out of range; panel has {panel.n_subjects} subjects",
        )
    if not panel.grid.is_uniform:
        raise _CliError(EXIT_ESTIMATION, "hurst estimation needs a uniform time grid")
    try:
        est = estimate_h(panel.y[args.subject - 1], panel.grid.horizon, args.k, filt)
    except FracmixError as exc:
        raise _CliError(EXIT_ESTIMATION, f"estimation failed: {exc}") from None
    document = {
        "h_hat": est.h_hat,
        "asym_std": est.asym_std,
        "n": est.n,
        "k": est.k,
        "filter": est.filter,
        "filter_order": est.filter.order,
        "subject": args.subject,
    }
    sys.stdout.write(dumps_result(document))
    return EXIT_OK


def cmd_effects(args) -> int:
    if not 0.0 < args.level < 1.0:
        raise _CliError(EXIT_USAGE, f"--level must lie in (0, 1), got {args.level}")
    if not HURST_MIN <= args.hurst <= HURST_MAX:
        raise _CliError(
            EXIT_USAGE, f"--hurst must lie in [{HURST_MIN}, {HURST_MAX}], got {args.hurst}"
        )
    panel = _read_panel(args.input)
    if panel.n_subjects < 2:
        raise _CliError(EXIT_ESTIMATION, "effects estimation needs at least two subjects")
    try:
        gram = build_gram(panel.grid, args.hurst)
        est = estimate_effects(panel, gram)
        ci_mu, ci_sigma2 = confidence_intervals(est, args.level)
    except (FracmixError, ValueError) as exc:  # ValueError: sigma2_hat below -1/q
        raise _CliError(EXIT_ESTIMATION, f"estimation failed: {exc}") from None
    document = {
        "mu_hat": est.mu_hat,
        "sigma2_hat": est.sigma2_hat,
        "sigma2_hat_clamped": max(est.sigma2_hat, 0.0),
        "q": est.q,
        "beta_hat": est.beta_hat,
        "n_subjects": est.n_subjects,
        "n_obs": len(panel.grid),
        "hurst": args.hurst,
        "exact_std_basis": "plug-in",
        "exact_std_mu": est.exact_std_mu,
        "exact_std_sigma2": est.exact_std_sigma2,
        "level": args.level,
        "ci_mu": list(ci_mu),
        "ci_sigma2": list(ci_sigma2),
    }
    sys.stdout.write(dumps_result(document))
    return EXIT_OK


def _read_panel(path):
    try:
        return read_panel_csv(path)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"--input: cannot read {path}: {exc}") from None
    except PanelFormatError as exc:
        raise _CliError(EXIT_ESTIMATION, f"--input: {exc}") from None


def cmd_experiment(args) -> int:
    try:
        cfg = load_experiment_config(args.config)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"--config: cannot read {args.config}: {exc}") from None
    except ConfigError as exc:
        raise _CliError(EXIT_USAGE, f"--config: {exc}") from None
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise _CliError(EXIT_OUTPUT, f"--out: directory {out} not writable: {exc}") from None
    print(
        f"running {len(cfg.cells())} cells x {cfg.replications} replications "
        f"(base seed {cfg.base_seed})",
        file=sys.stderr,
    )
    summaries = run_experiment(cfg)
    for s in summaries:
        if s.hurst_refusals:
            print(
                f"cell (H={s.h!r}, N={s.n_subjects}, n={s.n_obs}): H estimate "
                f"refused in {s.hurst_refusals} of {cfg.replications} replications",
                file=sys.stderr,
            )
    import scipy  # for its version only, so a config or --out error loads none of it

    manifest = {
        "base_seed": cfg.base_seed,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "base_seed"},
        "versions": {"fracmix": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "threads": worker_threads(cfg),
    }
    if cfg.estimate_hurst:
        manifest["hurst_refusals"] = [
            {"H": s.h, "N": s.n_subjects, "n": s.n_obs, "refusals": s.hurst_refusals,
             "mean_h_hat": s.mean_h_hat, "emp_std_h": s.emp_std_h}
            for s in summaries
        ]
    try:
        _write_tables(out, cfg, summaries)
        _write_histograms(out, summaries)
        with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(dumps_result(manifest))
    except OSError as exc:
        raise _CliError(EXIT_OUTPUT, f"--out: cannot write to {out}: {exc}") from None
    print(f"wrote tables, histograms and manifest to {out}", file=sys.stderr)
    return EXIT_OK


# table column -> CellSummary field, for the columns after H and N
_TABLE_COLUMNS = {
    "mean_mu": "mean_mu_hat",
    "exact_std_mu": "exact_std_mu",
    "emp_std_mu": "emp_std_mu",
    "mean_sigma2": "mean_sigma2_hat",
    "exact_std_sigma2": "exact_std_sigma2",
    "emp_std_sigma2": "emp_std_sigma2",
}


def _write_tables(out, cfg, summaries: list[CellSummary]) -> None:
    for n_obs in cfg.n_obs_list:
        path = os.path.join(out, f"table_n{n_obs}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["H", "N", *_TABLE_COLUMNS]) + "\n")
            for s in summaries:
                if s.n_obs == n_obs:
                    reals = [format_real(getattr(s, name)) for name in _TABLE_COLUMNS.values()]
                    fh.write(",".join([repr(s.h), str(s.n_subjects), *reals]) + "\n")


_PARAM_LABELS = {"mu": "mu estimate", "sigma2": "sigma2 estimate", "hurst": "H estimate"}


def _write_histograms(out, summaries: list[CellSummary]) -> None:
    for s in summaries:
        for param, hist in s.histograms.items():
            name = f"hist_{s.h!r}_{s.n_subjects}_{s.n_obs}_{param}.svg"
            title = f"{_PARAM_LABELS[param]} (H={s.h!r}, N={s.n_subjects}, n={s.n_obs})"
            write_histogram_svg(
                os.path.join(out, name), hist.edges, hist.counts, title, _PARAM_LABELS[param]
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmix",
        description="Simulation and inference for fractional diffusion panels "
        "with Gaussian random drift effects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a panel and write it as CSV")
    p.add_argument("--hurst", type=float, required=True, help="Hurst exponent in (0, 1)")
    p.add_argument("--subjects", type=int, required=True, help="number of subjects N")
    p.add_argument("--n-obs", type=int, required=True, help="observations per subject n")
    p.add_argument("--horizon", type=float, required=True, help="time horizon T")
    p.add_argument("--mu", type=float, required=True, help="mean of the random drift rate")
    p.add_argument("--sigma2", type=float, required=True, help="variance of the random drift rate")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hurst", help="estimate the Hurst exponent from one subject")
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--subject", type=int, default=1, help="1-based subject index (default 1)")
    p.add_argument("--k", type=float, default=2.0, help="variation power (default 2)")
    p.add_argument(
        "--filter",
        default="diff2",
        help="named filter (diff2, diff3) or comma-separated coefficients",
    )
    p.set_defaults(func=cmd_hurst)

    p = sub.add_parser("effects", help="estimate the random-effect mean and variance")
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--hurst", type=float, required=True, help="known Hurst exponent")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("experiment", help="run a replicated experiment grid")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FracmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


def entry() -> None:
    sys.exit(main())
