"""fracmix benchmark: one workload per invocation.

    python3 bench/run.py --workload grid_exact --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is this file's parent directory
and the program is imported from its ``src/`` tree, never from an
installed copy.  BLAS is pinned to one thread through this process's own
environment, so the numbers are the single-threaded baseline.

A run sets up the workload from ``--seed``, makes one untimed warm-up
pass, then repeats passes for ``--seconds`` seconds.  Every pass's
outputs are checked.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.  Standard output
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The line before it holds the
environment, the warm-up pass's wall time, every pass's wall time and,
per metric, the median, quartiles and sample count.
The same document goes to ``.bench_out/``, and a traced run also
writes its spans there.  ``--smoke`` shrinks every workload to a few
seconds, for the benchmark's own tests.
"""

import os

# Pinned before numpy loads OpenBLAS, which reads these once.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # fresh interpreters per run; their median is setup_s
IMPORT_CMD = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import fracmix"]

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "xi_rel_err": "ratio",
}
COMPUTED_MB = {"gram.resident_mb", "fbm.exact_mb", "effects.xi_mb"}


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "gflop-computed"
    if name.endswith("_mb"):
        return "MB-computed" if name in COMPUTED_MB else "MB"
    return "count"


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import fracmix (numpy and scipy
    with it), as every CLI call pays it.  A first, discarded import
    compiles bytecode on a fresh checkout."""
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(IMPORT_CMD, cwd=ROOT, check=True, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_runtime() -> dict:
    """Config string and live thread count of every loaded OpenBLAS."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get is not None and conf is not None:
                get.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
                found[os.path.basename(path)] = {"config": conf().decode().strip(), "threads": get()}
                break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        numpy_blas = deps.get("blas", {}).get("openblas configuration") or deps.get("blas", {}).get("name")
    except TypeError:  # numpy < 1.26 only prints its configuration
        numpy_blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy_blas,
        "blas_runtime": blas_runtime(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_pass(workload, step, tracer=None):
    """Time one pass, then check its outputs outside the timed region."""
    from workloads import Outcome

    if tracer is not None:
        tracer.reset()
        missing = tracer.install()
        if missing:
            print(f"warning: trace targets not found: {missing}", file=sys.stderr)
    t0 = time.perf_counter()
    try:
        outcome = step()
    except Exception as exc:  # the pass aborts: every operation counts as failed
        outcome = Outcome(workload.operations, failed=workload.operations, problems=(repr(exc),))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    problems = list(outcome.problems) if outcome.failed else workload.check()
    return wall, outcome, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "fracmix" / "__init__.py").is_file():
        print(f"error: no fracmix source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracmix

    if Path(fracmix.__file__).resolve().parent != (SRC / "fracmix").resolve():
        print(f"error: imported fracmix from {fracmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, pass_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print(f"error: --seed must lie in [0, 2**63), got {args.seed}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup = [] if args.trace else measure_setup(1 if args.smoke else SETUP_SAMPLES)
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        warm_up_s, outcome, problems = run_pass(workload, workload.warm_up)
        warm_failed = outcome.failed
        tracer = Tracer() if args.trace else None
        walls = {False: [], True: []}  # keyed by "traced"
        layers, spans_out = [], []
        attempted = failed = refused = 0
        start = time.perf_counter()
        traced = False
        while not walls[bool(args.trace)] or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace and walls[False]) and not traced
            wall, outcome, more = run_pass(workload, workload.run, tracer if traced else None)
            walls[traced].append(wall)
            problems += more
            attempted += outcome.attempted
            failed += outcome.failed
            refused += outcome.refused
            if traced:
                layers.append(pass_metrics(tracer.spans, tracer.counters, wall))
                spans_out.append([list(s) for s in tracer.spans])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        samples = {name: [m[name] for m in layers] for name in layers[0]}
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        samples["trace.overhead"] = [overhead]
        units = {name: layer_unit(name) for name in samples}
        expected = definition["per_layer"]
    else:
        samples = {
            "setup_s": setup,
            "wall_s": walls[False],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6],
            "ok_frac": [(attempted - failed - refused) / attempted],
            "xi_rel_err": [workload.xi_rel_err],
        }
        units = E2E_UNITS
        expected = definition["end_to_end"]
    summary = {name: quartiles(values) for name, values in samples.items()}
    metrics = {name: {"value": summary[name]["median"], "unit": units[name]} for name in samples}

    declared = {m["name"]: m["unit"] for m in expected}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if declared != emitted:
        print(f"error: metrics {emitted} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 1

    correct = not problems and not failed and not warm_failed
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "warm_up_s": warm_up_s,
        "pass_walls": {"untraced": walls[False], "traced": walls[True]},
        "refused": refused,
        "summary": summary,
    }
    name = f"{args.workload}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(OUT / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    if args.trace:
        with open(OUT / f"spans-{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "passes": spans_out}, fh)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
