"""shemom benchmark: time to a cross-validated, correct moment.

Usage, from the repository root:

    python3 perfbench/run.py --workload xcheck-sweep --seed 1 --seconds 30 --trace 0

Workloads: xcheck-sweep, edge-mc, polymer-limit (see workloads.py).  The run
measures set-up time in fresh interpreters, warms up in process, then runs
whole rounds of the workload's fixed task list: at least one, and more while
the next is expected to end within --seconds.  Every task output is judged
against a reference (checks.py).  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it runs every task of one round both
untraced and traced and holds the per-layer metrics of layers.json.  Details,
with provenance and the raw times, go to perfbench/out/.

The end-to-end times are in reference-host seconds, because other tenants of
the host change its speed by up to a third from one run to the next: every
task time is scaled by the speed of the host measured around it with the
workload's host-speed kernel (hostspeed.py), and every set-up time by the
time of a fresh interpreter that imports only shemom's third-party modules,
launched just before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREAD_CAP = 1  # one process, one client, no pool: numbers measure the program, not the scheduler
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("xcheck-sweep", "edge-mc", "polymer-limit")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "pass_rate": "fraction",
    "informative_rate": "fraction",
    "mc_time_to_1pct_ref_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SNIPPET = "import sys; from shemom import cli; sys.exit(cli.main(['xcheck', '--k', '1', '--t', '1', '--output', sys.argv[1]]))"
SETUP_REFERENCE = "import numpy, scipy.integrate, scipy.linalg, scipy.special"
SETUP_REFERENCE_NOMINAL = 1.0  # about its median seconds on a 2-vCPU x86_64 VM; fixes the unit only


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads before numpy loads; the cap may not exceed the cores."""
    if THREAD_CAP > os.cpu_count():
        raise SystemExit(f"thread cap {THREAD_CAP} exceeds nproc {os.cpu_count()}")
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)


def measure_setup(tmp: Path) -> tuple[float, dict]:
    """Set-up time of a fresh interpreter importing shemom and making a first CLI call.

    Returns the median over repeats in reference-host seconds, and the raw
    times: each launch follows one of SETUP_REFERENCE and is scaled by
    SETUP_REFERENCE_NOMINAL over that one's time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch(*args) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", *args], env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    raw, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(launch(SETUP_REFERENCE))
        raw.append(launch(SETUP_SNIPPET, str(tmp / "setup.json")))
    scaled = statistics.median(t * SETUP_REFERENCE_NOMINAL / r for t, r in zip(raw, reference))
    return scaled, {"setup_raw_s": raw, "setup_reference_s": reference}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "shemom").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "processes": 1,
    }


def summarise(rounds, kernel) -> tuple[dict, dict]:
    """End-to-end metrics over all measured rounds, and the counts and raw times behind them."""
    tasks = [t for r in rounds for t in r.tasks]
    ests = [e for t in tasks for e in t.estimates]
    n_est = len(ests)
    uninformative = sum(t.uninformative_count() for t in tasks)
    failed = sum(t.failed for t in tasks)
    # time to 1% statistical precision: more replicas shrink the Monte Carlo error only
    mc_times = [e.seconds * (e.mc_se / abs(e.value) / 0.01) ** 2 for e in ests if e.mc_se > 0 and e.informative]
    wall_s = statistics.median(r.wall for r in rounds)
    mc_time_s = statistics.geometric_mean(mc_times) if mc_times else 0.0
    ref_walls = [kernel.reference_seconds([t.seconds for t in r.tasks], r.kernel_seconds) for r in rounds]
    slowdown = sum(r.wall for r in rounds) / sum(ref_walls)  # raw over reference-host seconds
    values = {
        "wall_ref_s": statistics.median(ref_walls),
        "pass_rate": 1.0 - failed / len(tasks),
        "informative_rate": 1.0 - uninformative / n_est if n_est else 0.0,
        "mc_time_to_1pct_ref_s": mc_time_s / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "wall_s": wall_s,
        "mc_time_to_1pct_s": mc_time_s,
        "host_kernel": kernel.name,
        "host_slowdown": slowdown,
        "kernel_seconds": [r.kernel_seconds for r in rounds],
        "rounds": len(rounds),
        "tasks": len(tasks),
        # not an end-to-end metric: with a few heterogeneous tasks a round, the
        # median falls between two task kinds and follows the noise of one task
        "task_p50_s": statistics.median(t.seconds for t in tasks),
        "failed_tasks": failed,
        "error_rate": failed / len(tasks),
        "estimates": n_est,
        "uninformative": uninformative,
        "uninformative_rate": uninformative / n_est if n_est else 0.0,
        "mc_estimates": len(mc_times),
    }
    return values, counts


def route_counts(rounds) -> dict:
    routes: dict = {}
    for r in rounds:
        for t in r.tasks:
            for e in t.estimates:
                informative, total = routes.get(e.route, (0, 0))
                routes[e.route] = (informative + e.informative, total + 1)
    return routes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shemom" / "__init__.py").is_file():
        print(f"error: no shemom sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    setup_s, setup_times = measure_setup(tmp)
    import hostspeed  # these import numpy and shemom only after the thread caps are set
    import workloads

    kernel = hostspeed.KERNELS[args.workload]

    layers = json.loads((BENCH / "layers.json").read_text())
    workloads.warm_up(tmp)
    details = {"provenance": provenance(args.seed), "args": vars(args), "setup": setup_times}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        plain, traced = workloads.run_traced_pair(args.workload, args.seed, 0, tmp, tracer, kernel=kernel)
        values, details["counts"] = summarise([plain], kernel)
        values["setup_s"] = setup_s
        metrics = tracer.metrics(traced.counters, route_counts([traced]), traced.wall - plain.wall, layers)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
        details["span_summary"] = tracer.summary()
        details["traced_counts"] = summarise([traced], kernel)[1]
        rounds = [traced]
    else:
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(workloads.run_round(args.workload, args.seed, len(rounds), tmp, kernel=kernel))
            if time.perf_counter() - start + statistics.median(r.wall for r in rounds) > args.seconds:
                break
        values, details["counts"] = summarise(rounds, kernel)
        values["setup_s"] = setup_s
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    tasks = [t for r in rounds for t in r.tasks]
    correct = all(t.expected for t in tasks)
    details["end_to_end"] = values
    details["metrics"] = metrics
    details["tasks"] = [t.record() for r in rounds for t in r.tasks]
    details["unexpected_failures"] = [t.name + ": " + t.failure for t in tasks if not t.expected]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))

    result = {
        "correct": correct,
        "attempted": len(tasks),
        "failed": sum(t.failed for t in tasks),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
