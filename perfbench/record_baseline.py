"""Record a trajectory point: one traced run per workload, written to perfbench/baseline.json.

Run from the repository root:  python3 perfbench/record_baseline.py [--seed N]
Each workload runs once with --trace 1, which measures an untraced round (the
end-to-end metrics) and a traced round (the per-layer metrics and the
tracing overhead).  The point also re-measures the ROADMAP baseline targets
and counts the recorded defects as they occurred.  It takes about three
minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter

import run

# ROADMAP baseline target -> (per-layer metric, scale to the target's size, ROADMAP value)
TARGETS = {
    "one edge replica at n=800 (ms)": ("airy_sampler.sample_airy_points.replica_ms.n800", 1.0, 7.5),
    "moment_partition at k=4 (s)": ("she_moments.moment_partition.k4_s", 1.0, 0.8),
    "moment_partition at k=8 (s)": ("she_moments.moment_partition.k8_s", 1.0, 7.6),
    "moment_contour tensor at k=3 (s)": ("she_moments.moment_contour.k3_s", 1.0, 1.0),
    "moment_from_airy at k=4 (s)": ("airy.moment_from_airy.k4_s", 1.0, 1.6),
    "tracy_widom_mean_var (s)": ("airy.tracy_widom_mean_var.s", 1.0, 4.1),
    # time per replica of the workload's runs, times 1e5 replicas (computed)
    "simulate_polymer N=3, 500 steps, 100k replicas (s)": ("polymer.simulate_polymer.n3_replica_us", 0.1, 6.3),
}


def defects(tasks: list) -> dict:
    failures = Counter(t["failure"] for t in tasks if t["failure"])
    reasons = Counter(
        f"{e['route']}: {e['reason']}" for t in tasks for e in t["estimates"] if not e["informative"]
    )
    single = [t["name"] for t in tasks if t["uninformative_note"]]
    return {"task_failures": dict(failures), "uninformative_estimates": dict(reasons), "not_cross_validated": single}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    point = {}
    for workload in run.WORKLOAD_NAMES:
        cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", "1", "--trace", "1"]
        result = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()[-1])
        details = json.loads((run.OUT / f"{workload}-seed{args.seed}-trace1.json").read_text())
        point[workload] = {
            "provenance": details["provenance"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": details["end_to_end"],
            "counts": details["counts"],
            "per_layer": {name: m["value"] for name, m in details["metrics"].items()},
            "defects_counted": defects(details["tasks"]),
        }
        print(workload, "done", flush=True)
    per_layer = {}
    for workload in run.WORKLOAD_NAMES:
        for name, value in point[workload]["per_layer"].items():
            per_layer.setdefault(name, {})[workload] = value
    targets = {
        label: {
            "measured": max(per_layer[metric].values()) * scale,
            "from": metric + (f" x {scale:g} (computed)" if scale != 1.0 else ""),
            "roadmap": roadmap,
        }
        for label, (metric, scale, roadmap) in TARGETS.items()
    }
    record = {
        "generated_by": "python3 perfbench/record_baseline.py --seed %d" % args.seed,
        "trajectory": [{"point": 0, "label": "baseline, before any optimisation", "workloads": point,
                        "roadmap_targets": targets}],
    }
    (run.BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    print("wrote", run.BENCH / "baseline.json")


if __name__ == "__main__":
    main()
