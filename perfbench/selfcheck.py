"""The benchmark's own check, at smoke size.  Run from the repository root:

    python3 perfbench/selfcheck.py

For each workload it runs one smoke-size round and confirms that
* every end-to-end metric of BENCHMARK.json is emitted with its unit, and
  every per-layer metric of layers.json comes out of a traced round;
* BENCHMARK.json and layers.json name the same per-layer metrics and units;
* every task passes or fails exactly as a recorded defect says;
* with every reference doubled, judged estimates miss and the run is no
  longer correct, so the correctness check is known to bite.
It takes about half a minute and exits non-zero on the first broken promise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

PERTURB = 2.0


def fail(msg: str) -> None:
    raise SystemExit(f"selfcheck: {msg}")


def main() -> None:
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    import hostspeed
    import tracing
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.BENCH / "layers.json").read_text())
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != run.END_TO_END_UNITS:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != {k: v["unit"] for k, v in layers.items()}:
        fail("BENCHMARK.json per_layer differs from layers.json")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        fail("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for name, spec in layers.items():
        if set(spec["on"]) & set(spec["no_change_on"]) or set(spec["on"]) | set(spec["no_change_on"]) != set(
            run.WORKLOAD_NAMES
        ):
            fail(f"{name}: 'on' and 'no_change_on' must split the workloads")

    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmpdir:
        tmp = Path(tmpdir)
        for workload in run.WORKLOAD_NAMES:
            tracer = tracing.Tracer()
            kernel = hostspeed.KERNELS[workload]
            plain, traced = workloads.run_traced_pair(workload, 1, 0, tmp, tracer, smoke=True, kernel=kernel)
            values, _ = run.summarise([plain], kernel)
            values["setup_s"] = 1.0
            if set(values) != set(run.END_TO_END_UNITS):
                fail(f"{workload}: end-to-end metrics {sorted(values)}")
            unexpected = [t.name + ": " + t.failure for r in (plain, traced) for t in r.tasks if not t.expected]
            if unexpected:
                fail(f"{workload}: unexpected failures {unexpected}")
            metrics = tracer.metrics(traced.counters, run.route_counts([traced]), traced.wall - plain.wall, layers)
            if {k: v["unit"] for k, v in metrics.items()} != {k: v["unit"] for k, v in layers.items()}:
                fail(f"{workload}: traced metrics differ from layers.json")

            bad = workloads.run_round(workload, 1, 0, tmp, smoke=True, perturb=PERTURB)
            judged = [e for t in bad.tasks for e in t.estimates if e.judged]
            missed = sum(e.miss for e in judged)
            if not missed or all(t.expected for t in bad.tasks):
                fail(f"{workload}: references scaled by {PERTURB} were not flagged")
            print(f"{workload}: ok, {len(plain.tasks)} tasks; references x{PERTURB}: {missed}/{len(judged)} flagged")


if __name__ == "__main__":
    main()
