"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, without timing anything:
  - tabulated-models inputs: each tabulated index's probabilities sum to
    1 within dnstat's PROB_TOL, the limit marginal is the same at every
    index, the weight tables cover y(horizon), reference.json holds the
    hash of every pool member, the same seed gives identical inputs and
    another seed different ones;
  - BENCHMARK.json names exactly the metrics run.py reports;
  - per workload, two traced operations with the same seed: outputs
    match the reference, every expected span fires, and every count
    metric repeats exactly.
It prints each workload's layer shares of the traced wall time.  Exits 1
if a check fails.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from dnstat.rvmodel import PROB_TOL  # noqa: E402
from dnstat.schedules import schedule_preset  # noqa: E402


def check_inputs(reference: dict) -> list[str]:
    problems = []
    y_max = schedule_preset(workloads.TAB_SCHEDULE).bounds(workloads.TAB_HORIZON)[1]
    pool_ref = reference["tabulated-models"]["pool"]
    for index in range(workloads.POOL_SIZE):
        spec = workloads.pool_member(index)
        problems += [f"pool {index}: {p}" for p in workloads.check_member(spec, PROB_TOL, y_max)]
        if pool_ref.get(str(index), {}).get("sha256") != workloads.spec_hash(spec):
            problems.append(f"pool {index}: reference.json has another input hash")
    first = workloads.make_job("tabulated-models", 1)
    again = workloads.make_job("tabulated-models", 1)
    other = workloads.make_job("tabulated-models", 2)
    if workloads.spec_hash(first) != workloads.spec_hash(again):
        problems.append("seed 1 gave different inputs twice")
    if workloads.spec_hash(first) == workloads.spec_hash(other):
        problems.append("seeds 1 and 2 gave identical inputs")
    return problems


def check_benchmark_json() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {**tracing.LAYER_METRICS, "trace.overhead_s": "s"}
    problems = []
    if declared != reported:
        problems.append(f"per_layer in BENCHMARK.json {declared} != reported {reported}")
    names = {m["name"] for m in bench["end_to_end"]}
    if names != {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}:
        problems.append(f"end_to_end in BENCHMARK.json names {sorted(names)}")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    return problems


def share(layers: dict, wall: float) -> dict:
    density = layers["density.counting_bound.self_s"] + layers["density.level_density_limit.self_s"]
    return {
        "density": density / wall,
        "detectors.levels": layers["detectors.levels.self_s"] / wall,
        "korovkin.batch": layers["korovkin.batch.self_s"] / wall,
    }


def check_traced(workload: str, reference: dict) -> list[str]:
    job = workloads.make_job(workload, 1)
    results = [run.run_op(job, trace=True) for _ in range(2)]
    problems = []
    for result in results:
        if "error" in result:
            return [f"{workload}: {result['error']}"]
        problems += workloads.mismatches(job, result["outputs"], reference)
        fired = {span[0] for span in result["spans"]}
        for name in sorted(tracing.EXPECTED_SPANS[workload] - fired):
            problems.append(f"{workload}: span {name} never fired")
    a, b = (r["layers"] for r in results)
    for name in tracing.COUNT_METRICS:
        if a[name] != b[name]:
            problems.append(f"{workload}: {name} was {a[name]}, then {b[name]}")
    shares = share(a, results[0]["wall_s"])
    print(f"{workload}: traced wall {results[0]['wall_s']:.2f} s, self-time shares "
          + ", ".join(f"{k} {v:.0%}" for k, v in shares.items()))
    return problems


def main() -> int:
    with open(run.HERE / "reference.json") as fh:
        reference = json.load(fh)
    problems = check_inputs(reference) + check_benchmark_json()
    for workload in workloads.WORKLOADS:
        problems += check_traced(workload, reference)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
