"""Record reference.json, the outputs every benchmark operation is checked against.

    python3 perfbench/record_reference.py

Records the detectors' verdicts and tail maxima of detect-long, the exit
status of repro (0 only when its output matches the committed snapshot)
and, for every tabulated-models pool member, its input hash, verdicts,
tail maxima and per-point dndc tail maxima.  Run it only at a commit
whose outputs are known to be right: the benchmark exists to catch
changes to them.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def _outputs(job: dict) -> dict:
    result = run.run_op(job)
    if "error" in result:
        raise SystemExit(f"{job['workload']}: {result['error']}")
    if result["outputs"]["status"] != 0:
        raise SystemExit(f"{job['workload']}: exit status {result['outputs']['status']}")
    return result["outputs"]


def main() -> int:
    detect = _outputs(workloads.make_job("detect-long", 0))
    _outputs(workloads.make_job("repro", 0))
    pool = {}
    for index in range(workloads.POOL_SIZE):
        job = workloads.tabulated_job([index])
        (model,) = _outputs(job)["models"]
        pool[str(index)] = {"sha256": job["models"][0]["sha256"], **model}
        print(f"pool model {index}: {model['detectors']}", file=sys.stderr)
    reference = {
        "detect-long": {"status": 0, "detectors": detect["detectors"]},
        "repro": {"status": 0},
        "tabulated-models": {"status": 0, "pool": pool},
    }
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
