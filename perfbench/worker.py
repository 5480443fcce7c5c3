"""One benchmark operation in a fresh process.

Reads a job from stdin, as JSON: the workload name, its inputs (see
workloads.make_job), "trace" (wrap the layers' entry points) and "probe"
(stop after set-up).  Set-up is importing dnstat and parsing the inputs
through ``dnstat.config``; the timed interval runs from the first call
into dnstat after set-up to the last result.  Writes one JSON line to
stdout with the monotonic clock at the first timed call, wall and CPU
time of the interval, peak resident memory, the outputs the reference
check reads, and, when traced, the spans and per-layer metrics.

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dnstat import cli, config, detectors  # noqa: E402
from dnstat.density import DensityConfig  # noqa: E402
from dnstat.schedules import NormalizerMode, schedule_preset  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _tabulated(parsed: list[tuple]) -> dict:
    schedule = schedule_preset(workloads.TAB_SCHEDULE)
    density = DensityConfig(
        horizon=workloads.TAB_HORIZON, mode=NormalizerMode(workloads.TAB_NORMALIZER)
    )
    cfg = detectors.DetectorConfig(density=density)
    models = []
    for model, weights in parsed:
        runs = {
            "dnp": detectors.st_dnp(model, schedule, weights, cfg),
            "dnm": detectors.st_dnm(model, schedule, weights, cfg),
            "dndc": detectors.st_dndc(model, schedule, weights, cfg),
        }
        points = runs["dndc"].extras["points"]
        models.append(
            {
                "detectors": {k: [v.verdict.value, v.tail_max] for k, v in runs.items()},
                "dndc_points": [points[t].tail_max for t in sorted(points)],
            }
        )
    return {"status": 0, "models": models}


def run(job: dict) -> dict:
    tracer = None
    if job.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()
    workload = job["workload"]
    parsed = [
        (config.parse_model(m["model"]), config.parse_weights(m["weights"]))
        for m in job["models"]
    ]
    t_first = time.monotonic()
    if job.get("probe"):
        return {"t_first": t_first}
    cpu0 = _cpu_s()
    if workload == "detect-long":
        status, text = _run_cli(workloads.DETECT_ARGV)
        outputs = {"status": status, "detectors": workloads.parse_detect_output(text)}
    elif workload == "repro":
        status, _ = _run_cli(workloads.REPRO_ARGV)
        outputs = {"status": status}
    else:
        outputs = _tabulated(parsed)
    wall = time.monotonic() - t_first
    cpu = _cpu_s() - cpu0
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    return result


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run(job)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
