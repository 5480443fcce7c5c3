"""dnstat benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload detect-long --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory, nothing is installed.  Every operation runs in a
fresh process (perfbench/worker.py), one after the other, so set-up time
and peak memory belong to that operation.  Operations start until the
next one would end after --seconds; at least one always runs.

--trace 0 reports the end-to-end metrics, each the median over the
run's operations:
  wall_s       first call into dnstat to the last result
  cpu_s        user plus system CPU time of the same interval
  setup_s      process start to the first timed call: interpreter start,
               ``import dnstat`` and parsing inputs through dnstat.config;
               also sampled by set-up-only processes at the start
  peak_rss_mb  peak resident memory of the operation's process
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see tracing.py), plus
trace.overhead_s, the traced minus the untraced median wall time.

An operation fails if its process exits non-zero or its outputs differ
from reference.json.  The last stdout line is the JSON result; the run
record (environment, every sample and, when traced, the spans) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up-only processes at the start of an untraced run; with the
# operations' own set-ups they give the median of setup_s.
SETUP_PROBES = 5
# A run ends within this many seconds of its start, whatever --seconds says.
RUN_LIMIT_S = 170.0
# BLAS threads for every worker.  Two threads reproduce the committed
# repro snapshot; one thread changes the last digits of an operator line.
BLAS_THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Idle OpenBLAS threads sleep after 2**4 cycles instead of spinning for
# about 2**28, so cpu_s counts work done rather than waiting, which
# varied by 9% between runs.
WORKER_ENV = {**{var: str(BLAS_THREADS) for var in THREAD_VARS}, "OPENBLAS_THREAD_TIMEOUT": "4"}


def run_op(job: dict, trace: bool = False, probe: bool = False, timeout: float = RUN_LIMIT_S):
    """Run one operation in a fresh worker process; its result dict or an error."""
    env = dict(os.environ, **WORKER_ENV)
    # Users run dnstat from cached bytecode, so set-up is measured that way
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    payload = json.dumps({**job, "trace": trace, "probe": probe})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=payload,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"operation exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def git_sha() -> str | None:
    """HEAD of the checkout, read without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy  # noqa: PLC0415

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "worker_env": WORKER_ENV,
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run operations for about `seconds` and gather their samples."""
    job = workloads.make_job(workload, seed)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    start = time.monotonic()
    deadline = start + seconds

    def remaining() -> float:
        return start + RUN_LIMIT_S - time.monotonic()

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_op(job, probe=True, timeout=remaining())
            if "error" not in probe:
                setups.append(probe["setup_s"])
    ops = []
    last = 0.0
    while remaining() > 0:
        now = time.monotonic()
        if len(ops) >= (2 if trace else 1) and now + last > deadline:
            break
        traced = trace and len(ops) % 2 == 1
        result = run_op(job, trace=traced, timeout=remaining())
        last = time.monotonic() - now
        result["traced"] = traced
        if "error" not in result:
            result["problems"] = workloads.mismatches(job, result["outputs"], reference)
        ops.append(result)
    return {"job": job, "setups": setups, "ops": ops}


def summarize(run: dict, trace: bool) -> dict:
    """The result line: correctness, operation counts and medians."""
    ops = run["ops"]
    failed = [op for op in ops if "error" in op or op["problems"]]
    timed = [op for op in ops if "error" not in op]
    plain = [op for op in timed if not op["traced"]]
    if trace:
        traced = [op for op in timed if op["traced"]]
        values = {}
        for name, unit in tracing.LAYER_METRICS.items():
            samples = [op["layers"][name] for op in traced]
            # Counts repeat exactly (selftest.py checks it); times vary.
            value = _median(samples) if unit == "s" else (samples[0] if samples else 0)
            values[name] = (value, unit)
        overhead = _median([op["wall_s"] for op in traced]) - _median(
            [op["wall_s"] for op in plain]
        )
        values["trace.overhead_s"] = (overhead, "s")
    else:
        setups = run["setups"] + [op["setup_s"] for op in plain]
        values = {
            "wall_s": (_median([op["wall_s"] for op in plain]), "s"),
            "cpu_s": (_median([op["cpu_s"] for op in plain]), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median([op["peak_rss_mb"] for op in plain]), "MB"),
        }
    return {
        "correct": not failed and bool(timed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }


def write_record(workload: str, seed: int, trace: bool, run: dict, result: dict) -> Path:
    """Environment, every sample and the last traced operation's spans, as JSON."""
    samples = []
    spans = None
    for op in run["ops"]:
        spans = op.pop("spans", spans)
        samples.append({k: v for k, v in op.items() if k != "outputs"})
    missing = []
    if trace and spans is not None:
        fired = {span[0] for span in spans}
        missing = sorted(tracing.EXPECTED_SPANS[workload] - fired)
    record = {
        "workload": workload,
        "environment": environment(seed),
        "inputs": [{"pool": m["pool"], "sha256": m["sha256"]} for m in run["job"]["models"]],
        "setup_probes_s": run["setups"],
        "operations": samples,
        "missing_spans": missing,
        "spans": spans,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name in missing:
        print(f"warning: span {name} never fired on {workload}", file=sys.stderr)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dnstat" / "__init__.py").is_file():
        print(f"error: no dnstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    run = measure(args.workload, args.seed, args.seconds, trace)
    result = summarize(run, trace)
    path = write_record(args.workload, args.seed, trace, run, result)
    for op in run["ops"]:
        for problem in [op["error"]] if "error" in op else op["problems"]:
            print(f"failed operation: {problem}", file=sys.stderr)
    print(f"# run record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
