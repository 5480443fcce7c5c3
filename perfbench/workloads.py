"""Workload inputs, operations and output checks for the dnstat benchmark.

Every workload is a closed loop with one caller: an operation drives
dnstat's public functions and each call waits for the previous one.

  detect-long       ``dnstat detect`` on example1 at horizon 3e4.  The
                    window plan and counting in ``density`` grow with the
                    square of the horizon and dominate; weights are
                    constant, so this is the constant-e case.
  tabulated-models  user-style tabulated models with tabulated e/g
                    weights, parsed through ``dnstat.config`` and run
                    through the three detectors.  Level arrays built
                    through ``rvmodel`` dominate; weights are not
                    constant, so constant-e shortcuts are bypassed.
  repro             ``dnstat repro`` at its default seed.  The only
                    workload that uses ``korovkin``; the MKZ batch table
                    dominates, and it has the highest peak memory.

Only tabulated-models takes the workload seed: it picks the models (each
with its own weights) from a fixed pool whose reference outputs are
recorded in reference.json, so every seed's outputs can be checked.

This module uses the standard library only: the parent process of a
benchmark run imports it without importing dnstat.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

WORKLOADS = ("detect-long", "tabulated-models", "repro")

DETECT_ARGV = ["detect", "--model", "example1", "--mode", "all", "--horizon", "30000"]
REPRO_ARGV = ["repro"]
DETECTORS = ("dnp", "dnm", "dndc")

# tabulated-models shape.  A model has TAB_INDICES tabulated indices with
# LIMIT_VALUES x COND_VALUES atoms each; probabilities are multiples of
# 1/PROB_UNITS**2, so every sum over atoms is exact in binary floating
# point and the limit marginal is identical at every index.
POOL_SIZE = 32
BATCH_MODELS = 2
TAB_INDICES = 16
LIMIT_VALUES = 8
COND_VALUES = 8
PROB_UNITS = 256
TAB_HORIZON = 2000
TAB_SCHEDULE = "example"
TAB_NORMALIZER = "literal"
# The example schedule's y(m) = 4m - 1, so the tables need indices 0..y(horizon).
WEIGHT_LENGTH = 4 * TAB_HORIZON

# Verdicts must match exactly; tail maxima agree to this relative
# tolerance, which leaves room for last-bit changes in how R_m is summed.
TAIL_RTOL = 1e-12


def _composition(rng: random.Random, parts: int, total: int) -> list[int]:
    """Random positive integers that sum to total."""
    out = [1] * parts
    for _ in range(total - parts):
        out[int(rng.random() * parts)] += 1
    return out


def pool_member(index: int) -> dict:
    """Model and weight specs of one pool member, as a user would write them."""
    rng = random.Random(index)
    grid = [k / 4.0 for k in range(-12, 13)]
    limit_values = []
    while len(limit_values) < LIMIT_VALUES:
        value = grid[int(rng.random() * len(grid))]
        if value not in limit_values:
            limit_values.append(value)
    limit_values.sort()
    limit_probs = _composition(rng, LIMIT_VALUES, PROB_UNITS)
    # A shift that persists at every index lets some models keep Y_m away
    # from Y, so the pool mixes verdicts instead of converging throughout.
    shift = round(1.5 * rng.random(), 3)
    per_m = {}
    for m in range(1, TAB_INDICES + 1):
        spread = 0.25 + 1.0 / m
        atoms = []
        for b, qb in zip(limit_values, limit_probs):
            cond_probs = _composition(rng, COND_VALUES, PROB_UNITS)
            for rb in cond_probs:
                a = b + round(shift + (2.0 * rng.random() - 1.0) * spread, 3)
                atoms.append([a, b, qb * rb / PROB_UNITS**2])
        per_m[str(m)] = atoms
    e = [round(0.5 + rng.random(), 4) for _ in range(WEIGHT_LENGTH)]
    g = [round(0.5 + rng.random(), 4) for _ in range(WEIGHT_LENGTH)]
    return {
        "model": {"per_m": per_m, "description": f"tabulated-{index}"},
        "weights": {"e": e, "g": g},
    }


def batch_members(seed: int) -> list[int]:
    """Pool indices of the models one tabulated-models operation runs."""
    rng = random.Random(seed)
    order = list(range(POOL_SIZE))
    for i in range(BATCH_MODELS):
        j = i + int(rng.random() * (POOL_SIZE - i))
        order[i], order[j] = order[j], order[i]
    return order[:BATCH_MODELS]


def spec_hash(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def tabulated_job(indices: list[int]) -> dict:
    models = []
    for index in indices:
        spec = pool_member(index)
        models.append({"pool": index, "sha256": spec_hash(spec), **spec})
    return {"workload": "tabulated-models", "models": models}


def make_job(workload: str, seed: int) -> dict:
    """The inputs of one operation; only tabulated-models reads the seed."""
    if workload == "tabulated-models":
        return tabulated_job(batch_members(seed))
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    return {"workload": workload, "models": []}


_DETECT_LINE = re.compile(r"^(dnp|dnm|dndc): (\w+) \(tail_max=(.+)\)$")


def parse_detect_output(text: str) -> dict:
    """{detector: [verdict, tail_max]} from ``dnstat detect`` table output."""
    out = {}
    for line in text.splitlines():
        match = _DETECT_LINE.match(line)
        if match:
            out[match.group(1)] = [match.group(2).lower(), float(match.group(3))]
    return out


def _close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= TAIL_RTOL * abs(want)


def _verdicts_match(got: dict, want: dict) -> bool:
    for kind in DETECTORS:
        if kind not in got or got[kind][0] != want[kind][0]:
            return False
        if not _close(got[kind][1], want[kind][1]):
            return False
    return True


def mismatches(job: dict, outputs: dict, reference: dict) -> list[str]:
    """Differences between one operation's outputs and the reference."""
    workload = job["workload"]
    want = reference[workload]
    if outputs.get("status") != want["status"]:
        return [f"exit status {outputs.get('status')} != {want['status']}"]
    if workload == "detect-long":
        if not _verdicts_match(outputs["detectors"], want["detectors"]):
            return [f"detectors {outputs['detectors']} != {want['detectors']}"]
        return []
    if workload == "repro":
        return []
    problems = []
    for model, got in zip(job["models"], outputs["models"]):
        ref = want["pool"].get(str(model["pool"]))
        if ref is None or ref["sha256"] != model["sha256"]:
            problems.append(f"pool model {model['pool']}: no reference for these inputs")
            continue
        points_ok = len(got["dndc_points"]) == len(ref["dndc_points"]) and all(
            _close(a, b) for a, b in zip(got["dndc_points"], ref["dndc_points"])
        )
        if not (_verdicts_match(got["detectors"], ref["detectors"]) and points_ok):
            problems.append(f"pool model {model['pool']}: {got} != {ref}")
    if len(outputs["models"]) != len(job["models"]):
        problems.append("model count differs from the job")
    return problems


def check_member(spec: dict, prob_tol: float, y_max: int) -> list[str]:
    """Generator checks on one pool member's inputs."""
    problems = []
    marginals = []
    for m, atoms in spec["model"]["per_m"].items():
        total = math.fsum(p for _, _, p in atoms)
        if abs(total - 1.0) > prob_tol:
            problems.append(f"index {m}: probabilities sum to {total!r}")
        marginal: dict[float, float] = {}
        for _, b, p in atoms:
            marginal[b] = marginal.get(b, 0.0) + p
        marginals.append(sorted(marginal.items()))
    if any(mg != marginals[0] for mg in marginals):
        problems.append("limit marginal differs between tabulated indices")
    for side in ("e", "g"):
        if len(spec["weights"][side]) <= y_max:
            problems.append(f"weights.{side} ends before y_max={y_max}")
        if not all(0.5 <= v <= 1.5 for v in spec["weights"][side]):
            problems.append(f"weights.{side} leaves [0.5, 1.5]")
    return problems
