"""Plain-text (JSON) configuration surface shared by the CLI and tests.

Schedules come as preset names or affine specs: the string form
"2m-1,4m-1" gives x(m) = 2m-1 and y(m) = 4m-1, and the object form
{"x": {"a": 2, "b": -1}, "y": {"a": 4, "b": -1}} is equivalent.  Weight
schemes are preset names or {"e": ..., "g": ...} with each side a preset
name or a tabulated array.  Models are preset spec strings or tabulated
per-index supports; a tabulated model uses its largest tabulated
index's law at every untabulated index so it is defined for every m, and
every row's limit marginal must be the one at m = 1.

Unknown keys are rejected everywhere: a typo must fail loudly, not
silently fall back to a default.  Numbers are JSON numbers, not bools,
and integers where an integer is meant (``_json_number``, as for CLI flags).
"""

from __future__ import annotations

import json
import re
from typing import Any, Mapping, Sequence

from .rvmodel import ModelError, RVSequenceModel, model_preset, tabulated_model
from .schedules import (
    Affine,
    DeferredSchedule,
    ScheduleError,
    WeightError,
    WeightScheme,
    WeightSeq,
    schedule_preset,
    tabulated,
    weight_preset,
)

__all__ = [
    "ConfigError",
    "parse_schedule",
    "parse_weights",
    "parse_model",
    "require_keys",
]


class ConfigError(ValueError):
    """A configuration document or flag value failed validation."""


def _json_number(value: Any, where: str, integer: bool = False) -> Any:
    """``value`` as an int if ``integer``, else as a float (a huge int as inf).  ConfigError
    naming ``where`` unless it is a number, not a bool, and an int if ``integer``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        want = "an integer" if integer else "a number"
        raise ConfigError(f"{where} must be {want}, got {json.dumps(value, default=repr)}")
    return value if integer or isinstance(value, float) else float(str(value))


def _json_numbers(values: Sequence, where: str) -> Sequence:
    """``_json_number`` of every value; a sequence of floats alone is returned as it is."""
    return values if set(map(type, values)) <= {float} else [_json_number(v, where) for v in values]


_AFFINE_RE = re.compile(r"^\s*([+-]?\d*)\s*m\s*([+-]\s*\d+)?\s*$")


def _parse_affine_text(text: str) -> Affine:
    # A bare number is a slope: "0,1" means x(m) = 0 and y(m) = m.
    text = text.strip()
    if re.fullmatch(r"[+-]?\d+", text):
        return Affine(int(text), 0)
    match = _AFFINE_RE.match(text)
    if not match:
        raise ConfigError(f"cannot parse affine spec '{text}' (expected forms: 'a', 'a m + b')")
    a_part = match.group(1).replace(" ", "")
    a = {"": 1, "+": 1, "-": -1}.get(a_part) or int(a_part)
    b = int(match.group(2).replace(" ", "")) if match.group(2) else 0
    return Affine(a, b)


def _parse_affine_obj(obj: Any, side: str) -> Affine:
    if isinstance(obj, str):
        return _parse_affine_text(obj)
    if isinstance(obj, (int, float)):
        return Affine(_json_number(obj, f"schedule.{side}", integer=True), 0)
    if isinstance(obj, Mapping):
        require_keys(obj, {"a", "b"}, f"schedule.{side}")
        return Affine(*(_json_number(obj.get(k, 0), f"schedule.{side}.{k}", True) for k in "ab"))
    raise ConfigError(f"schedule.{side} must be a string, number or {{a, b}} object")


def parse_schedule(spec: Any) -> DeferredSchedule:
    """Schedule from a preset name, 'xspec,yspec' text, or {x, y} object."""
    if isinstance(spec, str):
        if "," in spec:
            x, y = (_parse_affine_text(text) for text in spec.split(",", 1))
            return DeferredSchedule(x, y, f"{x.spec()},{y.spec()}")
        try:
            return schedule_preset(spec)
        except ScheduleError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, Mapping):
        require_keys(spec, {"x", "y"}, "schedule")
        if "x" not in spec or "y" not in spec:
            raise ConfigError("schedule object needs both 'x' and 'y'")
        x, y = (_parse_affine_obj(spec[side], side) for side in "xy")
        return DeferredSchedule(x, y, f"{x.spec()},{y.spec()}")
    raise ConfigError("schedule must be a preset name, 'x,y' text or {x, y} object")


def _parse_weight_side(obj: Any, side: str) -> WeightSeq:
    if isinstance(obj, str):
        if obj in ("ones", "identity"):
            return weight_preset(obj).e
        raise ConfigError(f"unknown weight sequence preset '{obj}' for {side}")
    if isinstance(obj, (list, tuple)):
        try:
            return tabulated(_json_numbers(obj, f"each entry of weights.{side}"), f"{side}-table")
        except WeightError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"weights.{side} must be a preset name or an array")


def parse_weights(spec: Any) -> WeightScheme:
    """Weight scheme from a preset name or an {e, g} object."""
    if isinstance(spec, str):
        try:
            return weight_preset(spec)
        except WeightError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, Mapping):
        require_keys(spec, {"e", "g"}, "weights")
        if "e" not in spec or "g" not in spec:
            raise ConfigError("weights object needs both 'e' and 'g'")
        return WeightScheme(*(_parse_weight_side(spec[side], side) for side in "eg"), label="custom")
    raise ConfigError("weights must be a preset name or an {e, g} object")


def parse_model(spec: Any) -> RVSequenceModel:
    """Model from a preset spec string or a tabulated per-index support."""
    if isinstance(spec, str):
        try:
            return model_preset(spec).model
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, Mapping):
        require_keys(spec, {"per_m", "description"}, "model")
        table = spec.get("per_m")
        if not isinstance(table, Mapping) or not table:
            raise ConfigError("model.per_m must be a nonempty object of index -> atom list")
        parsed: dict[int, list[tuple[float, float, float]]] = {}
        for key, atoms in table.items():
            try:
                idx = int(key)
            except ValueError:
                raise ConfigError(f"model.per_m key '{key}' is not an index") from None
            if idx in parsed:
                raise ConfigError(f"model.per_m has more than one key for index {idx}")
            where = f"model.per_m key '{key}'"
            rows = atoms if isinstance(atoms, (list, tuple)) else [None]
            if not all(isinstance(atom, (list, tuple)) and len(atom) == 3 for atom in rows):
                got = json.dumps(atoms, default=repr)
                raise ConfigError(f"{where} must be a list of [ym, y, p] triples, got {got}")
            parsed[idx] = [tuple(_json_numbers(atom, f"each atom value in {where}")) for atom in atoms]
        try:
            return tabulated_model(parsed, str(spec.get("description", "tabulated")))
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError("model must be a preset spec string or a {per_m, ...} object")


def require_keys(obj: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
