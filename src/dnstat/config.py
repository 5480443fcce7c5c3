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
silently fall back to a default.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

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
    a = {"": 1, "+": 1, "-": -1}.get(a_part, None)
    if a is None:
        a = int(a_part)
    b = int(match.group(2).replace(" ", "")) if match.group(2) else 0
    return Affine(a, b)


def _parse_affine_obj(obj: Any, side: str) -> Affine:
    if isinstance(obj, str):
        return _parse_affine_text(obj)
    if isinstance(obj, (int, float)):
        return Affine(int(obj), 0)
    if isinstance(obj, Mapping):
        require_keys(obj, {"a", "b"}, f"schedule.{side}")
        return Affine(int(obj.get("a", 0)), int(obj.get("b", 0)))
    raise ConfigError(f"schedule.{side} must be a string, number or {{a, b}} object")


def parse_schedule(spec: Any) -> DeferredSchedule:
    """Schedule from a preset name, 'xspec,yspec' text, or {x, y} object."""
    if isinstance(spec, DeferredSchedule):
        return spec
    if isinstance(spec, str):
        if "," in spec:
            x_text, _, y_text = spec.partition(",")
            x = _parse_affine_text(x_text)
            y = _parse_affine_text(y_text)
            return DeferredSchedule(x, y, f"{x.spec()},{y.spec()}")
        try:
            return schedule_preset(spec)
        except ScheduleError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, Mapping):
        require_keys(spec, {"x", "y"}, "schedule")
        if "x" not in spec or "y" not in spec:
            raise ConfigError("schedule object needs both 'x' and 'y'")
        x = _parse_affine_obj(spec["x"], "x")
        y = _parse_affine_obj(spec["y"], "y")
        return DeferredSchedule(x, y, f"{x.spec()},{y.spec()}")
    raise ConfigError("schedule must be a preset name, 'x,y' text or {x, y} object")


def _parse_weight_side(obj: Any, side: str) -> WeightSeq:
    if isinstance(obj, str):
        if obj in ("ones", "identity"):
            return weight_preset(obj).e
        raise ConfigError(f"unknown weight sequence preset '{obj}' for {side}")
    if isinstance(obj, (list, tuple)):
        try:
            return tabulated(obj, f"{side}-table")
        except WeightError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"weights.{side} must be a preset name or an array")


def parse_weights(spec: Any) -> WeightScheme:
    """Weight scheme from a preset name or an {e, g} object."""
    if isinstance(spec, WeightScheme):
        return spec
    if isinstance(spec, str):
        try:
            return weight_preset(spec)
        except WeightError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, Mapping):
        require_keys(spec, {"e", "g"}, "weights")
        if "e" not in spec or "g" not in spec:
            raise ConfigError("weights object needs both 'e' and 'g'")
        return WeightScheme(
            _parse_weight_side(spec["e"], "e"),
            _parse_weight_side(spec["g"], "g"),
            label="custom",
        )
    raise ConfigError("weights must be a preset name or an {e, g} object")


def parse_model(spec: Any) -> RVSequenceModel:
    """Model from a preset spec string or a tabulated per-index support."""
    if isinstance(spec, RVSequenceModel):
        return spec
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
            rows = []
            for atom in atoms:
                if len(atom) != 3:
                    raise ConfigError("model atoms must be [y_m value, y value, prob] triples")
                rows.append((float(atom[0]), float(atom[1]), float(atom[2])))
            parsed[idx] = rows
        try:
            return tabulated_model(parsed, str(spec.get("description", "tabulated")))
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError("model must be a preset spec string or a {per_m, ...} object")


def require_keys(obj: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
