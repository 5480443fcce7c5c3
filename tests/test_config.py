"""JSON configuration surface: schedules, weights, models."""

from __future__ import annotations

import re

import pytest

from dnstat.config import ConfigError, parse_model, parse_schedule, parse_weights
from dnstat.density import window_means


class TestScheduleSpecs:
    def test_affine_object_form(self):
        sched = parse_schedule({"x": {"a": 2, "b": -1}, "y": {"a": 4, "b": -1}})
        assert sched.x(3) == 5
        assert sched.y(3) == 11

    def test_text_form_with_offsets(self):
        sched = parse_schedule("2m-1,4m-1")
        assert (sched.x(2), sched.y(2)) == (3, 7)

    def test_bare_numbers_are_slopes(self):
        sched = parse_schedule("0,1")
        assert (sched.x(5), sched.y(5)) == (0, 5)

    def test_preset_name(self):
        assert parse_schedule("example").label == "example"

    def test_object_sides_in_text_form(self):
        sched = parse_schedule({"x": "2m-1", "y": "4m - 1"})
        assert (sched.x(3), sched.y(3), sched.label) == (5, 11, "2m-1,4m-1")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            parse_schedule("weekly")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_schedule({"x": 0, "y": 1, "z": 2})

    def test_garbled_text_rejected(self):
        with pytest.raises(ConfigError):
            parse_schedule("2q-1,4m")


class TestWeightSpecs:
    def test_preset(self):
        assert parse_weights("ones").label == "ones"

    def test_tabulated_sides(self):
        weights = parse_weights({"e": [1.0, 2.0, 3.0, 4.0], "g": "ones"})
        sched = parse_schedule("0,1")
        # R_3 = e(2) g(1) + e(1) g(2) + e(0) g(3) = 3 + 2 + 1
        assert window_means(lambda n: n.astype(float), sched, weights, 3)[0][2] == 6.0

    def test_negative_table_rejected(self):
        with pytest.raises(ConfigError):
            parse_weights({"e": [1.0, -2.0], "g": "ones"})

    def test_unknown_side_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_weights({"e": "ones", "g": "ones", "h": "ones"})

    def test_missing_side_rejected(self):
        with pytest.raises(ConfigError):
            parse_weights({"e": "ones"})


@pytest.mark.parametrize("parse, spec, message", [
    (parse_schedule, {"x": [1], "y": 1}, "schedule.x must be a string, number or {a, b} object"),
    (parse_schedule, {"x": 1}, "schedule object needs both 'x' and 'y'"),
    (parse_schedule, 5, "schedule must be a preset name, 'x,y' text or {x, y} object"),
    (parse_weights, {"e": "fast", "g": "ones"}, "unknown weight sequence preset 'fast' for e"),
    (parse_weights, {"e": "ones", "g": 3}, "weights.g must be a preset name or an array"),
    (parse_weights, 5, "weights must be a preset name or an {e, g} object"),
    (parse_model, {"per_m": {}}, "model.per_m must be a nonempty object of index -> atom list"),
    (parse_model, {"per_m": [[0, 0, 1]]}, "model.per_m must be a nonempty object"),
    (parse_model, {"per_m": {"one": [[0, 0, 1]]}}, "model.per_m key 'one' is not an index"),
])
def test_malformed_spec_is_rejected_by_name(parse, spec, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        parse(spec)


class TestModelSpecs:
    def test_keys_that_name_the_same_index_rejected(self):
        # "1" and "01" are both index 1; one of the two rows would be dropped
        # silently, and which one would depend on the key order.
        row_a, row_b = [[0.0, 0.0, 1.0]], [[1.0, 0.0, 1.0]]
        for per_m in ({"1": row_a, "01": row_b}, {"01": row_b, "1": row_a}):
            with pytest.raises(ConfigError, match="more than one key for index 1$"):
                parse_model({"per_m": per_m})
