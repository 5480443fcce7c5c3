"""Golden CLI corpus: every case of tests/golden/cases.json replays to its recorded digests.

A case fails on a different exit code, a different set of written files,
or a text whose SHA-256 differs from the recorded one; the message names
the first line that differs.  ``tests/golden/record.py`` records the
digests and holds the runner both use.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).parent / "golden" / "record.py"
)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

FILES, CASES = record.load_cases()
DIGESTS = json.loads(record.DIGESTS.read_text())


def first_difference(text: str, want: dict[str, str]) -> str:
    """Where ``text`` first departs from the recorded line digests."""
    lines, width = text.split("\n"), record.LINE_HEX
    recorded = [want["lines"][i : i + width] for i in range(0, len(want["lines"]), width)]
    for i, line in enumerate(lines):
        if i >= len(recorded):
            return f"line {i + 1} is extra: {line!r}"
        if record.digest(line)["lines"] != recorded[i]:
            return f"line {i + 1} differs: {line!r}"
    if len(lines) < len(recorded):
        return f"{len(recorded) - len(lines)} recorded lines missing after line {len(lines)}"
    return "the line digests agree, the text's SHA-256 does not"


def test_every_case_is_recorded():
    assert sorted(case["name"] for case in CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_case_matches_its_recorded_digests(case, tmp_path):
    want = DIGESTS[case["name"]]
    run = record.run_case(case["argv"], FILES, tmp_path)
    assert run["exit"] == want["exit"], run["texts"]["stderr"]
    assert sorted(run["texts"]) == sorted(want["outputs"])
    for name, text in run["texts"].items():
        expected = want["outputs"][name]
        if record.digest(text)["sha256"] != expected["sha256"]:
            pytest.fail(f"{name}: {first_difference(text, expected)}")
