"""Record the golden CLI corpus: ``PYTHONPATH=src python tests/golden/record.py``.

Each case of ``cases.json`` runs in-process through ``dnstat.cli.main``
in a fresh temporary directory that holds the corpus's input files, so
argv names them by relative path and no message holds a temporary path.
A run's result is its exit code and the SHA-256 of its stdout, its
stderr and every file it writes there (its ``--trace-out`` files), each
with a short digest of every line, so that a replay can name the first
line that differs.  The digests go to ``digests.json``.

A run records only the cases that ``digests.json`` does not hold yet and
leaves every existing entry byte-identical.  Record once, at the commit
that adds a case, after checking its outputs against the parent's.
Re-recording a case means deleting its entry from ``digests.json`` first;
never re-record to make a change pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"
DIGESTS = HERE / "digests.json"

# Hex digits kept per line digest: enough to locate a differing line; the
# SHA-256 of the whole text decides whether it differs.
LINE_HEX = 6


def load_cases() -> tuple[dict, list[dict]]:
    doc = json.loads(CASES.read_text())
    return doc["files"], doc["cases"]


def run_case(argv: list[str], files: dict, workdir: Path) -> dict[str, object]:
    """Exit code and output texts of one CLI run in ``workdir``, which must be empty."""
    from dnstat import cli

    for name, content in files.items():
        (workdir / name).write_text(json.dumps(content))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    written = sorted(p.name for p in workdir.iterdir() if p.name not in files)
    texts = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    texts.update((name, (workdir / name).read_text()) for name in written)
    return {"exit": code, "texts": texts}


def digest(text: str) -> dict[str, str]:
    """SHA-256 of ``text`` and the first LINE_HEX hex digits of each line's SHA-256."""
    lines = text.split("\n")
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": "".join(hashlib.sha256(s.encode()).hexdigest()[:LINE_HEX] for s in lines),
    }


def record_case(argv: list[str], files: dict) -> dict[str, object]:
    with tempfile.TemporaryDirectory() as tmp:
        run = run_case(argv, files, Path(tmp))
    return {"exit": run["exit"], "outputs": {k: digest(v) for k, v in run["texts"].items()}}


def main() -> int:
    files, cases = load_cases()
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    missing = [case for case in cases if case["name"] not in recorded]
    recorded.update((case["name"], record_case(case["argv"], files)) for case in missing)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(missing)} new cases in {DIGESTS.name}, {len(recorded)} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
