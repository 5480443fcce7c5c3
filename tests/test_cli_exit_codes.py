"""Exit codes around the command body: hinted errors exit 2, any other failure exits 1."""

from __future__ import annotations

import pytest

from dnstat import cli
from dnstat.density import CountCapError

RUNS = {
    "st_dndc": ["detect", "--model", "example2", "--mode", "all", "--horizon", "50"],
    "korovkin_check": ["korovkin", "--horizon", "20", "--grid-size", "5"],
}


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
@pytest.mark.parametrize("target", RUNS)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_failed_computation_exits_1_and_writes_nothing(
    monkeypatch, tmp_path, capsys, target, error, fmt
):
    def fail(*args, **kwargs):
        raise error("the computation broke")

    monkeypatch.setattr(cli, target, fail)
    argv = [*RUNS[target], "--format", fmt, "--trace-out", str(tmp_path / "trace.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: the computation broke\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "error, status, message",
    [
        (MemoryError("no room"), 2, "config error: no room; use a smaller --horizon\n"),
        (CountCapError("too many levels"), 1, "error: too many levels\n"),
    ],
)
def test_mean_hints_only_its_own_error_types(monkeypatch, capsys, error, status, message):
    # A count-cap error gets a hint from detect and korovkin, not from mean.
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "window_means", fail)
    assert cli.main(["mean", "--seq", "identity"]) == status
    assert capsys.readouterr() == ("", message)
