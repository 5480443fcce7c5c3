"""Command-line behaviour: flags, formats, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from dnstat.cli import main


def run_cli(*args: str, timeout: int = 240) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dnstat.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestMean:
    def test_identity_window_mean(self):
        proc = run_cli("mean", "--seq", "identity", "--schedule", "0,1", "--weights",
                       "ones", "--horizon", "4")
        assert proc.returncode == 0
        last = proc.stdout.strip().splitlines()[-1]
        assert last.split()[-1] == "2.5"

    def test_constant_sequence(self):
        proc = run_cli("mean", "--seq", "const:7", "--mode", "regular", "--horizon", "3")
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines() if not l.startswith(("#", " " * 5 + "m"))]
        assert all(line.split()[-1] == "7.0" for line in rows if line.strip())

    def test_malformed_schedule_exits_2(self):
        proc = run_cli("mean", "--seq", "identity", "--schedule", "5m,2m")
        assert proc.returncode == 2
        assert "schedule violation" in proc.stderr

    def test_config_echo_includes_mode_and_horizon(self):
        proc = run_cli("mean", "--seq", "const:1", "--horizon", "3", "--mode", "literal")
        header = proc.stdout.splitlines()[1]
        assert "normalizer_mode=literal" in header
        assert "horizon=3" in header

    def test_csv_format(self):
        proc = run_cli("mean", "--seq", "identity", "--horizon", "3", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[2] == "m,R_m,t_m"
        assert lines[3].startswith("1,")


class TestDetect:
    def test_example1_probability_converges(self):
        proc = run_cli("detect", "--model", "example1", "--mode", "dnp", "--eps", "0.5",
                       "--delta", "0.5", "--horizon", "2000")
        assert proc.returncode == 0
        assert "dnp: Converges" in proc.stdout

    def test_example1_mean_diverges_with_exit_zero(self):
        proc = run_cli("detect", "--model", "example1", "--mode", "dnm", "--r", "1",
                       "--horizon", "2000")
        assert proc.returncode == 0
        assert "dnm: Diverges" in proc.stdout

    def test_example2_distribution_converges(self):
        proc = run_cli("detect", "--model", "example2", "--mode", "dndc",
                       "--horizon", "2000")
        assert proc.returncode == 0
        assert "dndc: Converges" in proc.stdout

    def test_unknown_model_exits_2(self):
        proc = run_cli("detect", "--model", "bogus", "--horizon", "500")
        assert proc.returncode == 2

    def test_json_output_shape(self):
        proc = run_cli("detect", "--model", "example1", "--mode", "dnp",
                       "--horizon", "1000", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["config"]["normalizer_mode"] == "regular"
        assert payload["config"]["horizon"] == 1000
        assert payload["results"]["dnp"]["verdict"] == "converges"

    def test_trace_out_writes_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        proc = run_cli("detect", "--model", "example1", "--mode", "dnp",
                       "--horizon", "500", "--trace-out", str(path))
        assert proc.returncode == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "m,R_m,count,d_m"
        assert len(lines) > 400

    def test_trace_out_with_mode_all_writes_one_file_per_detector(self, tmp_path):
        proc = run_cli("detect", "--model", "example2", "--mode", "all",
                       "--horizon", "300", "--trace-out", str(tmp_path / "trace.csv"))
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["trace.dndc.csv", "trace.dnm.csv", "trace.dnp.csv"]
        for kind in ("dnp", "dnm", "dndc"):
            single = tmp_path / "single" / f"{kind}.csv"
            single.parent.mkdir(exist_ok=True)
            proc = run_cli("detect", "--model", "example2", "--mode", kind,
                           "--horizon", "300", "--trace-out", str(single))
            assert proc.returncode == 0, proc.stderr
            assert (tmp_path / f"trace.{kind}.csv").read_text() == single.read_text()

    def test_tabulated_model_from_config_file(self, tmp_path):
        cfg = tmp_path / "model.json"
        support = {"1": [[1.0, 0.0, 0.5], [0.0, 0.0, 0.5]], "2": [[0.0, 0.0, 1.0]]}
        cfg.write_text(json.dumps({"model": {"per_m": support, "description": "tab"}}))
        proc = run_cli("detect", "--config", str(cfg), "--mode", "dnp", "--horizon", "200")
        assert proc.returncode == 0, proc.stderr
        assert "model=tab schedule=example weights=ones" in proc.stdout.splitlines()[1]
        assert "dnp: Converges" in proc.stdout

    def test_model_spec_of_wrong_type_exits_2(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": 5}))
        proc = run_cli("detect", "--config", str(cfg), "--horizon", "200")
        assert proc.returncode == 2
        assert "model must be" in proc.stderr

    def test_bounded_schedule_exits_2(self, tmp_path):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({"schedule": {"x": 0, "y": {"a": 0, "b": 5}}}))
        proc = run_cli("detect", "--config", str(cfg), "--model", "example1",
                       "--horizon", "200")
        assert proc.returncode == 2
        assert "shows no growth" in proc.stderr

    def test_bad_constant_in_model_spec_names_the_spec(self):
        proc = run_cli("detect", "--model", "degenerate:abc", "--horizon", "100")
        assert proc.returncode == 2
        assert "'degenerate:abc'" in proc.stderr

    def test_limit_law_that_depends_on_m_exits_2(self, tmp_path):
        cfg = tmp_path / "ym.json"
        support = {"1": [[1.0, 1.0, 1.0]], "2": [[2.0, 2.0, 1.0]]}
        cfg.write_text(json.dumps({"model": {"per_m": support, "description": "ym"}}))
        proc = run_cli("detect", "--config", str(cfg), "--mode", "dnp", "--horizon", "200")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        # Every tabulated row is checked when the model is parsed: row 2 is named.
        assert "m=2" in proc.stderr and "m=1" in proc.stderr

    def test_degenerate_normalizer_exits_2(self):
        # identity e has e(0) = 0, so the one-index windows of 0,1 weigh nothing.
        proc = run_cli("detect", "--model", "example1", "--schedule", "0,1",
                       "--weights", "identity", "--horizon", "100")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: degenerate normalizer at m=1")

    def test_schedule_past_int64_exits_2(self, capsys):
        # 2^62 * 100 leaves int64: the bounds are checked in Python ints, not wrapped.
        status = main(["detect", "--model", "example1", "--schedule",
                       "4611686018427387904m,4611686018427387905m", "--horizon", "100"])
        err = capsys.readouterr().err
        assert status == 2, err
        assert err.startswith("config error: schedule '4611686018427387904m,")
        assert "overflows int64" in err

    def test_byte_identical_json_runs(self):
        args = ("detect", "--model", "example2", "--mode", "dnp", "--horizon", "1000",
                "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestKorovkin:
    def test_json_report(self):
        proc = run_cli("korovkin", "--op", "mkz", "--perturb", "none", "--horizon", "30",
                       "--grid-size", "9", "--f", "identity", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["report"]["all_conditions_converge"] is True
        assert payload["report"]["conclusions"]["z"]["verdict"] == "converges"

    def test_cdffactor_report_carries_the_note(self):
        proc = run_cli("korovkin", "--perturb", "cdffactor", "--horizon", "30",
                       "--grid-size", "9")
        assert proc.returncode == 0
        assert "note:" in proc.stdout
        assert "diverges" in proc.stdout

    def test_trace_out(self, tmp_path):
        path = tmp_path / "sup.csv"
        proc = run_cli("korovkin", "--horizon", "30", "--grid-size", "9",
                       "--trace-out", str(path))
        assert proc.returncode == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n,1,z,z^2")
        assert len(lines) == 1 + 90  # stretch schedule: floor(R_30) = 90 indices

    def test_bounded_schedule_exits_2(self):
        proc = run_cli("korovkin", "--schedule", "0,0m+5", "--horizon", "30")
        assert proc.returncode == 2
        assert "shows no growth" in proc.stderr

    def test_bad_grid_size_exits_2(self):
        proc = run_cli("korovkin", "--grid-size", "1")
        assert proc.returncode == 2

    def test_grid_too_close_to_one_exits_2(self):
        # the grid point 1 - 1e-5 needs about 2.3 million terms at n = 1
        proc = run_cli("korovkin", "--grid-size", "100000", "--horizon", "20")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: operator evaluation failed at n=1:")
        assert "y=0.99998" in proc.stderr and "cap of 1000000 terms" in proc.stderr
        assert "--grid-size" in proc.stderr

    def test_nullset_report(self):
        proc = run_cli("korovkin", "--perturb", "nullset", "--horizon", "100",
                       "--grid-size", "9", "--tolerance", "0.07", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["config"]["operator"] == "mkz+nullset"
        assert payload["report"]["all_conditions_converge"] is True


@pytest.mark.parametrize(
    "args",
    [
        ("korovkin", "--tail-tol", "0"),
        ("korovkin", "--tail-tol", "-1"),
        ("korovkin", "--tail-tol", "2"),
        ("korovkin", "--horizon", "5"),
        ("korovkin", "--eps", "0"),
        ("korovkin", "--tolerance", "0"),
        ("detect", "--model", "example1", "--horizon", "5"),
        ("detect", "--model", "example1", "--eps", "0"),
        ("korovkin", "--tail-tol", "nan"),
        ("korovkin", "--eps", "nan"),
        ("korovkin", "--tolerance", "nan"),
        ("detect", "--model", "example1", "--eps", "nan"),
        ("detect", "--model", "example1", "--delta", "nan"),
        ("detect", "--model", "example1", "--r", "nan"),
        ("detect", "--model", "example2", "--mode", "dndc", "--grid", "0.5,nan"),
        ("mean", "--seq", "const:nan"),
        ("mean", "--seq", "const:inf"),
        ("mean", "--seq", "const:-inf"),
    ],
)
def test_bad_numeric_flag_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [
        ("korovkin", "--horizon", "30", "--grid-size", "9", "--format", "csv"),
        ("repro", "--skip-diff", "--format", "json"),
        ("mean", "--seq", "identity", "--seed", "1"),
        ("korovkin", "--horizon", "30", "--grid-size", "9", "--seed", "1"),
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert "error: " in err and out == ""


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seq": "const:2", "horizon": 4}))
        proc = run_cli("mean", "--config", str(cfg))
        assert proc.returncode == 0
        assert len([l for l in proc.stdout.splitlines() if l and l[0].isspace()]) == 4 + 1
        proc2 = run_cli("mean", "--config", str(cfg), "--horizon", "2")
        assert "horizon=2" in proc2.stdout.splitlines()[1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"seqq": "identity"}))
        proc = run_cli("mean", "--seq", "identity", "--config", str(cfg))
        assert proc.returncode == 2
        assert "unknown keys" in proc.stderr
