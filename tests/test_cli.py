"""Command-line behaviour: flags, formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dnstat import cli, density
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

    def test_one_normalizer_sum_per_row(self, monkeypatch, capsys):
        # R_m of every row comes from one call over all window indices.
        calls = []
        real = density._normalizers
        monkeypatch.setattr(density, "_normalizers", lambda *a: calls.append(a) or real(*a))
        assert main(["mean", "--seq", "identity", "--schedule", "example", "--weights",
                     "identity", "--horizon", "30"]) == 0
        assert len(calls) == 1
        assert calls[0][3].tolist() == list(range(1, 31))

    @pytest.mark.parametrize(
        "e, g, match",
        [
            # Finite entries whose products overflow.
            ([1e200] * 20, [1e200] * 20, "no finite window sum at m=1"),
            # Finite products whose sum passes the float range.
            ([1e308] * 20, [1.0] * 20, "no finite window sum at m=2"),
            # R_m stays finite (R_10 = 1e308), the numerator sum of e * g * n does not.
            ([1e307] * 20, [1.0] * 20, "no finite weighted sum of the sequence at m=6"),
            # The same sum with constant g, read off prefix sums.
            ([1e308] * 20, "ones", "no finite window sum at m=2"),
        ],
    )
    def test_normalizer_that_is_not_finite_exits_2(self, tmp_path, capsys, e, g, match):
        cfg = tmp_path / "weights.json"
        cfg.write_text(json.dumps({"seq": "identity", "weights": {"e": e, "g": g}}))
        status = main(["mean", "--config", str(cfg), "--horizon", "10"])
        out, err = capsys.readouterr()
        assert status == 2, err
        assert err.startswith("config error:") and match in err
        assert out == ""

    def test_numerator_that_is_not_finite_on_the_prefix_path_exits_2(self, tmp_path, capsys):
        # Constant e: R_10 = 1e308 stays finite, e0 * g(n) * n overflows from n = 18 on.
        cfg = tmp_path / "weights.json"
        cfg.write_text(json.dumps({"seq": "identity", "weights": {"e": "ones", "g": [1e307] * 20}}))
        status = main(["mean", "--config", str(cfg), "--horizon", "10"])
        out, err = capsys.readouterr()
        assert status == 2, err
        assert err == (
            "config error: weights 'custom' give no finite weighted sum of the sequence"
            " at m=6: inf\n"
        )
        assert out == ""

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "law",
        [
            # |Y_m - Y|^2 = 1e400 passes the float range: the moment is inf.
            [[0.0, 0.0, 0.5], [1e200, 0.0, 0.5]],
            # A zero-probability atom whose gap overflows adds nothing to the moment.
            [[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [1.5e308, -1.5e308, 0.0]],
        ],
    )
    @pytest.mark.parametrize("r", ["1", "2"])
    def test_moments_past_the_float_range_diverge(self, tmp_path, capsys, law, r):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": {"per_m": {"1": law}}}))
        argv = ["detect", "--config", str(cfg), "--mode", "dnm", "--r", r, "--horizon", "100"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert (out.splitlines()[-1], err) == ("dnm: Diverges (tail_max=1.0)", "")

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

    @pytest.mark.parametrize(
        "e, g, match",
        [
            ([1.0] * 5 + [math.inf] + [1.0] * 194, [1.0] * 200, "'e-table' not finite at n=5"),
            ([1.0] * 200, [1.0] * 7 + [math.nan] + [1.0] * 192, "'g-table' not finite at n=7"),
            # Finite entries whose products overflow.
            ([1e200] * 200, [1e200] * 200, "no finite window sum at m=1"),
        ],
    )
    def test_weights_that_are_not_finite_exit_2(self, tmp_path, e, g, match):
        cfg = tmp_path / "weights.json"
        cfg.write_text(json.dumps({"model": "example1", "weights": {"e": e, "g": g}}))
        proc = run_cli("detect", "--config", str(cfg), "--horizon", "40")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:") and match in proc.stderr
        assert "Warning" not in proc.stderr

    def test_detect_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, which costs more than
        # the rest of this run.
        code = textwrap.dedent("""
            import contextlib, io, sys
            from dnstat.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["detect", "--model", "example1", "--mode", "all",
                               "--horizon", "30000"])
            print(status, "numpy.ma" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=240)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_schedule_past_int64_exits_2(self, capsys):
        # 2^62 * 100 leaves int64: the bounds are checked in Python ints, not wrapped.
        status = main(["detect", "--model", "example1", "--schedule",
                       "4611686018427387904m,4611686018427387905m", "--horizon", "100"])
        err = capsys.readouterr().err
        assert status == 2, err
        assert err.startswith("config error: schedule '4611686018427387904m,")
        assert "overflows int64" in err

    def test_counting_cap_exits_2(self, capsys):
        # n_m = min(floor(R_m), y_m) = 2m on example1's windows passes the cap at m = 1,000,001.
        status = main(["detect", "--model", "example1", "--mode", "dnp", "--horizon", "1000001"])
        out, err = capsys.readouterr()
        assert status == 2, err
        assert err == (
            "config error: min(floor(R_m), y_m)=2000002 at m=1000001 exceeds counting cap 2000000;"
            " use a smaller --horizon\n"
        )
        assert out == ""

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

    def test_counting_cap_exits_2(self, capsys):
        # n_m = min(floor(R_m), y_m) = 3m on the stretch windows passes the cap at m = 666,667.
        status = main(["korovkin", "--horizon", "700000", "--grid-size", "3"])
        out, err = capsys.readouterr()
        assert status == 2, err
        assert err == (
            "config error: min(floor(R_m), y_m)=2000001 at m=666667 exceeds counting cap 2000000;"
            " use a smaller --horizon\n"
        )
        assert out == ""

    def test_tail_tol_reaches_the_operator_from_a_flag_or_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tail_tol": 0.001}))
        runs = {"default": [], "flag": ["--tail-tol", "1e-3"], "file": ["--config", str(cfg)]}
        traces, echoes = {}, {}
        for name, flags in runs.items():
            path = tmp_path / f"{name}.csv"
            argv = ["korovkin", "--horizon", "30", "--grid-size", "9", "--trace-out", str(path)]
            assert main([*argv, *flags]) == 0
            echoes[name] = capsys.readouterr().out.splitlines()[1]
            traces[name] = path.read_bytes()
        assert " tail_tol=1e-08 " in echoes["default"]
        assert " tail_tol=0.001 " in echoes["flag"] and echoes["file"] == echoes["flag"]
        assert traces["file"] == traces["flag"] != traces["default"]

    def test_nullset_report(self):
        proc = run_cli("korovkin", "--perturb", "nullset", "--horizon", "100",
                       "--grid-size", "9", "--tolerance", "0.07", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["config"]["operator"] == "mkz+nullset"
        assert payload["report"]["all_conditions_converge"] is True


class TestRepro:
    """The report is patched, so these runs skip the worked examples."""

    SNAPSHOT = (Path(cli.__file__).parent / "data" / "repro_expected.txt").read_text()

    def run(self, monkeypatch, capsys, report, *args):
        monkeypatch.setattr(cli, "_repro_report", lambda seed: list(report))
        status = main(["repro", *args])
        return status, *capsys.readouterr()

    def test_a_matching_report_exits_0_and_the_out_file_holds_stdout(
        self, monkeypatch, capsys, tmp_path
    ):
        report = self.SNAPSHOT.splitlines()[2:]  # the snapshot less its two header lines
        status, out, err = self.run(monkeypatch, capsys, report, "--out", str(tmp_path / "r.txt"))
        assert (status, err) == (0, "")
        assert out == self.SNAPSHOT + "snapshot: match\n"
        assert (tmp_path / "r.txt").read_text() == out

    def test_a_mismatched_report_exits_1(self, monkeypatch, capsys):
        status, out, err = self.run(monkeypatch, capsys, ["a report that differs"])
        assert (status, err) == (1, "")
        assert out.splitlines()[1:] == [
            "# config command=repro seed=20260808 horizon=10000 operator_horizon=200"
            " normalizer_mode=regular",
            "a report that differs",
            "snapshot: MISMATCH against committed expected output",
        ]

    def test_skip_diff_exits_0(self, monkeypatch, capsys):
        status, out, err = self.run(monkeypatch, capsys, ["line"], "--skip-diff", "--seed", "3")
        assert (status, err) == (0, "")
        assert out.splitlines()[1:] == [
            "# config command=repro seed=3 horizon=10000 operator_horizon=200"
            " normalizer_mode=regular",
            "line",
            "snapshot: skipped",
        ]

    def test_an_out_file_that_cannot_be_written_exits_1_with_nothing_on_stdout(
        self, monkeypatch, capsys, tmp_path
    ):
        out_file = tmp_path / "missing-dir" / "r.txt"
        status, out, err = self.run(monkeypatch, capsys, ["line"], "--out", str(out_file))
        assert (status, out) == (1, "")
        assert err.startswith("error: ")


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
        # argparse reads 1e400 as inf.
        *[
            (*command, flag, value)
            for command, flag in [
                (("korovkin",), "--eps"),
                (("korovkin",), "--tolerance"),
                (("detect", "--model", "example1"), "--eps"),
                (("detect", "--model", "example1"), "--delta"),
                (("detect", "--model", "example1"), "--r"),
            ]
            for value in ("inf", "1e400")
        ],
    ],
)
def test_bad_numeric_flag_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")


@pytest.mark.parametrize(
    "args, hint",
    [
        (("detect", "--model", "example1"), "--horizon"),
        (("mean", "--seq", "identity"), "--horizon"),
        (("korovkin",), "--horizon or --grid-size"),
    ],
)
def test_horizon_past_memory_exits_2(args, hint, capsys):
    # An index array of 10^17 entries asks for 711 PiB, which malloc refuses at once.
    status = main([*args, "--horizon", str(10**17)])
    out, err = capsys.readouterr()
    assert status == 2, err
    assert err.startswith("config error: Unable to allocate 711. PiB")
    assert err.endswith(f"; use a smaller {hint}\n")
    assert out == ""


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

    @pytest.mark.parametrize(
        "content",
        [
            b'{"eps": 1' + b"0" * 5000 + b"}",  # past Python's int-string digit limit
            b'\xff{"eps": 1}',
            b'{"eps": ',
        ],
        ids=["huge-integer", "not-utf8", "truncated-json"],
    )
    def test_file_that_cannot_be_read_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["detect", "--model", "example1", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot read config file {cfg}: ")

    def test_infinite_number_in_a_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"eps": 1e400}')  # JSON reads it as inf
        assert main(["detect", "--model", "example1", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "config error: eps must be finite, got inf\n")

    @pytest.mark.parametrize(
        "command, values, key",
        [
            (["detect", "--model", "example1"], {"horizon": 20.0}, "horizon"),
            (["detect", "--model", "example1"], {"eps": None}, "eps"),
            (["detect", "--model", "example1"], {"mode": "bogus"}, "mode"),
            (["detect", "--model", "example1"], {"command": "mean"}, "command"),
            (["detect", "--model", "example1"], {"format": "xml"}, "format"),
            (["repro"], {"skip_diff": "no"}, "skip_diff"),
            (["korovkin"], {"grid_size": 3.5}, "grid_size"),
            (["korovkin"], {"f": "exp"}, "f"),
        ],
    )
    def test_value_of_the_wrong_type_or_choice_exits_2(
        self, tmp_path, capsys, command, values, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([*command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and f"'{key}'" in err

    def test_values_of_each_flag_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        trace = tmp_path / "trace.csv"
        values = {"model": "example1", "mode": "dnp", "eps": 1, "horizon": 50,
                  "trace-out": str(trace), "schedule": {"x": 1, "y": 4}}
        cfg.write_text(json.dumps(values))
        assert main(["detect", "--config", str(cfg)]) == 0
        assert "schedule=m,4m" in capsys.readouterr().out
        assert trace.read_text().startswith("m,R_m,count,d_m\n")
        cfg.write_text(json.dumps({"f": ["exp"], "horizon": 30, "grid-size": 9}))
        assert main(["korovkin", "--config", str(cfg)]) == 0
        assert "e^y" in capsys.readouterr().out
        # A path flag takes a string.
        cfg.write_text(json.dumps({**values, "trace-out": 5}))
        assert main(["detect", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config key 'trace-out' must be a string, got 5\n"

    def test_f_flags_replace_the_files_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": ["exp"], "horizon": 30, "grid-size": 9}))
        for flags, labels in (([], ["e^y"]), (["--f", "y^3"], ["y^3"]),
                              (["--f", "y^3", "--f", "|y-1/2|"], ["y^3", "|y-1/2|"])):
            assert main(["korovkin", "--config", str(cfg), "--format", "json", *flags]) == 0
            report = json.loads(capsys.readouterr().out)["report"]
            assert list(report["conclusions"]) == labels

    def test_integer_for_a_float_flag_reads_as_the_flag_does(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "example1", "eps": 1, "r": 2, "horizon": 50}))
        flags = ["--model", "example1", "--eps", "1", "--r", "2", "--horizon", "50"]
        outputs = []
        for fmt in ("table", "json"):
            assert main(["detect", "--config", str(cfg), "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
            assert main(["detect", *flags, "--format", fmt]) == 0
            assert outputs[-1] == capsys.readouterr().out
        assert " eps=1.0 delta=0.5 r=2.0 " in outputs[0].splitlines()[1]
        assert json.loads(outputs[1])["config"]["eps"] == 1.0



# Bad inputs to `detect --horizon 20`, as a config document (passed by
# --config) or as flags.  Config-file numbers follow one rule: a JSON number
# that is not a bool, and an integer where one is meant, so a slope of 1.5 is
# rejected, not read as 1.  Each case exits 2 with a message naming its key.
BAD_INPUTS = {
    "string atom value": (
        {"model": {"per_m": {"1": [["a", 0, 1]]}}},
        "each atom value in model.per_m key '1' must be a number, got \"a\"",
    ),
    "bool atom value": (
        {"model": {"per_m": {"1": [[0, 0, True]]}}},
        "each atom value in model.per_m key '1' must be a number, got true",
    ),
    "row that is not a list": (
        {"model": {"per_m": {"1": 5}}},
        "model.per_m key '1' must be a list of [ym, y, p] triples, got 5",
    ),
    "atom that is not a list": (
        {"model": {"per_m": {"1": [5]}}},
        "model.per_m key '1' must be a list of [ym, y, p] triples, got [5]",
    ),
    "nan probability": (
        {"model": {"per_m": {"1": [[0, 0, math.nan]]}}},
        "model 'tabulated' probabilities sum to nan at m=1",
    ),
    "string weight-table entry": (
        {"model": "example1", "weights": {"e": [1, "x"], "g": "ones"}},
        "each entry of weights.e must be a number, got \"x\"",
    ),
    "huge integer weight-table entry": (
        {"model": "example1", "weights": {"e": [1, 10**400], "g": "ones"}},
        "weight sequence 'e-table' not finite at n=1: inf",
    ),
    "string affine coefficient": (
        {"model": "example1", "schedule": {"x": {"a": "q"}, "y": 4}},
        "schedule.x.a must be an integer, got \"q\"",
    ),
    "fractional affine coefficient": (
        {"model": "example1", "schedule": {"x": {"a": 1.5}, "y": 4}},
        "schedule.x.a must be an integer, got 1.5",
    ),
    "fractional bare slope": (
        {"model": "example1", "schedule": {"x": 1, "y": 4.5}},
        "schedule.y must be an integer, got 4.5",
    ),
    "bool bare slope": (
        {"model": "example1", "schedule": {"x": True, "y": 4}},
        "schedule.x must be an integer, got true",
    ),
    "grid point on a limit atom": (
        ["--model", "example2", "--mode", "dndc", "--grid", "1"],
        "grid point 1.0 sits on a limit-law atom (discontinuity);"
        " --grid points must avoid the limit-law atoms",
    ),
    "nan grid point": (
        ["--model", "example2", "--mode", "dndc", "--grid", "0.5,nan"],
        "grid points must be finite, got (0.5, nan)",
    ),
    # An empty value is parsed like any other, not read as "not given".
    "empty schedule flag": (
        ["--model", "example2", "--mode", "dndc", "--schedule="],
        "unknown schedule preset ''",
    ),
    "empty weights in a config file": (
        {"model": "example2", "mode": "dndc", "weights": ""},
        "unknown weight preset ''",
    ),
    "empty grid flag": (
        ["--model", "example2", "--mode", "dndc", "--grid="],
        "bad grid spec ''",
    ),
    "empty schedule in a config file": (
        {"model": "example2", "mode": "dndc", "schedule": ""},
        "unknown schedule preset ''",
    ),
    "empty weights flag": (
        ["--model", "example2", "--mode", "dndc", "--weights="],
        "unknown weight preset ''",
    ),
    "empty grid in a config file": (
        {"model": "example2", "mode": "dndc", "grid": ""},
        "bad grid spec ''",
    ),
}


@pytest.mark.parametrize("source, message", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_with_its_message(tmp_path, capsys, source, message):
    if isinstance(source, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(source))
        source = ["--config", str(cfg)]
    assert main(["detect", *source, "--horizon", "20"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"config error: {message}\n")
