"""Command-line surface: window means, convergence detectors, operator checks.

Every run echoes its fully resolved configuration (including the
normalizer convention and horizon) ahead of the results, so an output
file is self-describing.  Verdicts are data and never drive a nonzero
exit status; exit 2 means the configuration was rejected, exit 1 means
a computation failed.

Every command returns one record: the echo, the JSON body or the lines
of the one format asked for, each trace or ``--out`` file's text, and
the exit status (1 only for a ``repro`` snapshot that is missing or does
not match).  ``main`` writes it, files first, so a failed run writes
nothing to stdout; an error that a smaller flag value avoids exits 2
with the command's hint (``_COMMANDS``).

CSV outputs use the columns documented per subcommand in --help.  A
JSON document passed via --config supplies defaults for the same
subcommand's flags (explicit flags win); unknown keys in it are
rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, _json_number, parse_model, parse_schedule, parse_weights
from .density import CountCapError, DensityConfig, trace_csv, window_means
from .detectors import DetectorConfig, GridError, st_dndc, st_dnm, st_dnp
from .korovkin import (
    KorovkinConfig,
    Perturbation,
    SeriesCapError,
    audit_quadratic_moment,
    function_preset,
    korovkin_check,
    lifted_operator,
    mkz_apply,
)
from .rvmodel import LIMIT, ModelError, abs_moment, cdf, exceedance_prob, model_preset, sample
from .schedules import (
    DegenerateNormalizerError,
    NormalizerMode,
    ScheduleError,
    WeightError,
    constant_seq,
    identity_seq,
    schedule_preset,
    weight_preset,
)

__all__ = ["main"]

DEFAULT_SEED = 20260808


def _add_common(sub: argparse.ArgumentParser, *formats: str) -> None:
    """--config, and --format with the formats the subcommand writes."""
    sub.add_argument("--config", type=Path, default=None, help="JSON file with flag defaults")
    if formats:
        sub.add_argument("--format", choices=formats, default="table", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnstat",
        description="Deferred weighted-window means, convergence detectors, operator checks.",
    )
    parser.add_argument("--version", action="version", version=f"dnstat {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_mean = subs.add_parser(
        "mean",
        help="window means of a real sequence",
        epilog="CSV columns: m, R_m, t_m",
    )
    p_mean.add_argument("--seq", default=None, help="sequence: identity | const:<c>")
    p_mean.add_argument("--schedule", default="cesaro", help="preset or 'xspec,yspec'")
    p_mean.add_argument("--weights", default="ones", help="preset name")
    p_mean.add_argument("--horizon", type=int, default=10)
    p_mean.add_argument(
        "--mode", choices=("regular", "literal"), default="regular", help="normalizer convention"
    )
    _add_common(p_mean, "table", "json", "csv")

    p_detect = subs.add_parser(
        "detect",
        help="convergence-mode detectors for a random-variable model",
        epilog="trace CSV columns: m, R_m, count, d_m",
    )
    p_detect.add_argument("--model", default=None, help="model spec, e.g. example1")
    p_detect.add_argument(
        "--mode", choices=("dnp", "dnm", "dndc", "all"), default="all", help="detector(s) to run"
    )
    p_detect.add_argument("--eps", type=float, default=0.5)
    p_detect.add_argument("--delta", type=float, default=0.5)
    p_detect.add_argument("--r", type=float, default=1.0)
    p_detect.add_argument("--grid", default=None, help="comma-separated evaluation points")
    p_detect.add_argument("--horizon", type=int, default=10_000)
    p_detect.add_argument("--schedule", default=None, help="override the model's schedule")
    p_detect.add_argument("--weights", default=None, help="override the model's weights")
    p_detect.add_argument(
        "--normalizer", choices=("regular", "literal"), default="regular"
    )
    p_detect.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write trace CSV here; with several detectors, one file per "
        "detector at <stem>.<kind><suffix> (trace.csv -> trace.dnp.csv)",
    )
    # No detector samples; the seed is kept because the config echo prints it.
    p_detect.add_argument("--seed", type=int, default=DEFAULT_SEED, help="echoed seed")
    _add_common(p_detect, "table", "json", "csv")

    p_kor = subs.add_parser(
        "korovkin",
        help="three-condition operator check",
        epilog="trace CSV columns: n, then one sup-deviation column per function",
    )
    p_kor.add_argument("--op", choices=("mkz",), default="mkz")
    p_kor.add_argument(
        "--perturb", choices=("none", "nullset", "cdffactor"), default="none"
    )
    p_kor.add_argument("--horizon", type=int, default=200)
    p_kor.add_argument("--grid-size", type=int, default=65)
    p_kor.add_argument("--tail-tol", type=float, default=1e-8)
    p_kor.add_argument("--eps", type=float, default=0.5)
    p_kor.add_argument("--tolerance", type=float, default=0.05)
    p_kor.add_argument("--schedule", default="stretch")
    p_kor.add_argument("--weights", default="ones")
    p_kor.add_argument(
        "--tag", choices=("dnp", "dnm", "dndc"), default="dndc", help="mode provenance tag"
    )
    p_kor.add_argument(
        "--f", action="append", default=None, help="conclusion function (repeatable)"
    )
    p_kor.add_argument("--trace-out", type=Path, default=None)
    _add_common(p_kor, "table", "json")

    p_repro = subs.add_parser(
        "repro", help="run the bundled worked-example reproduction and diff the snapshot"
    )
    p_repro.add_argument("--out", type=Path, default=None, help="also write the report here")
    p_repro.add_argument("--skip-diff", action="store_true", help="do not compare the snapshot")
    p_repro.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling check seed")
    _add_common(p_repro)
    return parser


def _merge_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Two-phase parse so --config values act as subcommand defaults."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bytes or a huge integer
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest in vars(args)}
    lists = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest == "config":
            raise ConfigError(f"unknown keys in config file: ['{key}']")
        value = _check_file_value(actions[dest], key, value)
        if isinstance(actions[dest], argparse._AppendAction):
            lists[dest] = value  # a default list would be extended by the flags
        else:
            sub.set_defaults(**{dest: value})
    # Re-parse with the file values as defaults; explicit flags still win.
    args = parser.parse_args(argv)
    for dest, value in lists.items():
        if getattr(args, dest) is actions[dest].default:  # no flag given
            setattr(args, dest, value)
    return args


def _check_file_value(action: argparse.Action, key: str, value: object) -> object:
    """The value as its flag would read it; reject one that the flag's action,
    type or choices would reject.  Numbers follow ``config._json_number``."""
    if action.type in (int, float):
        return _json_number(value, f"config key '{key}'", integer=action.type is int)
    if isinstance(action, argparse._StoreTrueAction):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(action, argparse._AppendAction):
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        want = "a list of strings"
    elif action.choices:
        ok, want = value in action.choices, "one of " + ", ".join(action.choices)
    else:  # the schedule, weights and model parsers also read their object forms
        ok = isinstance(value, str) or action.dest in ("schedule", "weights", "model")
        want = "a string"
    if not ok:
        raise ConfigError(f"config key '{key}' must be {want}, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class _Record:
    """A command's output: echo, JSON body or text lines, file texts by path, exit status."""

    echo: dict[str, object]
    body: tuple[str, object] | None = None
    lines: list[str] = field(default_factory=list)
    traces: dict[Path, str] = field(default_factory=dict)
    status: int = 0


def _text(echo: dict[str, object], lines: list[str]) -> str:
    """The ``# dnstat`` and ``# config`` header lines, then the lines."""
    rendered = " ".join(f"{k}={v}" for k, v in echo.items())
    return "\n".join([f"# dnstat {__version__}", f"# config {rendered}", *lines]) + "\n"


def _write(record: _Record) -> None:
    """The trace and ``--out`` files, then the JSON document or the header and the lines."""
    for path, text in record.traces.items():
        path.write_text(text)
    if record.body is not None:
        key, value = record.body
        payload = {"version": __version__, "config": record.echo, key: value}
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(_text(record.echo, record.lines))


def _parse_seq(spec: str):
    """The sequence as a function on int64 index arrays."""
    if spec == "identity":
        return identity_seq
    if spec.startswith("const:"):
        try:
            value = float(spec.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad constant in sequence spec '{spec}'") from None
        if not math.isfinite(value):
            raise ConfigError(f"sequence constant must be finite, got '{spec}'")
        return constant_seq(value)
    raise ConfigError(f"unknown sequence spec '{spec}'")


def cmd_mean(args: argparse.Namespace) -> _Record:
    if args.seq is None:
        raise ConfigError("a sequence spec is required (--seq or config file)")
    seq = _parse_seq(args.seq)
    schedule = parse_schedule(args.schedule)
    weights = parse_weights(args.weights)
    if args.horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {args.horizon}")
    mode = NormalizerMode(args.mode)
    echo = {
        "command": "mean",
        "seq": args.seq,
        "schedule": schedule.label,
        "weights": weights.label,
        "horizon": args.horizon,
        "normalizer_mode": mode.value,
    }
    schedule.validate(args.horizon)
    r, t = window_means(seq, schedule, weights, args.horizon, mode)
    rows = zip(range(1, args.horizon + 1), r.tolist(), t.tolist())
    if args.format == "json":
        return _Record(echo, ("rows", [[m, r, t] for m, r, t in rows]))
    if args.format == "csv":
        return _Record(echo, lines=["m,R_m,t_m", *(f"{m},{r!r},{t!r}" for m, r, t in rows)])
    head = f"{'m':>6} {'R_m':>14} t_m"
    return _Record(echo, lines=[head, *(f"{m:>6} {r!r:>14} {t!r}" for m, r, t in rows)])


def cmd_detect(args: argparse.Namespace) -> _Record:
    if args.model is None:
        raise ConfigError("a model spec is required (--model or config file)")
    # Presets keep their worked example's windows; tabulated models get example/ones.
    if isinstance(args.model, str):
        bundle = model_preset(args.model)
        model, schedule, weights = bundle.model, bundle.schedule, bundle.weights
    else:
        model = parse_model(args.model)
        schedule, weights = schedule_preset("example"), weight_preset("ones")
    schedule = schedule if args.schedule is None else parse_schedule(args.schedule)
    weights = weights if args.weights is None else parse_weights(args.weights)
    grid = None
    if args.grid is not None:
        try:
            grid = tuple(float(t) for t in str(args.grid).split(","))
        except ValueError:
            raise ConfigError(f"bad grid spec '{args.grid}'") from None
    try:
        density = DensityConfig(horizon=args.horizon, mode=NormalizerMode(args.normalizer))
        cfg = DetectorConfig(eps=args.eps, delta=args.delta, r=args.r, grid=grid, density=density)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    schedule.validate(args.horizon)
    detectors = {"dnp": st_dnp, "dnm": st_dnm, "dndc": st_dndc}
    wanted = detectors if args.mode == "all" else (args.mode,)
    runs = {kind: detectors[kind](model, schedule, weights, cfg) for kind in wanted}
    echo = {
        "command": "detect",
        "model": model.description,
        "schedule": schedule.label,
        "weights": weights.label,
        "eps": cfg.eps,
        "delta": cfg.delta,
        "r": cfg.r,
        "horizon": cfg.density.horizon,
        "normalizer_mode": cfg.density.mode.value,
        "seed": args.seed,
    }
    traces = {}
    if args.trace_out is not None:
        out = Path(args.trace_out)
        for kind, verdict in runs.items():
            path = out if len(runs) == 1 else out.with_name(f"{out.stem}.{kind}{out.suffix}")
            traces[path] = trace_csv(verdict)
    if args.format == "json":
        return _Record(echo, ("results", {k: v.summary() for k, v in runs.items()}), traces=traces)
    rows = [(kind, v.verdict.value, v.tail_max) for kind, v in runs.items()]
    if args.format == "csv":
        lines = ["detector,verdict,tail_max", *(f"{k},{w},{t!r}" for k, w, t in rows)]
    else:
        lines = [f"{k}: {w.capitalize()} (tail_max={t!r})" for k, w, t in rows]
    return _Record(echo, lines=lines, traces=traces)


def cmd_korovkin(args: argparse.Namespace) -> _Record:
    schedule = parse_schedule(args.schedule)
    weights = parse_weights(args.weights)
    f_specs = args.f if args.f else ["y^3"]
    try:
        f_list = [function_preset(s) for s in f_specs]
        cfg = KorovkinConfig(
            horizon=args.horizon,
            eps=args.eps,
            grid_points=args.grid_size,
            tolerance=args.tolerance,
        )
        ops = lifted_operator(Perturbation(args.perturb), args.tail_tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    schedule.validate(cfg.horizon)
    (report,) = korovkin_check((ops,), (args.tag,), f_list, schedule, weights, cfg)
    echo = {
        "command": "korovkin",
        "operator": report.operator,
        "schedule": schedule.label,
        "weights": weights.label,
        "horizon": cfg.horizon,
        "grid_points": cfg.grid_points,
        "tail_tol": args.tail_tol,
        "eps": cfg.eps,
        "tolerance": cfg.tolerance,
        "mode_tag": report.mode_tag,
        "normalizer_mode": cfg.mode.value,
    }
    traces = {}
    if args.trace_out is not None:
        labels = [*report.conditions, *report.conclusions]
        columns = [report.sup_trace(label).tolist() for label in labels]
        rows = ["n," + ",".join(labels)]
        rows += [f"{n}," + ",".join(map(repr, row)) for n, row in enumerate(zip(*columns), 1)]
        traces[Path(args.trace_out)] = "\n".join(rows) + "\n"
    if args.format == "json":
        return _Record(echo, ("report", report.to_json_dict()), traces=traces)
    lines = [report.table(), *(f"note: {note}" for note in report.notes)]
    return _Record(echo, lines=lines, traces=traces)


# ---------------------------------------------------------------------------
# repro


def _repro_report(seed: int) -> list[str]:
    bundle1 = model_preset("example1")
    lines = ["== sequence model example1 (deferred window, unit weights) =="]
    lines.append(f"exceedance_prob(m=16, eps=0.5) = {exceedance_prob(bundle1.model, 16, 0.5)!r}")
    lines.append(f"abs_moment(m=100, r=1) = {abs_moment(bundle1.model, 100, 1.0)!r}")
    lines.append(f"abs_moment(m=10000, r=1) = {abs_moment(bundle1.model, 10_000, 1.0)!r}")
    cfg1 = DetectorConfig(eps=0.5, delta=0.5, r=1.0, density=DensityConfig(horizon=10_000))
    v_p = st_dnp(bundle1.model, bundle1.schedule, bundle1.weights, cfg1)
    v_m = st_dnm(bundle1.model, bundle1.schedule, bundle1.weights, cfg1)
    lines.append(f"probability detector: {v_p.verdict.value} tail_max={v_p.tail_max!r}")
    lines.append(f"mean detector (r=1): {v_m.verdict.value} tail_max={v_m.tail_max!r}")

    bundle2 = model_preset("example2")
    lines.append("== sequence model example2 (two-coordinate joint law) ==")
    lines.append(f"exceedance_prob(m=7, eps=0.5) = {exceedance_prob(bundle2.model, 7, 0.5)!r}")
    cdf_vals = [cdf(bundle2.model, LIMIT, t) for t in (-0.5, 0.5, 1.5)]
    lines.append(f"limit cdf at (-0.5, 0.5, 1.5) = {cdf_vals!r}")
    v_d = st_dndc(bundle2.model, bundle2.schedule, bundle2.weights, cfg1)
    points = v_d.extras["points"]
    per_point = [points[t].tail_max for t in sorted(points)]
    lines.append(f"distribution detector: {v_d.verdict.value} per-point tail_max={per_point!r}")
    v_p2 = st_dnp(bundle2.model, bundle2.schedule, bundle2.weights, cfg1)
    lines.append(f"probability detector: {v_p2.verdict.value} tail_max={v_p2.tail_max!r}")

    lines.append("== operator checks ==")
    from .korovkin import IDENTITY, ONE  # noqa: PLC0415

    grid = np.linspace(0.0, 1.0, 257)
    for m in (10, 50, 200):
        dev_one = max(abs(mkz_apply(ONE, m, float(y), 1e-10) - 1.0) for y in grid)
        dev_id = max(abs(mkz_apply(IDENTITY, m, float(y), 1e-10) - float(y)) for y in grid)
        lines.append(f"m={m}: sup|M(1,y)-1| = {dev_one!r}  sup|M(z,y)-y| = {dev_id!r}")
    audit = audit_quadratic_moment()
    lines.append(
        f"second-moment audit (m=50, y=0.5): series={audit.series_value!r} "
        f"quoted={audit.quoted_value!r} difference={audit.difference!r}"
    )
    if note := audit.note():
        lines.append(note)

    # One check for both lifts, so that each block's base table is computed once.
    report, report_cdf = korovkin_check(
        tuple(lifted_operator(p, 1e-8) for p in (Perturbation.NULL_SET, Perturbation.CDF_FACTOR)),
        ("dnp", "dndc"),
        [function_preset("y^3"), function_preset("e^y"), function_preset("|y-1/2|")],
        parse_schedule("stretch"),
        parse_weights("ones"),
        KorovkinConfig(),
    )
    for role, verdicts in (("condition", report.conditions), ("conclusion", report.conclusions)):
        for label, v in verdicts.items():
            lines.append(f"nullset {role} {label}: {v.verdict.value} tail_max={v.tail_max!r}")
    v_one = report_cdf.conditions["1"]
    lines.append(f"cdffactor condition 1: {v_one.verdict.value} tail_max={v_one.tail_max!r}")
    lines += [f"note: {note}" for note in report_cdf.notes]

    lines.append("== seeded sampling check ==")
    est = sample(bundle1.model, 16, 1_000_000, seed).exceedance_prob(0.5)
    lines.append(
        f"example1 m=16 exceedance estimate={est.estimate!r} stderr={est.stderr!r} (exact 0.25)"
    )
    return lines


def cmd_repro(args: argparse.Namespace) -> _Record:
    echo = dict(command="repro", seed=args.seed, horizon=10_000, operator_horizon=200,
                normalizer_mode="regular")
    lines = _repro_report(args.seed)
    expected = Path(__file__).parent / "data" / "repro_expected.txt"
    if args.skip_diff:
        status = "skipped"
    elif not expected.exists():
        status = "missing expected file"
    elif expected.read_text() == _text(echo, lines):
        status = "match"
    else:
        status = "MISMATCH against committed expected output"
    lines.append(f"snapshot: {status}")
    traces = {} if args.out is None else {Path(args.out): _text(echo, lines)}
    return _Record(echo, lines=lines, traces=traces, status=int(status not in ("match", "skipped")))


# Each command and its exit-2 hints, by the error types a smaller flag value avoids.
_COMMANDS = {
    "mean": (cmd_mean, {MemoryError: "use a smaller --horizon"}),
    "detect": (
        cmd_detect,
        {
            CountCapError: "use a smaller --horizon",
            MemoryError: "use a smaller --horizon",
            GridError: "--grid points must avoid the limit-law atoms",
        },
    ),
    "korovkin": (
        cmd_korovkin,
        {
            # Only grid points very close to 1 need windows that wide.
            SeriesCapError: "use a smaller --grid-size",
            CountCapError: "use a smaller --horizon",
            MemoryError: "use a smaller --horizon or --grid-size",
        },
    ),
    "repro": (cmd_repro, {}),
}

# Errors that mean the request itself was malformed (exit 2), as opposed
# to a computation that failed underway (exit 1).  Schedule, weight and
# model violations trace back to the supplied specs, so they count as
# configuration problems wherever they surface; so does a normalizer
# that the supplied schedule and weights make zero.
_CONFIG_ERRORS = (ConfigError, ScheduleError, WeightError, ModelError, DegenerateNormalizerError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _merge_config_file(parser, argv)
        command, hints = _COMMANDS[args.command]
        try:
            record = command(args)
        except tuple(hints) as exc:
            hint = next(h for kind, h in hints.items() if isinstance(exc, kind))
            raise ConfigError(f"{exc}; {hint}") from None
        _write(record)
        return record.status
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
