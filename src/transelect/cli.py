"""Command-line entry point: analyze a CSV column, run simulated scenarios, run sweeps."""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import EmptyColumn, ParseError, TranselectError
from .families import ALL_FAMILIES
from .likelihood import MhConfig
from .priors import IMAGINARY_SOURCES
from .simulate import (ALL_METHODS, SCENARIO_PARAMS, AnalysisConfig, ScenarioSpec,
                       SweepSpec, analyze_dataset, generate, run_sweep)

log = logging.getLogger("transelect")

SWEEP_FIELDS = ["axis_value", "family", "prior", "mean_pmp",
                "mean_lambda_mode", "replications"]
REPORT_FIELDS = ["family", "prior", "method", "log_marginal", "mc_se",
                 "posterior_model_prob", "lambda_mode", "lambda_sd"]


def ingest_csv(path, column) -> np.ndarray:
    """Read one numeric column, named or given by a non-negative index; blank
    cells are dropped with a logged count."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:  # drops an Excel BOM
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyColumn(f"{path} is empty")

    header = rows[0]
    try:
        idx = int(column)
        if idx < 0:
            raise ParseError(f"column index {column!r} is negative")
        start = 0
        # a non-numeric first row is a header even when the column is an index
        try:
            float(header[idx])
        except (ValueError, IndexError):
            start = 1
    except ValueError:
        if column not in header:
            raise ParseError(f"column {column!r} not found in header {header}")
        idx = header.index(column)
        start = 1

    values, dropped = [], 0
    for row_no, row in enumerate(rows[start:], start=start + 1):
        if not row or all(not c.strip() for c in row):
            continue
        cell = row[idx].strip() if idx < len(row) else ""
        if not cell:
            dropped += 1
            continue
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"row {row_no}: cannot parse {cell!r} as a number")
        if not math.isfinite(v):
            raise ParseError(f"row {row_no}: non-finite value {cell!r}")
        values.append(v)
    if dropped:
        log.warning("dropped %d rows with missing values in column %s", dropped, column)
    if not values:
        raise EmptyColumn(f"column {column} has no usable values")
    return np.asarray(values)


def _analysis_config(args) -> AnalysisConfig:
    mh = MhConfig(burn_in=args.burn_in, draws=args.draws)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    aliases = {"yj": "yeojohnson", "bc": "boxcox", "mod": "modulus"}
    names = [f.strip().lower() for f in args.families.split(",") if f.strip()]
    return AnalysisConfig(mh=mh, chib_draws=args.chib_j, n_star=args.nstar,
                          imaginary_source=args.imaginary, methods=methods,
                          families=tuple(aliases.get(f, f) for f in names),
                          seed=args.seed)


def _priors_for(arg: str) -> list[str]:
    return {"a": ["A"], "b": ["B"], "both": ["A", "B"]}[arg]


def _write_csv(path: Path, fields: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _run_analysis(y: np.ndarray, args) -> None:
    cfg = _analysis_config(args)
    reports = [analyze_dataset(y, p, cfg) for p in _priors_for(args.prior)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_chains:
        chained = [r for report in reports for r in report.results if r.chain is not None]
        if not chained:
            log.warning("--dump-chains: no MH chains exist for methods %s and "
                        "families %s; no chain files written", args.methods, args.families)
        for r in chained:
            (out / "chains").mkdir(exist_ok=True)
            path = out / "chains" / f"{r.family.value}_{r.prior_kind}.csv"
            with path.open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["iteration", "lambda", "log_posterior"])
                w.writerows([i, repr(float(l)), repr(float(k))] for i, (l, k)
                            in enumerate(zip(r.chain.lambda_draws, r.chain.log_kernel)))

    dicts = [r.to_dict() for r in reports]
    (out / "report.json").write_text(
        json.dumps({"reports": dicts, "timestamp": _timestamp()}, indent=2, sort_keys=True))
    # report.csv flattens the same dicts: one row per family and evidence
    # method, the family's fields beside that method's estimate
    rows = [{**fam, **est, "prior": fam["prior_kind"], "method": method}
            for d in dicts for fam in d["families"]
            for method, est in fam["evidence"].items()]
    _write_csv(out / "report.csv", REPORT_FIELDS, rows)
    _write_manifest(out, args, cfg, **reports[0].setup)  # the same for every prior
    print(f"wrote report.json, report.csv, manifest.json to {out}")


def _write_manifest(out: Path, args, cfg: AnalysisConfig, **fields) -> None:
    """manifest.json: `fields`, the command, seed and timestamp, whether MH was
    skipped, and `config`, every parsed flag: a --config file that replays the
    run under the same subcommand."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "command", "config")}
    manifest = {**fields, "command": args.command, "seed": cfg.seed,
                "mh_skipped": not cfg.needs_chain, "timestamp": _timestamp(),
                "config": config}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_analyze(args) -> None:
    _run_analysis(ingest_csv(args.input, args.column), args)


def _cmd_scenario(args) -> None:
    spec = ScenarioSpec(distribution=args.dist, n=args.n, seed=args.seed,
                        **{k: getattr(args, k) for k in SCENARIO_PARAMS})
    _run_analysis(generate(spec), args)


def _cmd_sweep(args) -> None:
    cfg = _analysis_config(args)
    points = tuple(float(p) for p in args.points.split(","))
    sweeps = [SweepSpec(axis=args.axis.replace("-", "_"), points=points, n=args.n,
                        prior_kind=prior_kind, replications=args.replications,
                        seed=args.seed)
              for prior_kind in _priors_for(args.prior)]
    out = Path(args.out)
    if args.dump_chains:
        log.warning("--dump-chains: sweep writes no chain files")

    path = out / "sweep.csv"
    done: list[dict] = []
    failures: list[dict] = []

    def flush(point_rows):
        done.extend(point_rows)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(path, SWEEP_FIELDS, done)  # rewrite so interrupts keep finished points

    for sweep in sweeps:
        run_sweep(sweep, cfg, on_point=flush, on_failure=failures.append)
    _write_manifest(out, args, cfg, failures=failures)
    print(f"wrote sweep.csv to {out}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", choices=["a", "b", "both"], default="both")
    p.add_argument("--families", default=",".join(f.value for f in ALL_FAMILIES))
    p.add_argument("--burn-in", type=int, default=MhConfig.burn_in, dest="burn_in")
    p.add_argument("--draws", type=int, default=MhConfig.draws)
    p.add_argument("--chib-j", type=int, default=AnalysisConfig.chib_draws, dest="chib_j")
    p.add_argument("--nstar", type=int, default=None)
    p.add_argument("--imaginary", choices=IMAGINARY_SOURCES,
                   default=AnalysisConfig.imaginary_source)
    p.add_argument("--methods", default=",".join(ALL_METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--dump-chains", action=argparse.BooleanOptionalAction,
                   default=False, dest="dump_chains")
    p.add_argument("--config", default=None,
                   help="JSON file with defaults; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transelect",
        description="Bayesian selection among normalizing transformation families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="0")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scenario", help="analyze a simulated dataset")
    p.add_argument("--dist", choices=["normal", "gamma", "student"], required=True)
    p.add_argument("--n", type=int, default=100)
    for name in SCENARIO_PARAMS:
        p.add_argument(f"--{name}", type=float, default=getattr(ScenarioSpec, name))
    _add_common(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("sweep", help="sensitivity sweep over a distribution axis")
    p.add_argument("--axis", choices=["gamma-skewness", "student-df"], required=True)
    p.add_argument("--points", required=True,
                   help="comma-separated axis values (skewness or df)")
    p.add_argument("--n", type=int, default=SweepSpec.n)
    p.add_argument("--replications", type=int, default=SweepSpec.replications)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def _config_path(argv: list[str]) -> str | None:
    """The --config value, given as `--config FILE` or `--config=FILE`."""
    pre = argparse.ArgumentParser(prog="transelect", add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str],
                       cfg_path: str) -> list[str]:
    """argv with the file's flags right after the subcommand, before the
    explicit flags, which therefore win. Only --config (and -h) can come
    before the subcommand; they are moved after it."""
    values = json.loads(Path(cfg_path).read_text())
    if not isinstance(values, dict):
        raise ValueError(f"{cfg_path}: expected a JSON object of flag values")
    injected = []
    for key, val in values.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            injected.append(flag)
        elif val is not False and val is not None:
            injected.extend([flag, str(val)])
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 2 if argv[i] == "--config" else 1
    if i == len(argv):
        parser.error("--config needs a subcommand (analyze, scenario or sweep)")
    return argv[i:i + 1] + injected + argv[:i] + argv[i + 1:]


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    cfg_path = _config_path(argv)
    try:
        if cfg_path is not None:
            argv = _apply_config_file(parser, argv, cfg_path)
        args = parser.parse_args(argv)
        args.func(args)
    except (TranselectError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
