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
from .families import ALL_FAMILIES, Family
from .likelihood import MhConfig
from .simulate import (ALL_METHODS, AnalysisConfig, ScenarioSpec, SweepSpec,
                       analyze_dataset, generate, run_sweep)

log = logging.getLogger("transelect")

SWEEP_FIELDS = ["axis_value", "family", "prior", "mean_pmp",
                "mean_lambda_mode", "replications"]
REPORT_FIELDS = ["family", "prior", "method", "log_marginal", "mc_se",
                 "posterior_model_prob", "lambda_mode", "lambda_sd"]


def ingest_csv(path, column) -> np.ndarray:
    """Read one numeric column; blank cells are dropped with a logged count."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyColumn(f"{path} is empty")

    header = rows[0]
    try:
        idx = int(column)
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


def _parse_families(text: str) -> tuple[Family, ...]:
    wanted = [t.strip().lower() for t in text.split(",") if t.strip()]
    by_value = {f.value: f for f in ALL_FAMILIES}
    aliases = {"yj": "yeojohnson", "bc": "boxcox", "mod": "modulus"}
    fams = []
    for w in wanted:
        w = aliases.get(w, w)
        if w not in by_value:
            raise ValueError(f"unknown family: {w}")
        fams.append(by_value[w])
    return tuple(fams)


def _analysis_config(args) -> AnalysisConfig:
    mh = MhConfig(burn_in=args.burn_in, draws=args.draws, seed=0)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    return AnalysisConfig(mh=mh, chib_draws=args.chib_j, n_star=args.nstar,
                          imaginary_source=args.imaginary, methods=methods,
                          families=_parse_families(args.families),
                          seed=args.seed)


def _priors_for(arg: str) -> list[str]:
    return {"a": ["A"], "b": ["B"], "both": ["A", "B"]}[arg]


def _write_csv(path: Path, fields: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _run_analysis(y: np.ndarray, args, config_echo: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _analysis_config(args)
    if args.dump_chains and not (cfg.needs_chain
                                 and any(f.has_lambda for f in cfg.families)):
        log.warning("--dump-chains: no MH chains exist for methods %s and "
                    "families %s; no chain files written", args.methods, args.families)
    chain_dir = out / "chains"
    tuned = {}
    reports = []
    rows = []
    for prior_kind in _priors_for(args.prior):
        def sink(family, chain, _pk=prior_kind):
            tuned[f"{family.value}_{_pk}"] = chain.step_sd ** 2
            if args.dump_chains:
                chain_dir.mkdir(exist_ok=True)
                lam = chain.lambda_draws
                with (chain_dir / f"{family.value}_{_pk}.csv").open("w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["iteration", "lambda", "log_posterior"])
                    for i, (l, k) in enumerate(zip(lam, chain.log_kernel)):
                        w.writerow([i, repr(float(l)), repr(float(k))])

        report = analyze_dataset(y, prior_kind, cfg, chain_sink=sink)
        reports.append(report.to_dict())
        rows.extend(report.csv_rows())

    (out / "report.json").write_text(
        json.dumps({"reports": reports, "timestamp": _timestamp()},
                   indent=2, sort_keys=True))
    _write_csv(out / "report.csv", REPORT_FIELDS, rows)

    manifest = {
        **report.setup,  # the same for every prior
        "config": config_echo,
        "seed": cfg.seed,
        "tuned_proposal_variance": tuned,
        "mh_skipped": not cfg.needs_chain,
        "mh_draws": cfg.mh.draws,
        "mh_burn_in": cfg.mh.burn_in,
        "chib_j": cfg.chib_draws,
        "include_constant": True,
        "timestamp": _timestamp(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"wrote report.json, report.csv, manifest.json to {out}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_analyze(args) -> None:
    y = ingest_csv(args.input, args.column)
    _run_analysis(y, args, {"command": "analyze", "input": str(args.input),
                            "column": args.column, **_echo_common(args)})


def _cmd_scenario(args) -> None:
    spec = ScenarioSpec(distribution=args.dist, n=args.n, seed=args.seed,
                        mu=args.mu, sigma=args.sigma, shape=args.shape,
                        rate=args.rate, df=args.df, ncp=args.ncp)
    _run_analysis(generate(spec), args,
                  {"command": "scenario", "dist": args.dist, "n": args.n,
                   **_echo_common(args)})


def _cmd_sweep(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    points = tuple(float(p) for p in args.points.split(","))
    cfg = _analysis_config(args)
    if args.dump_chains:
        log.warning("--dump-chains: sweep writes no chain files")

    path = out / "sweep.csv"
    done: list[dict] = []
    failures: list[dict] = []

    def flush(point_rows):
        done.extend(point_rows)
        _write_csv(path, SWEEP_FIELDS, done)  # rewrite so interrupts keep finished points

    for prior_kind in _priors_for(args.prior):
        sweep = SweepSpec(axis=args.axis.replace("-", "_"), points=points, n=args.n,
                          prior_kind=prior_kind, replications=args.replications,
                          seed=args.seed)
        run_sweep(sweep, cfg, on_point=flush, on_failure=failures.append)
    manifest = {"config": {"command": "sweep", "axis": sweep.axis,
                           "points": list(points), "n": args.n,
                           "replications": args.replications,
                           **_echo_common(args)},
                "failures": failures,
                "mh_skipped": not cfg.needs_chain,
                "timestamp": _timestamp()}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"wrote sweep.csv to {out}")


def _echo_common(args) -> dict:
    return {"prior": args.prior, "families": args.families, "seed": args.seed,
            "burn_in": args.burn_in, "draws": args.draws, "chib_j": args.chib_j,
            "nstar": args.nstar, "imaginary": args.imaginary,
            "methods": args.methods, "out": str(args.out)}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", choices=["a", "b", "both"], default="both")
    p.add_argument("--families", default=",".join(f.value for f in ALL_FAMILIES))
    p.add_argument("--burn-in", type=int, default=MhConfig.burn_in, dest="burn_in")
    p.add_argument("--draws", type=int, default=MhConfig.draws)
    p.add_argument("--chib-j", type=int, default=AnalysisConfig.chib_draws, dest="chib_j")
    p.add_argument("--nstar", type=int, default=None)
    p.add_argument("--imaginary", choices=["simulated", "empirical"],
                   default="simulated")
    p.add_argument("--methods", default=",".join(ALL_METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--dump-chains", action="store_true", dest="dump_chains")
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
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--shape", type=float, default=2.0)
    p.add_argument("--rate", type=float, default=3.0)
    p.add_argument("--df", type=float, default=2.0)
    p.add_argument("--ncp", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("sweep", help="sensitivity sweep over a distribution axis")
    p.add_argument("--axis", choices=["gamma-skewness", "student-df"], required=True)
    p.add_argument("--points", required=True,
                   help="comma-separated axis values (skewness or df)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--replications", type=int, default=10)
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
