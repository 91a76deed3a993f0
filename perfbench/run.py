"""Benchmark of transelect's analysis pipeline on the paper's scenarios.

    python3 perfbench/run.py --workload paper-n100 --seed 1 --seconds 10 --trace 0

Workloads (make-up, seeds and reference figures in README.md):
  paper-n100        normal, Gamma(2, 3) and noncentral t(df=2, ncp=-1) at n=100,
                    each analysed under prior A and prior B, all estimators
  paper-n1000       Gamma(2, 3) and the noncentral t at n=1000, the same way
  sweep-quadrature  `transelect sweep --axis gamma-skewness --methods quadrature`
                    at n=100, in-process through transelect.cli.main, once
                    with --prior a and once with --prior b

One round runs every unit of the workload once (a unit is one analysis, or
one sweep command); the run repeats rounds until --seconds have passed. With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it wraps the
program's layers and reports per-layer metrics instead. Every output is
checked by checks.py. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Raw results and traces
go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# numpy reads these when it is first imported. The load is one closed loop:
# one analysis at a time, no worker threads or processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("paper-n100", "paper-n1000", "sweep-quadrature")
# The acceptance suite's scenario parameters.
SCENARIOS = {"normal": {}, "gamma": {"shape": 2.0, "rate": 3.0},
             "student": {"df": 2.0, "ncp": -1.0}}
# paper-n1000 leaves out the normal scenario to keep a run near 40 s: its
# quadrature load sits in the student scenario.
PAPER = {"paper-n100": (100, ("normal", "gamma", "student")),
         "paper-n1000": (1000, ("gamma", "student"))}
BASE_SEED = 1000        # --seed k, round r: dataset seed 1000 + k + 10000 r
ROUND_STRIDE = 10_000
# Paper analyses keep AnalysisConfig's defaults, its seed 0 included, so the
# imaginary data are the same in every run and only the datasets vary with
# --seed; the Dual prior-B quadrature cost swings with the imaginary data.
# The sweep runs at n=100 so that each prior gets four analyses per run.
SWEEP_N = 100
SWEEP_POINTS = (2.0, 0.5)
SWEEP_REPLICATIONS = 2
SETUP_PROBES = 3
LOGLIK_CALLS, LOGLIK_REPEATS = 1000, 5


def round_seed(seed: int, r: int) -> int:
    return BASE_SEED + seed + ROUND_STRIDE * r


def import_program() -> None:
    """Import transelect from this checkout's src/ with numpy pinned to one thread.

    numpy and transelect are imported inside functions, after this has run.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "transelect" / "__init__.py").is_file():
        sys.stderr.write(f"transelect sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import transelect
    if SRC not in Path(transelect.__file__).resolve().parents:
        sys.stderr.write(f"imported transelect from {transelect.__file__}, not {SRC}\n")
        raise SystemExit(2)
    import checks  # noqa: F401  (the benchmark's own modules are part of set-up)
    import tracing  # noqa: F401


def build_round(workload: str, seed: int, r: int) -> list[dict]:
    """The units of round r: the inputs, generated from the seed."""
    from transelect.simulate import ScenarioSpec, generate
    s = round_seed(seed, r)
    if workload == "sweep-quadrature":
        units = [{"dist": "gamma", "prior": p, "seed": s,
                  "analyses": len(SWEEP_POINTS) * SWEEP_REPLICATIONS} for p in "BA"]
    else:
        n, dists = PAPER[workload]
        units = []
        for dist in dists:
            y = generate(ScenarioSpec(dist, n, seed=s, **SCENARIOS[dist]))
            units += [{"dist": dist, "prior": p, "y": y, "seed": s, "analyses": 1}
                      for p in "AB"]
    for k, unit in enumerate(units):
        unit["id"] = f"r{r}u{k}"
    return units


class Recorder:
    """Keeps the inputs, report and wall time of every analysis.

    It wraps simulate.analyze_dataset, which run_scenario (and so the sweep)
    also calls; one wrapper call per analysis is all it adds to a run. The
    tracer, when installed, wraps this wrapper.
    """

    def __init__(self):
        from transelect import simulate
        self._simulate, self._original = simulate, simulate.analyze_dataset
        self.records: list[dict] = []
        self.unit, self.traced = None, False
        original = self._original

        def analyze_dataset(y, prior_kind, cfg, *args, **kwargs):
            t = time.perf_counter()
            report = original(y, prior_kind, cfg, *args, **kwargs)
            self.records.append({"unit": self.unit, "traced": self.traced,
                                 "prior": prior_kind, "wall": time.perf_counter() - t,
                                 "y": y, "cfg_seed": cfg.seed, "report": report.to_dict()})
            return report

        simulate.analyze_dataset = analyze_dataset

    def restore(self) -> None:
        self._simulate.analyze_dataset = self._original

    def of(self, outcome: dict) -> list[dict]:
        return [x for x in self.records
                if (x["unit"], x["traced"]) == (outcome["unit"], outcome["traced"])]


def run_unit(workload: str, unit: dict, rec: Recorder, tracer=None) -> dict:
    """Run one unit; return its wall time, error and sweep output."""
    from transelect import cli, simulate
    from transelect.simulate import AnalysisConfig
    rec.unit, rec.traced = unit["id"], tracer is not None
    outcome = {"unit": unit["id"], "traced": rec.traced, "error": None, "csv": None}
    t = time.perf_counter()
    if workload != "sweep-quadrature":
        try:
            simulate.analyze_dataset(unit["y"], unit["prior"], AnalysisConfig())
        except Exception as exc:  # counted as a failed analysis; the run goes on
            outcome["error"] = f"{type(exc).__name__}: {exc}"
    else:
        out = OUT / f"sweep-{os.getpid()}-{unit['id']}-{int(rec.traced)}"
        argv = ["sweep", "--axis", "gamma-skewness",
                "--points", ",".join(str(p) for p in SWEEP_POINTS),
                "--n", str(SWEEP_N), "--replications", str(SWEEP_REPLICATIONS),
                "--methods", "quadrature", "--prior", unit["prior"].lower(),
                "--seed", str(unit["seed"]), "--out", str(out)]
        with contextlib.redirect_stdout(sys.stderr):
            code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        if code == 0:
            outcome["csv"] = (out / "sweep.csv").read_text()
        else:
            outcome["error"] = f"cli.main returned {code}"
        shutil.rmtree(out, ignore_errors=True)
    outcome["wall"] = time.perf_counter() - t
    return outcome


def imaginary_seed(cfg_seed: int) -> int:
    """The imaginary-data seed analyze_dataset derives from its config seed."""
    import numpy as np
    return int(np.random.SeedSequence(entropy=cfg_seed, spawn_key=(99,))
               .generate_state(1)[0])


def own_evidence(y, prior: str, cfg_seed: int) -> dict[str, float]:
    """Dense-grid evidence of every family. The imaginary data and prior
    parameters come from the program's public builders."""
    import checks
    from transelect.families import Family
    from transelect.priors import build_unit_info_prior, estimate_dual_anchor, make_imaginary
    imaginary = make_imaginary(n_star=len(y), seed=imaginary_seed(cfg_seed))
    anchor = estimate_dual_anchor(imaginary)
    own = {}
    for fam in checks.FAMILIES:
        if fam in ("id", "log") or prior == "A":
            own[fam] = checks.own_evidence(fam, y, prior, imaginary_raw=imaginary.prepared.raw)
        else:
            p = build_unit_info_prior(Family(fam), imaginary, anchor=anchor)
            own[fam] = checks.own_evidence(fam, y, "B", location=p.location, scale=p.scale)
    return own


def expected_first(workload: str, dist: str) -> str | None:
    # Box-Cox wins every gamma n=1000 dataset tried, by 28 nats or more.
    # Yeo-Johnson wins some gamma n=100 and student n=1000 datasets, so there
    # the winner is checked against the dense-grid evidence only.
    return "boxcox" if (workload, dist) == ("paper-n1000", "gamma") else None


def check_outcome(workload: str, unit: dict, outcome: dict,
                  recs: list[dict]) -> tuple[list[str], str | None]:
    """Check one unit's analyses and sweep rows: (analysis failures, sweep failure)."""
    import checks
    problems, sweep = [], None
    for rec in recs:
        try:
            own = own_evidence(rec["y"], rec["prior"], rec["cfg_seed"])
            rec["max_chib_gap"] = max(
                (abs(f["evidence"]["chib"]["log_marginal"] - own[f["family"]])
                 for f in rec["report"]["families"] if "chib" in f["evidence"]), default=None)
            checks.check_report(rec["report"], own, expected_first(workload, unit["dist"]))
            checks.check_winner(rec["report"], own)
        except checks.CheckFailure as exc:
            problems.append(f"{unit['id']} {rec['prior']} seed {rec['cfg_seed']}: {exc}")
    if outcome["csv"] is not None:
        try:
            checks.check_sweep(list(csv.DictReader(outcome["csv"].splitlines())),
                               list(SWEEP_POINTS), SWEEP_REPLICATIONS)
        except checks.CheckFailure as exc:
            sweep = f"{unit['id']} sweep: {exc}"
    return problems, sweep


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh process until it has imported the
    program and built its first round of inputs, once per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def loglik_us(workload: str, seed: int) -> dict[str, float]:
    """Microseconds per LikelihoodContext.loglik call at the workload's n,
    the median of repeated timed loops, outside any analysis."""
    from transelect.families import Family, prepare
    from transelect.likelihood import LikelihoodContext
    from transelect.simulate import ScenarioSpec, generate
    n = PAPER[workload][0] if workload in PAPER else SWEEP_N
    data = prepare(generate(ScenarioSpec("gamma", n, seed=round_seed(seed, 0))))
    out = {}
    for fam in Family:
        ctx = LikelihoodContext(fam, data)
        runs = []
        for _ in range(LOGLIK_REPEATS):
            t = time.perf_counter()
            for _ in range(LOGLIK_CALLS):
                ctx.loglik(0.5)
            runs.append((time.perf_counter() - t) / LOGLIK_CALLS * 1e6)
        out[fam.value] = statistics.median(runs)
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {"machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "load_at_start": os.getloadavg(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def run(args) -> dict:
    import tracing
    OUT.mkdir(exist_ok=True)
    env = environment()
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    first = build_round(args.workload, args.seed, 0)

    rec = Recorder()
    tracer = tracing.Tracer() if args.trace else None
    units, outcomes = {}, []
    t0, c0 = time.perf_counter(), time.process_time()
    r = 0
    while r == 0 or time.perf_counter() - t0 < args.seconds:
        for k, unit in enumerate(first if r == 0 else build_round(args.workload, args.seed, r)):
            units[unit["id"]] = unit
            # The traced run also runs its first units untraced (priors A and
            # B of one dataset, or one sweep command), alternating which goes
            # first, to compare outputs and measure the tracing overhead.
            if tracer is None:
                modes = (False,)
            elif r == 0 and k < (1 if args.workload == "sweep-quadrature" else 2):
                modes = (False, True) if k % 2 == 0 else (True, False)
            else:
                modes = (True,)
            for traced in modes:
                if not traced:
                    outcomes.append(run_unit(args.workload, unit, rec))
                    continue
                tracer.install()
                try:
                    outcomes.append(run_unit(args.workload, unit, rec, tracer))
                finally:
                    tracer.restore()
        r += 1
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.restore()

    # A unit's analyses fail if they raised (or never ran because the sweep
    # stopped), or if a check rejects them; a failed sweep check fails them all.
    problems, attempted, failed, correct = [], 0, 0, True
    for o in outcomes:
        recs, planned = rec.of(o), units[o["unit"]]["analyses"]
        bad, sweep_bad = check_outcome(args.workload, units[o["unit"]], o, recs)
        correct = correct and not bad and not sweep_bad
        attempted += planned
        failed += planned if sweep_bad else (planned - len(recs)) + len(bad)
        problems += bad + [p for p in (sweep_bad, o["error"] and f"{o['unit']}: {o['error']}") if p]

    result = {"name": name, "args": vars(args), "environment": env, "rounds": r,
              "elapsed_s": elapsed, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
              "analyses": [{k: x.get(k) for k in ("unit", "traced", "prior", "cfg_seed",
                                                   "wall", "max_chib_gap")}
                           | {"ranking": x["report"]["ranking"]} for x in rec.records],
              "problems": problems}
    if tracer is None:
        walls = {p: [x["wall"] for x in rec.records if x["prior"] == p] for p in "AB"}
        done = len(rec.records)
        setup = measure_setup(args.workload, args.seed)
        result["setup_probes_s"] = setup
        metrics = {
            "analysis_a_s": (statistics.fmean(walls["A"]), "s"),
            "analysis_b_s": (statistics.fmean(walls["B"]), "s"),
            "analyses_per_min": (done / (elapsed / 60.0), "1/min"),
            "cpu_s_per_analysis": (cpu / done, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        try:
            tracing.check_self_times(tracer.spans)
        except AssertionError as exc:
            correct = False
            problems.append(str(exc))
        replays = [(u, t) for u in outcomes if not u["traced"]
                   for t in outcomes if t["traced"] and t["unit"] == u["unit"]]
        for u, t in replays:
            same = [x["report"] for x in rec.of(u)] == [x["report"] for x in rec.of(t)]
            if not same or u["csv"] != t["csv"]:
                correct = False
                problems.append(f"{t['unit']}: traced and untraced outputs differ")
        overhead = (sum(t["wall"] for _, t in replays)
                    / sum(u["wall"] for u, _ in replays) - 1.0) * 100.0
        metrics = tracing.layer_metrics(tracer, loglik_us(args.workload, args.seed), overhead)
        result["absent"] = tracer.absent
        tracer.dump(OUT / f"{name}.spans.jsonl")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1))
    for p in problems:
        sys.stderr.write(f"problem: {p}\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import_program()
    if args.setup_probe:
        build_round(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
