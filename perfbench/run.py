#!/usr/bin/env python3
"""Benchmark of the fill package, end to end and per layer.

    python3 perfbench/run.py --workload tune_cli --seed 7 --seconds 36 --trace 0

Run it from the root of a checkout; it imports fill from that checkout's
src/ and exits with status 1, printing no result, when there is none.
Inputs are generated from --seed (an integer, or `dev` for 7 and
`heldout` for 1009, the seed kept out of tuning); fill receives only the
generated files. Every workload runs with one thread.

Workloads (each run in its own process, so peak RSS is the workload's):

  tune_cli          `fill tune --metric jaccard --criterion b --min-precision
                    0.85`, then `fill impute` at the winner tune wrote, both
                    through fill.cli.main, on default_spec(1400, 600, 60 binary
                    features). Job = both commands; op = the tune command.
  tune_small_batch  60 cohorts default_spec(200, 100, 30 features) at seeds
                    seed .. seed+59, each loaded from CSV, then
                    prevalence_filter -> distance_matrix -> grid_search(
                    CriterionB(0.85)) -> impute_unknowns at the winner.
                    Job = the 60 cohorts; op = one cohort.
  serve_gower       default_spec(1500, 1500, 60) plus 3 continuous N(50, 15)
                    columns: load_cohort -> prevalence_filter -> Gower
                    distance_matrix -> FillModel.fit(S=0.51, T=1e-3) ->
                    impute_unknowns -> explain_record on the first 200 POS
                    records -> fit_logistic + evaluate_baseline.
                    Job = the whole flow; op = one explain_record.

Jobs repeat while the next one is expected to end within --seconds (at
least one job runs).

End-to-end metrics (--trace 0), each on every workload:
  setup_s      import of fill in a fresh interpreter plus input generation
               and CSV writes, each the median of 3 repeats
  job_s        median wall time of one job
  impute_s     median time per job spent imputing: `fill impute` on
               tune_cli, impute_unknowns elsewhere
  op_ms_p50    median latency of one op
  op_ms_tail   op latency at the highest percentile with at least 10 samples
               beyond it in one job: p80 of 60 cohorts, p95 of 200 explains;
               tune_cli has one op per job and reports the median
  peak_rss_mb  ru_maxrss of the process, read before the output check

The five times are reported at reference machine speed. calibrate(), a
fixed task that never calls fill, runs after set-up, after every job, and
inside a job between tune and impute (tune_cli) or every 10 cohorts
(tune_small_batch). Each timed step is divided by its slowdown: the mean
of the calibrations either side of it over CALIBRATION_REFERENCE_S; set-up
is divided by the first calibration's. On a shared 2-vCPU virtual machine
a fixed Python loop drifted by 40 % within half an hour and raw job times
moved with it. Raw times and calibrations are printed and saved with
every result.

With --trace 1, untraced and traced jobs alternate; the per-layer metrics
(see tracing.PER_LAYER) are raw values per traced job, and
trace.overhead_s is the median traced job minus the median untraced job
after the first, both at reference speed.

The outputs of the first job are checked by check.py, independently of
fill; later jobs must reproduce them exactly. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}. Exit status is 1 when an
output is wrong or an operation failed.
"""

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEEDS = {"dev": 7, "heldout": 1009}
SETUP_REPEATS = 3
# calibrate() takes this long when the machine runs at reference speed
CALIBRATION_REFERENCE_S = 0.25
CHECK_ROWS = 4          # distance rows recomputed pair by pair per check
SERVE_RADIUS = 0.51
SERVE_THRESHOLD = 1e-3
SERVE_EXPLAINED = 200
BATCH_COHORTS = 60
BATCH_CALIBRATE_EVERY = 10   # cohorts between calibrations inside a batch job

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "impute_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
TAIL_PERCENTILE = {"tune_cli": 50, "tune_small_batch": 80, "serve_gower": 95}


def import_fill():
    """Bind `fill` to a namespace of fill's modules, imported from SRC.

    The package's __init__ re-exports functions under module names (for
    example fill.classify is the classify function), so the modules are
    taken from the import system rather than from package attributes.
    """
    if not (SRC / "fill" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fill package under {SRC}")
    sys.path.insert(0, str(SRC))
    global fill, np
    import numpy as np

    package = importlib.import_module("fill")
    if Path(package.__file__).resolve().parent != SRC / "fill":
        sys.exit(f"perfbench: imported fill from {package.__file__}, not from {SRC}")
    fill = types.SimpleNamespace(**{
        name: importlib.import_module(f"fill.{name}")
        for name in ("baseline", "classify", "cli", "cohort", "distance", "explain", "synth", "tune")
    })


def time_fresh_import():
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fill, fill.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def calibrate():
    """Seconds taken by a fixed reference task that never calls fill.

    The task mixes the kinds of work fill's hot paths do: a Python-level
    float loop, many small numpy calls whose results become lists,
    boolean reductions over a 500 x 500 matrix, and int64 matrix
    products of 0/1 rows. It allocates little, so peak RSS stays the
    workload's.
    """
    rng = np.random.default_rng(0)
    matrix = rng.random((500, 500))
    row = rng.random(1000)
    bits = (rng.random((500, 60)) < 0.3).astype(np.int64)
    t0 = time.perf_counter()
    math.fsum(math.exp(-i * 1e-4) for i in range(150_000))
    for k in range(2500):
        math.fsum(np.exp(row[k % 500:] - 1.0).tolist())
    for radius in np.linspace(0.05, 0.95, 120):
        (matrix <= radius).sum(axis=1)
    for _ in range(4):
        bits @ bits.T
    return time.perf_counter() - t0


class Job:
    """One pass of a workload's timed steps, in time order.

    timeline holds ("cal", seconds) for a calibration and (kind, seconds,
    impute_seconds) for a timed step, kind "op" for the workload's unit
    operation and "step" for the rest.
    """

    def __init__(self):
        self.timeline = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None
        self.evidence = None

    def timed(self, kind, seconds, impute_s=0.0):
        self.timeline.append((kind, seconds, impute_s))

    def calibrate(self):
        self.timeline.append(("cal", calibrate()))

    def attempt(self, fn, *args):
        """Run one operation; a raise counts as a failure, not a crash."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark must report, not stop
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None


# --------------------------------------------------------------- tune_cli

def setup_tune_cli(work, seed):
    spec = fill.synth.default_spec(n_labeled=1400, n_unlabeled=600, n_binary_features=60, seed=seed)
    cohort, _ = fill.synth.synth_cohort_with_truth(spec)
    fill.cohort.write_cohort(cohort, work / "tune_cli.csv")
    return {"csv": work / "tune_cli.csv", "out": work / "out"}


def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = fill.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fill {argv[0]} exited {code}")


def job_tune_cli(inputs, keep):
    job = Job()
    csv_path, out = str(inputs["csv"]), str(inputs["out"])
    t0 = time.perf_counter()
    job.attempt(cli, ["tune", "--input", csv_path, "--metric", "jaccard", "--criterion", "b",
                      "--min-precision", "0.85", "--out", out])
    job.timed("op", time.perf_counter() - t0)
    job.calibrate()
    try:
        winner = json.loads((inputs["out"] / "grid_report.json").read_text())["winner"]
        at = ["--radius", repr(winner["radius"]), "--pvalue", repr(winner["p_threshold"])]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        job.attempted += 1
        job.failed += 1
        job.errors.append(f"no winner to impute at: {exc!r}")
        return job
    t0 = time.perf_counter()
    job.attempt(cli, ["impute", "--input", csv_path, "--metric", "jaccard", *at, "--out", out])
    impute_s = time.perf_counter() - t0
    job.timed("step", impute_s, impute_s)
    files = {}
    for name in ("grid_report.json", "grid_table.csv", "imputations.csv", "impute_summary.json"):
        path = inputs["out"] / name
        files[name] = path.read_bytes() if path.exists() else b""
    job.digest = digest(sorted(files.items()))
    job.evidence = files if keep else None
    return job


def check_tune_cli(checker, inputs, evidence, rng):
    data = check.CohortData(inputs["csv"])
    sample = rng.choice(len(data), CHECK_ROWS, replace=False).tolist()
    check.check_cli(checker, data, evidence, sample)


# ------------------------------------------------------- tune_small_batch

def setup_tune_small_batch(work, seed):
    paths = []
    schema = None
    for i in range(BATCH_COHORTS):
        spec = fill.synth.default_spec(200, 100, 30, seed=seed + i)
        cohort, _ = fill.synth.synth_cohort_with_truth(spec)
        paths.append(work / f"batch_{i:02d}.csv")
        fill.cohort.write_cohort(cohort, paths[-1])
        schema = cohort.schema
    return {"csvs": paths, "schema": schema}


def one_cohort(path, schema):
    metric = fill.distance.Metric.JACCARD
    cohort = fill.cohort.prevalence_filter(fill.cohort.load_cohort(path, schema))
    distances = fill.distance.distance_matrix(cohort, metric)
    report = fill.tune.grid_search(cohort, metric, criterion=fill.tune.CriterionB(0.85),
                                   distances=distances)
    w = report.winner
    model = fill.classify.FillModel.fit(
        cohort, fill.classify.Hyperparameters(w.radius, w.p_threshold, metric))
    t0 = time.perf_counter()
    results = fill.classify.impute_unknowns(cohort, model, distances)
    return cohort, distances, report, results, time.perf_counter() - t0


def job_tune_small_batch(inputs, keep):
    job = Job()
    outputs = []
    for n, path in enumerate(inputs["csvs"]):
        if n and n % BATCH_CALIBRATE_EVERY == 0:
            job.calibrate()
        t0 = time.perf_counter()
        done = job.attempt(one_cohort, path, inputs["schema"])
        seconds = time.perf_counter() - t0
        if done is None:
            job.timed("op", seconds)
            outputs.append(None)
            continue
        cohort, distances, report, results, impute_s = done
        job.timed("op", seconds, impute_s)
        w = report.winner
        outputs.append((
            cohort.schema.binary_names,
            [(c.radius, c.p_threshold, c.metrics.true_positives, c.metrics.false_positives)
             for c in report.grid],
            (w.radius, w.p_threshold, w.metrics.true_positives, w.metrics.false_positives),
            [(r.record_id, r.neighborhood_n, r.positive_k, r.p_value, r.decision.value)
             for r in results],
            distances.values[n % len(cohort)].copy(),
        ))
    job.digest = digest([o if o is None else (o[:4], o[4].tolist()) for o in outputs])
    job.evidence = outputs if keep else None
    return job


def check_tune_small_batch(checker, inputs, evidence, rng):
    for n, (path, out) in enumerate(zip(inputs["csvs"], evidence)):
        if out is None:
            continue
        names, grid, winner, results, row = out
        data = check.CohortData(path, prevalence_filter=True)
        checker.features(data, names)
        checker.rows(data, [n % len(data)], [row])
        checker.winner(data, grid, winner, 0.85)
        checker.imputations(data, results, winner[0], winner[1])


# ------------------------------------------------------------ serve_gower

def setup_serve_gower(work, seed):
    spec = fill.synth.default_spec(1500, 1500, 60, seed=seed)
    base, _ = fill.synth.synth_cohort_with_truth(spec)
    continuous = np.random.default_rng(seed).normal(50.0, 15.0, size=(len(base), 3))
    schema = fill.cohort.FeatureSchema(base.schema.binary_names, ("c00", "c01", "c02"))
    cohort = fill.cohort.Cohort.make(schema, base.ids, base.binary, continuous, base.labels)
    fill.cohort.write_cohort(cohort, work / "serve_gower.csv")
    sample = np.random.default_rng(seed).choice(len(cohort), CHECK_ROWS, replace=False)
    return {"csv": work / "serve_gower.csv", "schema": schema, "sample": sample.tolist()}


def serve_flow(inputs, job):
    metric = fill.distance.Metric.GOWER
    t0 = time.perf_counter()
    cohort = fill.cohort.prevalence_filter(fill.cohort.load_cohort(inputs["csv"], inputs["schema"]))
    distances = fill.distance.distance_matrix(cohort, metric)
    model = fill.classify.FillModel.fit(
        cohort, fill.classify.Hyperparameters(SERVE_RADIUS, SERVE_THRESHOLD, metric))
    t1 = time.perf_counter()
    results = fill.classify.impute_unknowns(cohort, model, distances)
    t2 = time.perf_counter()
    job.timed("step", t2 - t0, t2 - t1)
    positives = [r.record_id for r in results if r.decision is fill.classify.Decision.POS]
    explained = []
    for rid in positives[:SERVE_EXPLAINED]:
        t0 = time.perf_counter()
        expl = job.attempt(fill.explain.explain_record, rid, cohort, model, distances)
        job.timed("op", time.perf_counter() - t0)
        if expl is not None:
            explained.append((rid, expl.neighbor_count,
                              [(c.feature, c.effect, c.raw_p, c.adjusted_p) for c in expl.comparisons]))
    t0 = time.perf_counter()
    logistic = fill.baseline.fit_logistic(cohort)
    baseline = fill.baseline.evaluate_baseline(cohort, logistic, 0.5)
    job.timed("step", time.perf_counter() - t0)
    return cohort, distances, results, explained, logistic.weights.tolist(), baseline


def job_serve_gower(inputs, keep):
    job = Job()
    done = job.attempt(serve_flow, inputs, job)
    if done is None:
        return job
    cohort, distances, results, explained, weights, baseline = done
    results = [(r.record_id, r.neighborhood_n, r.positive_k, r.p_value, r.decision.value)
               for r in results]
    job.digest = digest(cohort.schema.binary_names, results, explained, weights, baseline)
    if keep:
        job.evidence = (cohort.schema.binary_names, results, [e[:2] for e in explained],
                        distances.values[inputs["sample"]].copy())
    return job


def check_serve_gower(checker, inputs, evidence, rng):
    names, results, explained, rows = evidence
    data = check.CohortData(inputs["csv"], n_continuous=3, prevalence_filter=True)
    checker.features(data, names)
    checker.rows(data, inputs["sample"], rows)
    checker.imputations(data, results, SERVE_RADIUS, SERVE_THRESHOLD)
    checker.explanations(data, explained, SERVE_RADIUS)


WORKLOADS = {
    "tune_cli": (setup_tune_cli, job_tune_cli, check_tune_cli),
    "tune_small_batch": (setup_tune_small_batch, job_tune_small_batch, check_tune_small_batch),
    "serve_gower": (setup_serve_gower, job_serve_gower, check_serve_gower),
}


# ---------------------------------------------------------------- running

def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    sources = hashlib.sha256()
    for path in sorted((SRC / "fill").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    import scipy
    return {
        "commit": commit or "unknown: not a git checkout",
        "src_fill_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def parse_seed(text):
    seed = SEEDS.get(text)
    if seed is None:
        seed = int(text)
    if not 0 <= seed < 2**63:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**63)")
    return seed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=parse_seed, default=SEEDS["dev"])
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def slowdowns(first_calibration_s, jobs):
    """Per job, one factor per timeline entry.

    A timed step's factor is the mean of the calibrations either side of
    it over CALIBRATION_REFERENCE_S; every job ends with a calibration.
    """
    out, before = [], first_calibration_s
    for job in jobs:
        cals = [before] + [item[1] for item in job.timeline if item[0] == "cal"]
        factors, i = [], 0
        for item in job.timeline:
            if item[0] == "cal":
                i += 1
                factors.append(1.0)
            else:
                factors.append((cals[i] + cals[i + 1]) / 2 / CALIBRATION_REFERENCE_S)
        out.append(factors)
        before = cals[-1]
    return out


def summarise_jobs(jobs, factors, workload):
    """job_s, impute_s and op latencies, each step divided by its factor."""
    jobs_s, impute_s, ops = [], [], []
    for job, job_factors in zip(jobs, factors):
        steps = [(item, f) for item, f in zip(job.timeline, job_factors) if item[0] != "cal"]
        jobs_s.append(sum(item[1] / f for item, f in steps))
        impute_s.append(sum(item[2] / f for item, f in steps))
        ops.extend(item[1] * 1e3 / f for item, f in steps if item[0] == "op")
    return {
        "job_s": statistics.median(jobs_s),
        "impute_s": statistics.median(impute_s),
        "op_ms_p50": float(np.percentile(ops, 50)) if ops else None,
        "op_ms_tail": float(np.percentile(ops, TAIL_PERCENTILE[workload])) if ops else None,
    }


def measure(args, work):
    setup, run_job, check_outputs = WORKLOADS[args.workload]
    import_s = [time_fresh_import() for _ in range(SETUP_REPEATS)]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = setup(work, args.seed)
        setup_s.append(time.perf_counter() - t0)

    # Job 1 is checked. With tracing, traced and untraced jobs then alternate,
    # so the overhead compares warm jobs with warm jobs.
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    first_calibration_s = calibrate()
    jobs, traced_jobs = [run_job(inputs, True)], []
    jobs[0].calibrate()

    def another_round():
        # start a round only if it should end within --seconds
        if tracer is not None and not traced_jobs:
            return True
        done = len(jobs) + len(traced_jobs)
        elapsed = time.perf_counter() - start
        return elapsed * (1 + (2 if tracer else 1) / done) <= args.seconds

    ordered = [jobs[0]]   # every job in run order, each ending calibrated
    while another_round():
        if tracer is not None:
            tracer.run_id = f"{args.workload}-{args.seed}-job{len(ordered) + 1}"
            with tracer:
                traced_jobs.append(run_job(inputs, False))
            traced_jobs[-1].calibrate()
            ordered.append(traced_jobs[-1])
        jobs.append(run_job(inputs, False))
        jobs[-1].calibrate()
        ordered.append(jobs[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = time.perf_counter()
    checker = check.Checker()
    if jobs[0].evidence is not None:
        try:
            check_outputs(checker, inputs, jobs[0].evidence, np.random.default_rng(args.seed))
        except Exception as exc:  # unreadable outputs are wrong outputs
            checker.expect(False, f"outputs could not be checked: {exc!r}")
    for n, job in enumerate(jobs[1:] + traced_jobs, start=2):
        checker.expect(job.digest == jobs[0].digest, f"job {n} outputs differ from job 1")
    check_s = time.perf_counter() - checked

    all_jobs = jobs + traced_jobs
    ops = [item[1] * 1e3 for job in jobs for item in job.timeline if item[0] == "op"]
    result = {
        "measured_s": checked - start,
        "check_s": check_s,
        "jobs": len(jobs),
        "traced_jobs": len(traced_jobs),
        "ops": len(ops),
        "attempted": sum(j.attempted for j in all_jobs),
        "failed": sum(j.failed for j in all_jobs),
        "errors": [e for j in all_jobs for e in j.errors][:20],
        "wrong_outputs": checker.wrong,
        "checked_outputs": checker.checked,
        "check_notes": checker.notes,
        "warnings": [],
    }
    factors = dict(zip(map(id, ordered), slowdowns(first_calibration_s, ordered)))

    def summary(some_jobs, normalise=True):
        return summarise_jobs(some_jobs, [factors[id(j)] if normalise else [1.0] * len(j.timeline)
                                          for j in some_jobs], args.workload)

    if tracer is None:
        raw = summary(jobs, normalise=False)
        raw["setup_s"] = statistics.median(import_s) + statistics.median(setup_s)
        metrics = summary(jobs)
        metrics["setup_s"] = raw["setup_s"] * CALIBRATION_REFERENCE_S / first_calibration_s
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics = {name: metrics[name] for name in END_TO_END}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        result["raw_times"] = raw
        result["calibration_s"] = [first_calibration_s] + [
            item[1] for job in jobs for item in job.timeline if item[0] == "cal"]
    else:
        metrics = tracing.layer_metrics(tracer, len(traced_jobs))
        overhead = summary(traced_jobs)["job_s"] - summary(jobs[1:])["job_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        result["metrics"] = metrics
        result["warnings"] = tracer.warnings
        result["spans"] = tracer.spans
    return result


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_fill()
    global check, tracing
    import check
    import tracing

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    spans = result.pop("spans", None)
    results_dir = HERE / "_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({"environment": env, **result}, indent=1))
    if spans is not None:
        with gzip.open(results_dir / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["id", "parent", "run", "name", "start_ns", "end_ns", "raised", "facts"],
                       "spans": spans}, fh)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={result['jobs']} traced_jobs={result['traced_jobs']} ops={result['ops']}")
    print("environment " + json.dumps(env))
    for line in result["warnings"] + result["errors"] + result["check_notes"]:
        print(f"  ! {line}")
    if "raw_times" in result:
        print("  calibrations " + " ".join(f"{c:.3g}" for c in result["calibration_s"])
              + f" s; raw times {json.dumps(result['raw_times'])}")
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:30s} {value:>14s} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':30s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} operations)")
    print(f"  {'wrong_outputs':30s} {result['wrong_outputs']:>14d} count "
          f"(of {result['checked_outputs']} checked)")
    correct = result["wrong_outputs"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
