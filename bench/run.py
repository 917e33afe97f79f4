"""platevac benchmark: closed-loop verification jobs, one client, one workload.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's jobs one at a time (the next job starts when the
previous one and its oracle check have finished), in whole rounds, for about
S seconds. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 every job runs twice, untraced and traced
with identical inputs, and the metrics are the per-layer ones from the
traced runs. Lines before it, starting with "#", give the environment, the
job counts per class, job_s_p90 (only with at least 100 jobs), the minimum
gate margin and the failures by type. The same record and, for traced runs,
the spans are written under .bench_work/results/ in the checkout.

platevac is imported from src/ of the checkout, never from elsewhere.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from hashlib import sha256
from importlib import metadata
from pathlib import Path

# Both import only the standard library, so set-up timing starts clean.
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 4  # fresh processes per run, besides the run's own set-up
PROBE_TIMEOUT_S = 120.0
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **tracer.METRICS,
    "cli.import_s": "s",
    "bench.job_s": "s/round",
    "bench.layer_s": "s/round",
    "bench.oracle_s": "s/round",
    "bench.harness_s": "s/round",
    "bench.gen_s": "s/round",
    "bench.share": "ratio",
    "trace.jobs_per_s_traced": "1/s",
    "trace.jobs_per_s_untraced": "1/s",
    "trace.overhead": "ratio",
    "trace.bookkeeping_s": "s/round",
}


@dataclass
class JobRecord:
    kind: str
    slot: int
    seconds: float
    ok: bool
    error: str | None
    margin: float | None
    digest: str | None


def run_one(ctx: workloads.Context, job: workloads.Job, tr: tracer.Tracer | None = None,
            errors: dict | None = None) -> JobRecord:
    """One closed-loop job: the layer call and its oracle check, timed together."""
    error = margin = result = None
    t0 = time.perf_counter()
    job_span = tr.open("bench.job") if tr else None
    try:
        result = workloads.run_job(ctx, job)
        oracle_span = tr.open("bench.oracle") if tr else None
        try:
            gates = workloads.check_job(ctx, job, result)
        finally:
            if tr:
                tr.close(oracle_span)
        failed = [g.name for g in gates if not g.ok]
        margins = [g.margin for g in gates if g.margin is not None]
        margin = min(margins) if margins else None
        if failed:
            error = "OracleMismatch"
            if errors is not None:
                errors.setdefault(f"{job.kind}: {failed[0]}", repr(job)[:300])
    except Exception as exc:  # a failing job is counted, never fatal to the run
        error = type(exc).__name__
        if errors is not None:
            errors.setdefault(f"{job.kind}: {error}", traceback.format_exc()[-1500:])
    finally:
        if tr:
            tr.close(job_span)
    seconds = time.perf_counter() - t0
    digest = None if error else sha256(repr(result).encode()).hexdigest()
    return JobRecord(job.kind, job.slot, seconds, error is None, error, margin, digest)


def _run_traced(ctx, job, tr, errors):
    ctx.tracer = tr
    try:
        with tr.installed():
            return run_one(ctx, job, tr, errors)
    finally:
        ctx.tracer = None


def measure(ctx, first_round, seconds, trace):
    """Run whole rounds until the next one would overrun `seconds`.

    Traced, every job runs twice back to back, untraced and traced, first one
    way round and then the other, so warm-up favours neither; the two results
    must be identical. Also returns the rounds run and the mean time to
    generate a round's inputs.
    """
    tr = tracer.Tracer() if trace else None
    records, traced_records, errors = [], [], {}
    gen = []
    # cli-cold checks byte-identity against a command's first run: untraced,
    # that needs a second round
    min_rounds = 2 if ctx.workload == "cli-cold" and not trace else 1
    jobs, rounds = first_round, 0
    start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            if tr is None:
                records.append(run_one(ctx, job, None, errors))
                continue
            tr.job = f"{rounds}:{i}"
            if i % 2:
                traced = _run_traced(ctx, job, tr, errors)
                plain = run_one(ctx, job, None, errors)
            else:
                plain = run_one(ctx, job, None, errors)
                traced = _run_traced(ctx, job, tr, errors)
            if plain.ok and traced.ok and plain.digest != traced.digest:
                traced.ok, traced.error = False, "TraceMismatch"
                errors.setdefault(f"{job.kind}: TraceMismatch", repr(job)[:300])
            records.append(plain)
            traced_records.append(traced)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed / rounds * (rounds + 1) > seconds:
            break
        g0 = time.perf_counter()
        jobs = workloads.make_round(ctx.workload, ctx.seed, rounds)
        gen.append(time.perf_counter() - g0)
    if not gen:
        g0 = time.perf_counter()
        workloads.make_round(ctx.workload, ctx.seed, 0)
        gen.append(time.perf_counter() - g0)
    return {
        "records": records, "traced_records": traced_records, "errors": errors,
        "rounds": rounds, "wall": time.perf_counter() - start, "gen_s": statistics.fmean(gen),
        "tracer": tr,
    }


# ---------------------------------------------------------------------------
# fresh-process probes


def _probe(kind: str, workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe", kind]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {proc.stderr.strip()[-1000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["seconds"])


def probe_main(kind: str, workload: str, seed: int) -> int:
    if kind == "cli-import":
        t0 = time.perf_counter()
        import platevac.cli  # noqa: F401

        seconds = time.perf_counter() - t0
    else:
        work = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK))
        try:
            seconds = workloads.setup(workload, seed, ROOT, work)[2]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    _check_source()
    print(json.dumps({"seconds": seconds}))
    return 0


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(out, workload):
    """All end-to-end metrics but setup_s; call before any probe process runs."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    # Each job slot at its fastest over the run's rounds. On a 2-vCPU VM on a
    # shared host the same job ran at two speeds, 1.7x apart, switching every
    # few seconds: run-wide medians followed whichever speed a run happened
    # to get, per-slot minima did not.
    best, passed = {}, set()
    for r in out["records"]:
        best[r.slot] = min(best.get(r.slot, math.inf), r.seconds)
        if r.ok:
            passed.add(r.slot)
    return {
        "jobs_per_s": len(passed) / sum(best.values()),
        "job_s_p50": statistics.median(best.values()),
        # ru_maxrss is in KiB on Linux; for cli-cold it is the largest child
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer_metrics(out, import_samples):
    tr, rounds = out["tracer"], out["rounds"]
    spans = tr.spans
    values = tracer.layer_metrics(spans, tr.counters, rounds)
    own = tracer.self_times(spans)
    job_s = oracle_s = harness_s = bookkeeping_s = 0.0
    for index, span in enumerate(spans):
        if span[0] == "bench.job":
            job_s += span[2] - span[1]
            harness_s += own[index]
        elif span[0] == "bench.oracle":
            oracle_s += span[2] - span[1]
        elif span[0] == tracer.BOOKKEEPING:
            bookkeeping_s += own[index]
    gen_s = out["gen_s"]
    traced_rate = len(out["traced_records"]) / sum(r.seconds for r in out["traced_records"])
    untraced_rate = len(out["records"]) / sum(r.seconds for r in out["records"])
    values.update({
        "cli.import_s": statistics.median(import_samples),
        "bench.job_s": job_s / rounds,
        "bench.layer_s": tracer.layer_time(spans) / rounds,
        "bench.oracle_s": oracle_s / rounds,
        "bench.harness_s": harness_s / rounds,
        "bench.gen_s": gen_s,
        "bench.share": (oracle_s / rounds + harness_s / rounds + gen_s) / (job_s / rounds + gen_s),
        "trace.jobs_per_s_traced": traced_rate,
        "trace.jobs_per_s_untraced": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate - 1.0,
        "trace.bookkeeping_s": bookkeeping_s / rounds,
    })
    return values


def job_report(records):
    """Per-class counts and medians, p90 where there are enough jobs, margins."""
    times = [r.seconds for r in records]
    margins = [r.margin for r in records if r.margin is not None]
    by_kind = {}
    for kind in sorted({r.kind for r in records}):
        ks = [r.seconds for r in records if r.kind == kind]
        by_kind[kind] = {"jobs": len(ks), "p50_s": statistics.median(ks),
                         "failed": sum(not r.ok for r in records if r.kind == kind)}
    report = {
        "jobs": len(records),
        "failed": sum(not r.ok for r in records),
        "fail_ratio": sum(not r.ok for r in records) / len(records),
        "errors_by_type": dict(Counter(r.error for r in records if r.error)),
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[8] if len(times) >= P90_MIN_JOBS else None,
        "min_margin_decades": min(margins) if margins else None,
        "by_kind": by_kind,
    }
    return report


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, blas_env):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": blas_env,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------


def _check_source():
    """Refuse to measure a platevac that is not the checkout's own."""
    module = sys.modules.get("platevac")
    if module is not None and SRC.resolve() not in Path(module.__file__).resolve().parents:
        raise RuntimeError(f"platevac imported from {module.__file__}, not from {SRC}")


def _metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "cli-import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "platevac" / "__init__.py").is_file():
        print(f"error: no platevac sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: on a 2-vCPU VM on a shared host a second BLAS thread made
    # round times drift by a quarter between rounds; one thread held 3 %.
    blas_env = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas_env
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    if args.probe:
        return probe_main(args.probe, args.workload, args.seed)

    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK))
    try:
        ctx, first_round, setup_s = workloads.setup(args.workload, args.seed, ROOT, work)
        _check_source()
        out = measure(ctx, first_round, args.seconds, bool(args.trace))
        if args.trace:
            imports = [_probe("cli-import", args.workload, args.seed)
                       for _ in range(SETUP_PROBES + 1)]
            values = per_layer_metrics(out, imports)
            metrics = _metric_block(values, PER_LAYER)
            records = out["records"] + out["traced_records"]
        else:
            values = end_to_end_metrics(out, args.workload)
            setups = [setup_s] + [_probe("setup", args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            values["setup_s"] = statistics.median(setups)
            metrics = _metric_block(values, END_TO_END)
            records = out["records"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = job_report(records)
    report.update(rounds=out["rounds"], wall_s=out["wall"])
    if not args.trace:
        report["setup_samples_s"] = setups
    env = environment(args, blas_env)
    print("# env " + json.dumps(env))
    print("# report " + json.dumps({k: v for k, v in report.items() if k != "by_kind"}))
    for kind, row in report["by_kind"].items():
        print(f"# {kind:20s} jobs {row['jobs']:5d}  p50 {row['p50_s']:.6f} s  failed {row['failed']}")
    for key, detail in out["errors"].items():
        print(f"# error {key}: {detail.splitlines()[-1] if detail else ''}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "report": report, "metrics": metrics, "errors": out["errors"]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tr = out["tracer"]
        (results / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                        "spans": tr.spans, "counters": tr.counters}))

    failed = sum(not r.ok for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
