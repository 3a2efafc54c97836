#!/usr/bin/env python3
"""Run one pdom benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the repository root; pdom is imported from ``./src``. The
workload (``verify``, ``search`` or ``simulate``) runs whole rounds of its
seeded job mix, one job at a time, and checks every job against a numpy
oracle. The number of rounds is ``--seconds`` over the workload's nominal
round length, so every build runs the same jobs for a seed. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs half as many rounds,
each once untraced and once traced, and prints the per-layer metrics and
the tracing overhead. Every metric is printed by
name with its unit; the last line is one JSON object. Results, the
environment and (when traced) the spans are written under ``.perfbench_out/``.

BLAS runs on one thread. With two OpenBLAS threads on a shared two-core
host, ``eigh`` at n = 26..33 switches between about 0.1 ms and 16 ms per call
in phases that come and go within one process, which makes the timings
bimodal from run to run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

IMPORT_REPEATS = 7
BUILD_REPEATS = 5
# a traced run passes over each round untraced, then traced
TRACE_PASSES = (False, True)
# no new round starts after this many seconds, so a very slow build or host
# still ends the run well within three minutes
ROUND_DEADLINE_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

# per-layer counts and times are per traced pass over one round of the job mix
PER_LAYER = {
    "matrixcore.sym_eigen.calls": "count",
    "matrixcore.sym_eigen.self_ms": "ms",
    "matrixcore.inertia_of.calls": "count",
    "matrixcore.schur_split.self_ms": "ms",
    "matrixcore.lyapunov_solve.self_ms": "ms",
    "matrixcore.expm.self_ms": "ms",
    "lti.construct_certificate.self_ms": "ms",
    "lti.check_dominance.calls": "count",
    "lti.check_dominance.self_ms": "ms",
    "lti.eigen_split_test.calls": "count",
    "lti.eigen_split_test.self_ms": "ms",
    "dissipativity.verify_dissipativity.self_ms": "ms",
    "dissipativity.find_passivity_storage.self_ms": "ms",
    "lmi.solve.calls": "count",
    "lmi.solve.self_ms": "ms",
    "lmi.sym_eigen_per_solve": "count",
    "lmi.iterations_on_failure": "count",
    "lmi.found_ratio": "share",
    "differential.vertices_checked": "count",
    "differential.us_per_vertex": "us",
    "differential.check_diff_dominance.self_ms": "ms",
    "differential.check_diff_dissipativity.self_ms": "ms",
    "differential.vertex_family.self_ms": "ms",
    "differential.LureSystem.build_ms": "ms",
    "differential.rhs.calls": "count",
    "differential.rhs.self_ms": "ms",
    "interconnect.closed_loop_certificate.self_ms": "ms",
    "interconnect.coupling_condition.calls": "count",
    "cones.positivity_probe.self_ms": "ms",
    "sim.integrate_batch.self_ms": "ms",
    "sim.rk4_steps": "count",
    "sim.us_per_step": "us",
    "sim.classify_asymptotics.calls": "count",
    "sim.classify_asymptotics.self_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


@dataclass
class JobResult:
    kind: str
    seconds: float
    status: str
    detail: str
    steps: int
    vertices: int
    lmi_iterations: int | None = None
    found: bool | None = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# environment


def _openblas():
    """(configuration, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None, None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), int(get_threads())
    return None, None


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pdom", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# set-up


def time_import() -> float:
    """Median wall time of ``import pdom`` in fresh interpreters."""
    probe = (
        f"import sys, time; sys.path.insert(0, {SRC!r}); "
        "t = time.perf_counter(); import pdom; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def time_build(workload, plain) -> float:
    samples = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        workload.build(plain)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# --------------------------------------------------------------------------
# running


def run_round(pdom, workload, rnd, plain, recorder=None, first_job=0) -> list[JobResult]:
    from workloads import OK, WRONG

    if recorder is not None:
        recorder.current_job = -1
    models = workload.build(plain)
    results = []
    for i, job in enumerate(workload.jobs(plain, models, rnd)):
        if recorder is not None:
            recorder.current_job = first_job + i
        t0 = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a job that raises is a failed job, not a failed benchmark
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        status, detail = (WRONG, error) if error else job.check(out)
        is_report = isinstance(out, pdom.lmi.LmiReport)
        results.append(JobResult(
            kind=job.kind, seconds=seconds, status=status, detail=detail,
            steps=job.steps, vertices=job.vertices,
            lmi_iterations=out.iterations if is_report else None,
            found=(status == OK and not is_report) if job.kind == "find_passivity_storage" else None,
        ))
    if recorder is not None:
        recorder.current_job = -1
    return results


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples above)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    pct = 100.0 * k / (n - 1) if n > 1 else 0.0
    return ordered[k], pct, n - 1 - k


def outcome_counts(results: list[JobResult]) -> dict:
    from workloads import KNOWN, WRONG

    return {
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "known": sum(r.status == KNOWN for r in results),
        "wrong": sum(r.status == WRONG for r in results),
    }


def by_kind(results: list[JobResult]) -> dict:
    kinds = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r)
    return {
        kind: {
            "jobs": len(rs),
            "p50_ms": statistics.median(x.seconds for x in rs) * 1e3,
            "total_s": sum(x.seconds for x in rs),
            "failed": sum(x.status != "ok" for x in rs),
            "first_failure": next((x.detail for x in rs if x.status != "ok"), ""),
        }
        for kind, rs in kinds.items()
    }


def end_to_end(results, setup_s) -> tuple[dict, dict]:
    latencies = [r.seconds for r in results]
    counts = outcome_counts(results)
    tail_value, tail_pct, beyond = tail(latencies)
    failed_share = counts["failed"] / counts["attempted"]
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail_value * 1e3,
        "ok_share": 1.0 - failed_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "job_tail_ms": f"p{tail_pct:.2f}, {beyond} of {len(latencies)} samples above",
        "failed_share": failed_share,
        **counts,
    }
    return values, notes


def per_layer(rec, results, passes, traced_wall, untraced_wall) -> dict:
    """Per-layer metrics, per traced pass over a round unless a ratio."""
    from tracing import SpanTable

    spans = SpanTable(rec)
    per_pass = lambda x: x / passes
    out = {}
    for label in ("matrixcore.sym_eigen", "matrixcore.inertia_of", "lti.check_dominance",
                  "lti.eigen_split_test", "lmi.solve", "differential.rhs",
                  "interconnect.coupling_condition", "sim.classify_asymptotics"):
        out[f"{label}.calls"] = per_pass(spans.calls(label))
    for label in ("matrixcore.sym_eigen", "matrixcore.schur_split", "matrixcore.lyapunov_solve",
                  "matrixcore.expm", "lti.construct_certificate", "lti.check_dominance",
                  "lti.eigen_split_test", "dissipativity.verify_dissipativity",
                  "dissipativity.find_passivity_storage", "lmi.solve",
                  "differential.check_diff_dominance", "differential.check_diff_dissipativity",
                  "differential.vertex_family", "differential.rhs",
                  "interconnect.closed_loop_certificate", "cones.positivity_probe",
                  "sim.integrate_batch", "sim.classify_asymptotics"):
        out[f"{label}.self_ms"] = per_pass(spans.self_ms(label))
    out["differential.LureSystem.build_ms"] = per_pass(spans.self_ms("differential.LureSystem.build"))

    solves = spans.calls("lmi.solve")
    out["lmi.sym_eigen_per_solve"] = spans.nested_under("matrixcore.sym_eigen", "lmi.solve") / solves if solves else 0.0
    failures = [r.lmi_iterations for r in results if r.lmi_iterations is not None]
    out["lmi.iterations_on_failure"] = statistics.mean(failures) if failures else 0.0
    searches = [r.found for r in results if r.found is not None]
    out["lmi.found_ratio"] = sum(searches) / len(searches) if searches else 0.0

    vertices = sum(r.vertices for r in results)
    out["differential.vertices_checked"] = per_pass(vertices)
    vertex_ms = spans.total_ms("differential.check_diff_dominance") + spans.total_ms("differential.check_diff_dissipativity")
    out["differential.us_per_vertex"] = vertex_ms * 1e3 / vertices if vertices else 0.0

    steps = sum(r.steps for r in results)
    out["sim.rk4_steps"] = per_pass(steps)
    out["sim.us_per_step"] = spans.total_ms("sim.integrate_batch") * 1e3 / steps if steps else 0.0

    out["trace.overhead_s"] = per_pass(traced_wall - untraced_wall)
    out["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, set before numpy is first imported here or in a child interpreter
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "pdom", "__init__.py")):
        print("perfbench: no pdom sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pdom
    import pdom.lmi

    if not os.path.abspath(pdom.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported pdom from {pdom.__file__}, not from ./src", file=sys.stderr)
        return 2

    from tracing import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](pdom, args.seed)
    env = environment(args.seed)

    plain0 = workload.plain_round(0)
    import_s = time_import()
    build_s = time_build(workload, plain0)
    setup_s = import_s + build_s
    # warm caches, lazy imports and BLAS before the first timed job
    for call in workload.warmup(plain0, workload.build(plain0)):
        call()

    results: list[JobResult] = []
    start = time.perf_counter()
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "environment": env}
    passes = (False,) if args.trace == 0 else TRACE_PASSES
    planned = max(1, round(args.seconds / (len(passes) * workload.nominal_round_s)))
    rec = Recorder() if args.trace else None
    traced_results: list[JobResult] = []
    walls = {False: 0.0, True: 0.0}
    rounds = 0
    while rounds < planned and (rounds == 0 or time.perf_counter() - start < ROUND_DEADLINE_S):
        plain = plain0 if rounds == 0 else workload.plain_round(rounds)
        for traced in passes:
            if traced:
                rec.install()
            t0 = time.perf_counter()
            try:
                batch = run_round(pdom, workload, rounds, plain, rec if traced else None,
                                  first_job=len(traced_results))
            finally:
                walls[traced] += time.perf_counter() - t0
                if traced:
                    rec.remove()
            (traced_results if traced else results).extend(batch)
        rounds += 1
    if args.trace == 0:
        metrics, notes = end_to_end(results, setup_s)
        units = END_TO_END
        notes.update(import_s=import_s, build_s=build_s)
    else:
        metrics = per_layer(rec, traced_results, rounds, walls[True], walls[False])
        units = PER_LAYER
        notes = {"traced_wall_s": walls[True], "untraced_wall_s": walls[False]}
        results = results + traced_results
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    wall = time.perf_counter() - start

    counts = outcome_counts(results)
    correct = counts["wrong"] == 0
    report.update(rounds=rounds, planned_rounds=planned, wall_s=wall, metrics=metrics, notes=notes,
                  kinds=by_kind(results), latencies=[(r.kind, r.seconds) for r in results])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} rounds={rounds} of {planned} jobs={len(results)} wall={wall:.1f}s")
    print("environment " + json.dumps(env))
    for kind, info in report["kinds"].items():
        line = f"  job {kind:26s} n={info['jobs']:<5d} p50={info['p50_ms']:.3f} ms failed={info['failed']}"
        print(line + (f"  ({info['first_failure']})" if info["failed"] else ""))
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:45s} {value:.6g} {units[name]}{extra}")
    if args.trace == 0:
        print(f"  {'failed_share':45s} {notes['failed_share']:.6g} share  "
              f"(known defects {counts['known']}, other {counts['wrong']})")
        print(f"  setup_s = import {import_s:.4f} s + build {build_s:.4f} s "
              f"(medians of {IMPORT_REPEATS} and {BUILD_REPEATS})")
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
