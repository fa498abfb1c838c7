"""Runs one workload's CLI jobs in a fresh process and writes the timings.

Usage: python3 worker.py SPEC_JSON RESULT_JSON  (cwd: the job directory,
with the langprofile sources on PYTHONPATH). The process imports the CLI
once, then runs ``cli.main`` in a closed loop, one job at a time, until
the measuring time is spent. Each job's outputs are checked right after
it; a non-zero exit, an exception or a check mismatch fails the job.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import tracing  # noqa: E402

MIN_JOBS = 3
REFERENCE_ITERATIONS = 300_000  # about 0.05-0.1 s


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed now."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * i % 7
    return time.perf_counter() - start


def digests(paths: list[str]) -> dict[str, str]:
    return {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def run_job(cli, spec: dict) -> dict:
    """One CLI job: wall and CPU seconds, exit code and output problems."""
    for p in spec["outputs"]:
        Path(p).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(spec["argv"]))
        problem = None if code == 0 else f"exit code {code}: {err.getvalue()[-300:]}"
    except Exception:  # a job that raises is counted as failed, the run goes on
        code = None
        problem = "exception: " + traceback.format_exc(limit=3)[-600:]
    job = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
           "exit": code}
    if problem is None:
        problems = check.structure(spec)
        if not problems:
            job["digests"] = digests(spec["outputs"])
            # the default seed has recorded digests; any other seed must
            # reproduce the bytes of the run's first checked job
            expected = spec.get("reference") or spec.setdefault("first_digests",
                                                                job["digests"])
            problems = check.mismatches(job["digests"], expected)
        problem = "; ".join(problems) or None
    job["problem"] = problem
    return job


def run_phase(cli, spec: dict, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: start a job only while it is expected to end in time."""
    jobs: list[dict] = []
    start = time.perf_counter()
    ref_before = reference_loop()
    while True:
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS:
            typical = statistics.median(j["wall_s"] for j in jobs)
            if elapsed + typical > seconds or len(jobs) >= spec["max_jobs"]:
                break
        if tracer is not None:
            tracer.reset()
        job = run_job(cli, spec)
        if tracer is not None:
            job["layers"] = tracer.job_summary()
            job["spans"] = tracer.span_rows(len(jobs))
        ref_after = reference_loop()
        job["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        jobs.append(job)
    return jobs


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    os.environ.pop("LANGPROFILE_SEED", None)
    import numpy
    import scipy
    from langprofile import cli

    untraced_s = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    jobs = run_phase(cli, spec, untraced_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: list[dict] = []
    absent: list[str] = []
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(cli, spec, spec["seconds"] / 2, tracer)
        finally:
            tracer.uninstall()
        counter = tracing.Tracer()
        counter.install(spans=(), counters=tracing.HOT_COUNT_TARGETS)
        try:
            job = run_job(cli, spec)
        finally:
            counter.uninstall()
        job.update(layers=counter.job_summary(), spans=[])
        traced.append(job)
        absent = tracer.absent + counter.absent
    result = {
        "jobs": jobs,
        "traced_jobs": traced,  # the last one only counts the hot calls
        "peak_rss_mb": peak_rss_mb,
        "absent_trace_targets": absent,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "sched_cpus": len(os.sched_getaffinity(0)),
                "blas_threads": blas_threads(), "platform": platform.platform(),
                "machine": platform.machine()},
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
