"""langprofile benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates the workload's inputs
from the seed, times fresh interpreters importing ``langprofile.cli``
(set-up), then starts one worker process that runs the CLI job in a
closed loop for S seconds and checks every job's outputs. With
``--trace 1`` the worker spends half of S untraced and half with every
public function wrapped in a span, and the per-layer metrics are
reported instead of the end-to-end ones. Job times are reported in
units of a fixed reference loop timed beside every job (see
``job_cost``); the raw wall seconds are printed and recorded beside them.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record (versions, CPU
and BLAS thread counts, input shape, every job time, sample counts)
goes to ``.perfbench/records/``; traced runs also write their spans
there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

SETUP_SAMPLES = 5
MAX_JOBS = 500
WORKER_TIMEOUT_S = 150
STATE_DIR = ROOT / ".perfbench"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LANGPROFILE_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the load is one thread on one core, and the
    # reference loop (single-threaded) then tracks the host speed it sees
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall seconds for fresh interpreters to import the CLI; the first,
    untimed import writes the bytecode cache."""
    cmd = [sys.executable, "-c", "import langprofile.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        if i:
            samples.append(time.perf_counter() - start)
    return samples


def reference_digests(workload: Workload, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return refs[workload.name]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict | None) -> dict:
    """Generate inputs, measure set-up, run the worker; return its raw result."""
    workdir = STATE_DIR / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = _env()
    try:
        start = time.perf_counter()
        shape = workload.make_inputs(workdir, seed)
        gen_s = time.perf_counter() - start
        setup = measure_setup(env)
        spec = {"argv": workload.argv, "outputs": workload.outputs,
                "command": workload.command, "rows": workload.rows,
                "k_values": workload.k_values(), "seconds": seconds, "trace": trace,
                "reference": reference, "max_jobs": MAX_JOBS}
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "spec.json", "result.json"],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(input_shape=shape, generate_s=gen_s, setup_samples_s=setup)
    return result


def _job_seconds(jobs: list[dict]) -> list[float]:
    ok = [j["wall_s"] for j in jobs if j["problem"] is None]
    return ok or [j["wall_s"] for j in jobs]


def job_cost(jobs: list[dict]) -> float:
    """Median over the run of each job's wall time divided by that of the
    reference loop run just before and after it (``worker.reference_loop``).

    A shared host has phases of seconds to minutes in which the same
    pure-Python loop runs up to 2x slower, in CPU time as well as in wall
    time, with no steal time to subtract. A fixed loop timed at the same
    moment slows with the job, so the ratio holds far steadier than the
    seconds do. The loop runs no langprofile code, so of the two, only a
    change in the program moves the ratio.
    """
    ok = [j for j in jobs if j["problem"] is None] or jobs
    return statistics.median(j["wall_s"] / j["ref_s"] for j in ok)


def _failed(result: dict) -> tuple[int, int]:
    """(failed, attempted) over every job of the run."""
    jobs = result["jobs"] + result["traced_jobs"]
    return sum(1 for j in jobs if j["problem"] is not None), len(jobs)


def end_to_end(result: dict, rows: int) -> dict[str, tuple[float, str]]:
    cost = job_cost(result["jobs"])
    failed, attempted = _failed(result)
    return {
        "job_cost": (cost, "ref"),
        "rows_per_ref": (rows / cost, "1/ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(result["setup_samples_s"]), "s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    *traced, count_job = result["traced_jobs"]
    hot = {key for key, _, _ in tracing.HOT_COUNT_TARGETS}
    out = {}
    for name, unit in tracing.per_layer_names():
        if name == "trace.overhead_frac":
            base = job_cost(result["jobs"])
            value = (job_cost(traced) - base) / base
        elif name in hot:
            value = count_job["layers"][name]
        else:
            value = statistics.median(j["layers"].get(name, 0.0) for j in traced)
        out[name] = (value, unit)
    return out


def summarize(result: dict, metrics: dict[str, tuple[float, str]]) -> dict:
    """The result line: a job fails on a non-zero exit, an exception or a
    check mismatch, and the run is correct only if no job failed."""
    failed, attempted = _failed(result)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def write_record(workload: Workload, args, result: dict, metrics: dict) -> Path:
    records = STATE_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = [row for j in result["traced_jobs"] for row in j.pop("spans")]
    if spans:
        with open(records / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["job", "name", "start_s", "end_s", "parent"]) + "\n")
            for row in spans:
                fh.write(json.dumps(row) + "\n")

    def summary(jobs):
        return {"samples": len(jobs),
                "wall_s": [round(j["wall_s"], 6) for j in jobs],
                # the last traced job only counts calls and has no reference loop
                "ref_s": [round(j["ref_s"], 6) if "ref_s" in j else None for j in jobs],
                "cpu_per_wall": [round(j["cpu_s"] / j["wall_s"], 3) for j in jobs],
                "problems": [j["problem"] for j in jobs if j["problem"]]}

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "argv": workload.argv,
        "env": result["env"], "input_shape": result["input_shape"],
        "generate_s": result["generate_s"], "setup_samples_s": result["setup_samples_s"],
        "untraced": summary(result["jobs"]), "traced": summary(result["traced_jobs"]),
        "checked_against": "reference.json" if args.seed == DEFAULT_SEED
        else "first job of the run",
        "absent_trace_targets": result["absent_trace_targets"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = records / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "langprofile" / "cli.py").is_file():
        print(f"error: no langprofile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                              reference_digests(workload, args.seed))
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(result) if args.trace else end_to_end(result, workload.rows)
    record = write_record(workload, args, result, metrics)
    summary = summarize(result, metrics)
    job_s = statistics.median(_job_seconds(result["jobs"]))
    print(f"workload {workload.name}  seed {args.seed}  untraced jobs "
          f"{len(result['jobs'])}  traced jobs {len(result['traced_jobs'])}  record {record}")
    print(f"  {'job_s (median wall seconds, host-dependent)':<50} {job_s:>14.6g} s")
    print(f"  {'rows_per_s (rows / job_s)':<50} {workload.rows / job_s:>14.6g} 1/s")
    print(f"  {'failed_frac':<50} {summary['failed'] / summary['attempted']:>14.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {unit}")
    for j in result["jobs"] + result["traced_jobs"]:
        if j["problem"]:
            print(f"  failed job: {j['problem'][:300]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
