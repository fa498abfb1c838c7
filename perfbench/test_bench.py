"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the tracer's work counts match the pipeline's known call pattern,
that corrupted or directory-dependent outputs are caught, that failing
jobs are counted instead of aborting the run, and that the benchmark
refuses to run without the library sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run
import worker
from langprofile import cli
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_ANALYZE = Workload("tiny-analyze", "", "analyze", rows=60, k_range="2..4", n_init=4)
TINY_EXTRACT = Workload("tiny-extract", "", "extract", rows=16, utterances=(10, 20),
                        loo=True)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def _emitted(result: dict, metrics: dict) -> dict[str, str]:
    summary = run.summarize(result, metrics)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in summary["metrics"].items()}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]
    assert max(m["bound"] for m in BENCH["end_to_end"]) == \
        next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")


def test_untraced_run_emits_every_end_to_end_metric():
    result = run.run_workload(TINY_ANALYZE, 3, 0.0, False, None)
    metrics = run.end_to_end(result, TINY_ANALYZE.rows)
    assert _emitted(result, metrics) == _units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert run.summarize(result, metrics)["correct"]


def test_traced_run_emits_every_per_layer_metric_and_counts_work():
    result = run.run_workload(TINY_ANALYZE, 3, 0.0, True, None)
    metrics = run.per_layer(result)
    assert _emitted(result, metrics) == _units("per_layer")
    args = argparse.Namespace(seed=3, seconds=0.0, trace=1)
    record = json.loads(run.write_record(TINY_ANALYZE, args, result, metrics).read_text())
    assert record["traced"]["samples"] == len(result["traced_jobs"])
    k_count = len(TINY_ANALYZE.k_values())
    # sweep fits, one refit at the chosen k, three cross-plane fits
    assert metrics["clustering.kmeans.calls"][0] == k_count + 4
    assert metrics["clustering.kmeans.restarts"][0] == (k_count + 4) * TINY_ANALYZE.n_init
    assert metrics["clustering.kmeans.duplicate_fits"][0] == 1
    assert metrics["clustering.dense_nxn_bytes"][0] >= 8 * TINY_ANALYZE.rows ** 2
    assert metrics["clustering.kmeans.self_s"][0] > 0

    result = run.run_workload(TINY_EXTRACT, 3, 0.0, True, None)
    metrics = run.per_layer(result)
    assert run.summarize(result, metrics)["correct"]
    assert metrics["chat.parse_chat.calls"][0] == TINY_EXTRACT.rows
    assert metrics["features.utterance_measures.calls_per_transcript"][0] == 2.0
    assert metrics["features.scoring.table_loads"][0] == 2 * TINY_EXTRACT.rows
    labelled = round(0.45 * TINY_EXTRACT.rows) + round(0.5 * TINY_EXTRACT.rows)
    assert metrics["ngram.train.calls"][0] == 6 + 3 * labelled
    assert metrics["ngram.train.self_s"][0] > 0


def test_job_cost_follows_the_program_not_the_host():
    # the host slows to half speed for two jobs: seconds move, the cost does not
    jobs = [{"wall_s": w, "ref_s": r, "problem": None}
            for w, r in ((1.0, 0.1), (2.0, 0.2), (1.02, 0.1), (1.98, 0.2), (0.99, 0.1))]
    assert abs(run.job_cost(jobs) - 10.0) < 0.1
    # a failed job is no time sample, however fast
    result = {"jobs": jobs + [{"wall_s": 0.1, "ref_s": 0.1, "problem": "exit code 2"}],
              "traced_jobs": [], "peak_rss_mb": 60.0, "setup_samples_s": [0.5]}
    cost, unit = run.end_to_end(result, 50)["rows_per_ref"]
    assert unit == "1/ref" and abs(cost - 5.0) < 0.05


def _job_in(directory: Path, workload: Workload, monkeypatch) -> tuple[dict, dict]:
    directory.mkdir(parents=True)
    workload.make_inputs(directory, 5)
    monkeypatch.chdir(directory)
    spec = {"argv": workload.argv, "outputs": workload.outputs,
            "command": workload.command, "rows": workload.rows,
            "k_values": workload.k_values(), "reference": None}
    return worker.run_job(cli, spec), spec


def test_outputs_do_not_depend_on_the_directory(tmp_path, monkeypatch):
    first, _ = _job_in(tmp_path / "a", TINY_ANALYZE, monkeypatch)
    second, _ = _job_in(tmp_path / "elsewhere" / "b", TINY_ANALYZE, monkeypatch)
    assert first["problem"] is None and second["problem"] is None
    assert first["digests"] == second["digests"]


def test_corrupted_output_is_caught(tmp_path, monkeypatch):
    job, spec = _job_in(tmp_path / "job", TINY_ANALYZE, monkeypatch)
    assert job["problem"] is None

    # one flipped digit keeps the structure but not the bytes
    target = Path("reports/pc_scores.csv")
    text = target.read_text(encoding="utf-8")
    digit = next(i for i, c in enumerate(text) if c.isdigit() and i > 40)
    target.write_text(text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:],
                      encoding="utf-8")
    assert check.structure(spec) == []
    assert check.mismatches(worker.digests(spec["outputs"]), job["digests"]) == \
        ["reports/pc_scores.csv: digest differs from the expected output"]

    # a dropped row breaks the structure
    lines = Path("reports/feature_matrix.csv").read_text(encoding="utf-8").splitlines()
    Path("reports/feature_matrix.csv").write_text("\n".join(lines[:-1]) + "\n",
                                                  encoding="utf-8")
    assert any("rows, expected" in p for p in check.structure(spec))

    # a job whose bytes differ from the reference is a failed job
    wrong = dict(job["digests"], **{"reports/pca_report.json": "0" * 64})
    spec["reference"] = wrong
    again = worker.run_job(cli, spec)
    assert "pca_report.json: digest differs" in again["problem"]


def test_failing_jobs_are_counted_not_fatal():
    # k_range beyond n - 1: the CLI exits with code 2
    too_wide = dataclasses.replace(TINY_ANALYZE, k_range="2,70")
    result = run.run_workload(too_wide, 3, 0.2, False, None)
    summary = run.summarize(result, run.end_to_end(result, too_wide.rows))
    assert summary["attempted"] >= 3
    assert summary["failed"] == summary["attempted"]
    assert not summary["correct"]
    assert "exit code 2" in result["jobs"][0]["problem"]

    # chosen k >= 7 makes best_mapping_accuracy raise outside any stage
    high_k = dataclasses.replace(TINY_ANALYZE, rows=200, k_range="7,8")
    result = run.run_workload(high_k, 3, 0.0, False, None)
    metrics = run.end_to_end(result, high_k.rows)
    assert metrics["ok_frac"][0] == 0.0
    assert "ValueError" in result["jobs"][0]["problem"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCH["command"][1:]
        + ["--workload", "analyze-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
