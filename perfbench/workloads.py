"""The four benchmark workloads: what each job runs and why.

Every job drives ``langprofile.cli.main`` with paths relative to the
job's working directory, so the reports (whose ``config_hash`` covers
the input and output paths) do not depend on where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

DEFAULT_SEED = 1
REPORT_FILES = ("feature_matrix.csv", "pca_report.json", "cluster_report.json",
                "boundary_report.json", "pc_scores.csv", "silhouette_sweep.csv")
CSV_COLUMNS = 69  # 5 metadata columns + 64 features


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                       # "analyze" | "extract"
    rows: int                          # feature-CSV rows or transcripts
    k_range: str = "2..10"             # analyze only
    n_init: int = 32                   # analyze only
    utterances: tuple[int, int] = (0, 0)  # extract only: child utterances per transcript
    loo: bool = False                  # extract only

    def make_inputs(self, workdir: Path, seed: int) -> dict:
        """Write the job's inputs under ``workdir``; return their shape."""
        if self.command == "analyze":
            gen.feature_csv(workdir / "features.csv", self.rows, seed)
            (workdir / "analysis.ini").write_text(
                "[input]\nmode = csv\npath = features.csv\n\n"
                f"[clustering]\nseed = {seed}\nk_range = {self.k_range}\n"
                f"n_init = {self.n_init}\n\n[output]\ndir = reports\n",
                encoding="utf-8")
            return {"rows": self.rows, "columns": CSV_COLUMNS,
                    "k_range": self.k_range, "n_init": self.n_init}
        gen.chat_corpus(workdir / "corpus", self.rows, seed, self.utterances)
        files = sorted((workdir / "corpus").glob("*.cha"))
        return {"transcripts": len(files),
                "bytes": sum(p.stat().st_size for p in files),
                "child_utterances_range": list(self.utterances), "loo": self.loo}

    @property
    def argv(self) -> list[str]:
        if self.command == "analyze":
            return ["analyze", "--config", "analysis.ini"]
        argv = ["extract", "corpus", "-o", "features.csv", "--unk-threshold", "2"]
        return argv + ["--loo"] if self.loo else argv

    @property
    def outputs(self) -> list[str]:
        if self.command == "analyze":
            return [f"reports/{name}" for name in REPORT_FILES]
        return ["features.csv"]

    def k_values(self) -> list[int]:
        text = self.k_range
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(k) for k in text.split(",")]


WORKLOADS = {w.name: w for w in (
    Workload(
        "analyze-sweep",
        "default analyze config on a two-profile CSV: the k-means silhouette sweep, "
        "refit and plane fits do most of the work; extraction layers are idle",
        "analyze", rows=300),
    Workload(
        "analyze-large-n",
        "analyze with k_range 2..3 and n_init 8 on a larger CSV: O(n^3) Ward and dense "
        "n x n cross-checks dominate; k-means is a few percent",
        "analyze", rows=700, k_range="2..3", n_init=8),
    Workload(
        "extract-corpus",
        "extract without LOO: parsing, base features, DSS/IPSyn rules and LM scoring do "
        "the work; clustering is idle and LMs are trained once",
        "extract", rows=45, utterances=(15, 40)),
    Workload(
        "extract-loo",
        "extract --loo: each labelled transcript retrains its group's three LMs, so "
        "ngram.train dominates; extract-corpus is its bypass partner",
        "extract", rows=40, utterances=(8, 20), loo=True),
)}
