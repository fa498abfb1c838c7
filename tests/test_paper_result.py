"""The paper's finding, pinned on the transcripts-to-clusters path.

The abstract makes three claims: two clusters emerge; one has high
production and few SLI children, the other limited production and more
SLI children; and boundary cases exhibit intermediate traits.  Each test
runs ``analyze`` through ``cli.main`` in transcripts mode, with the default
config and ``unk_threshold = 2``, on a 300-transcript cohort from
``perfbench/gen.chat_corpus``, so the benchmark and this check share one
CHAT generator, and checks:

* k = 2 is chosen;
* the cluster with the higher ``child_TNW`` mean holds under 10% SLI
  children, the other over 50%;
* the boundary rows' SLI share lies between the two clusters' shares;
* the boundary rows' mean PC1 score lies between the two clusters' means.

Why 300 transcripts: at 150, only 8 boundary rows are flagged and their
SLI share is 0.0, too few for the third claim.  At 300 there are 15.

What this does not check:

* The paper's "higher syntactic complexity" in the limited-production
  cluster.  ``gen`` plants the opposite: at 1,163 transcripts the
  ``mlu_morphemes`` means are 6.15 in the high-production cluster and
  5.19 in the other.
* Agreement of Ward and DBSCAN with k-means.  Ward's ARI spans 0.51-0.95
  over these three seeds, and at 1,163 transcripts DBSCAN with automatic
  eps finds 12 clusters and 282 noise rows, with an ARI of -0.03.
"""

import json

import pytest

from langprofile import cli
from perfbench import gen


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_clusters_split_by_production_with_boundary_between(tmp_path, capsys, seed):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    gen.chat_corpus(corpus, 300, seed, (15, 40))
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[input]\nmode = transcripts\npath = {corpus}\n[lm]\nunk_threshold = 2\n"
                   f"[clustering]\nseed = {seed}\n[output]\ndir = {out}\n")
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    clusters = json.loads((out / "cluster_report.json").read_text(encoding="utf-8"))
    boundary = json.loads((out / "boundary_report.json").read_text(encoding="utf-8"))

    assert clusters["chosen_k"] == 2
    tnw = next(e for e in clusters["effects"] if e["feature"] == "child_TNW")
    high = 0 if tnw["cluster0_mean"] > tnw["cluster1_mean"] else 1
    sli_high = clusters["clusters"][high]["y_ratio"]
    sli_low = clusters["clusters"][1 - high]["y_ratio"]
    assert sli_high < 0.1 < 0.5 < sli_low
    assert sli_high < boundary["outcome_ratio"] < sli_low
    pc1 = sorted(cluster["pc1_mean"] for cluster in clusters["clusters"])
    assert pc1[0] < boundary["pc1_mean"] < pc1[1]
