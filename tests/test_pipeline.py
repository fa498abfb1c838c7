import builtins
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import langprofile
from langprofile import cli, clustering, ngram, numerics, pipeline
from langprofile.errors import (ConfigError, DataError, NonNumericCell, NumericError,
                               SchemaMismatch, read_text)
from langprofile.features import scoring
from langprofile.features.schema import FEATURE_NAMES, csv_header
from langprofile.ngram import load_model, save_model
from langprofile.numerics import FeatureMatrix
from langprofile.synthetic import feature_table
from tests.conftest import make_corpus
from tests.oracles import per_element_feature_csv


def write_synthetic_csv(path, n=150, seed=5):
    matrix, groups = feature_table(n, seed)
    cohort = pipeline.Cohort(matrix, ("synth",) * n, tuple(groups),
                             (None,) * n, ("",) * n)
    path.write_text(pipeline.render_feature_csv(cohort), encoding="utf-8")
    return cohort


def write_config(path, csv_path, out_dir, seed=42, extra=""):
    path.write_text(
        f"[input]\nmode = csv\npath = {csv_path}\n\n"
        f"[clustering]\nseed = {seed}\nk_range = 2..6\nn_init = 8\n\n"
        f"{extra}"
        f"[output]\ndir = {out_dir}\n",
        encoding="utf-8")
    return path


class TestIngest:
    def test_well_formed(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=3)
        cohort = pipeline.ingest_feature_csv(csv_path)
        assert cohort.matrix.values.shape == (3, 64)
        assert cohort.matrix.col_names == FEATURE_NAMES

    def test_renamed_column_reported(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=3)
        text = csv_path.read_text().replace("mlu_words", "mlu_w0rds", 1)
        csv_path.write_text(text)
        with pytest.raises(SchemaMismatch) as err:
            pipeline.ingest_feature_csv(csv_path)
        assert "mlu_words" in str(err.value)
        assert "mlu_w0rds" in str(err.value)

    def test_non_numeric_cell_located(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=3)
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = "abc"  # row 2, first feature column
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonNumericCell) as err:
            pipeline.ingest_feature_csv(csv_path)
        assert "row 2" in str(err.value)
        assert FEATURE_NAMES[0] in str(err.value)

    def test_missing_cells_become_nan(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=4)
        lines = csv_path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[7] = ""
        lines[1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        cohort = pipeline.ingest_feature_csv(csv_path)
        assert np.isnan(cohort.matrix.values[0, 2])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "-1E+999"])
    def test_non_finite_cell_exits_two_naming_row_and_column(self, tmp_path, capsys, cell):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=60)
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("n_v")] = cell
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: row 2, column 'n_v': not a finite number" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    def test_nan_cell_is_missing_and_imputed(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=60)
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("n_v")] = "nan"
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        bundle = pipeline.run_pipeline(pipeline.load_config(cfg))
        assert bundle.pca_report["preprocessing"]["imputed_cells"] == 1
        assert "n_v" not in bundle.pca_report["preprocessing"]["dropped_constant"]

    def test_non_utf8_names_file_byte_and_offset(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=150)
        raw = csv_path.read_bytes()
        csv_path.write_bytes(raw[:20000] + b"\xff" + raw[20001:])  # past the first read buffer
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: not UTF-8: byte 0xff at offset 20000" in err
        assert "Traceback" not in err

    def test_oversize_cell_names_file_and_row(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=5)
        lines = csv_path.read_text().splitlines()
        lines[3] = "x" * 140_000 + lines[3]  # past csv's 131,072-character field limit
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: row 3: field larger than field limit" in err
        assert "Traceback" not in err

    def test_row_formatting_equals_per_element_oracle(self):
        special = [np.nan, -0.0, 0.0, 1e-300, 1e300, 5e-324, 3.0, -17.0,
                   1234567890123.0, 0.1, 1.0 / 3.0, np.inf]
        values = np.resize(np.array(special), (5, len(FEATURE_NAMES)))
        values[4] = np.arange(len(FEATURE_NAMES), dtype=float)  # integers as floats
        ids = tuple(f"c{i}" for i in range(5))
        cohort = pipeline.Cohort(FeatureMatrix(values, FEATURE_NAMES, ids),
                                 ("x",) * 5, ("SLI", "TD", "", "TD", "SLI"),
                                 (40, None, 51, 60, None), ("F", "", "M", "F", ""))
        text = pipeline.render_feature_csv(cohort)
        assert text == per_element_feature_csv(cohort)
        assert ",-0,0,1e-300,1e+300,4.940656458e-324,3,-17,1.23456789e+12," in text

    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        original = write_synthetic_csv(csv_path, n=10)
        loaded = pipeline.ingest_feature_csv(csv_path)
        assert np.max(np.abs(loaded.matrix.values - original.matrix.values)) < 1e-8
        assert loaded.group == original.group


class TestConfig:
    def test_seed_required(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[input]\nmode = csv\npath = x.csv\n[output]\ndir = o\n")
        with pytest.raises(ConfigError):
            pipeline.load_config(cfg)

    def test_required_keys_alone_give_the_dataclass_defaults(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[input]\nmode = csv\npath = x.csv\n"
                       "[clustering]\nseed = 1\n[output]\ndir = o\n")
        config = pipeline.load_config(cfg)
        expected = pipeline.PipelineConfig("csv", "x.csv", "o", 1)
        assert config == expected
        assert config.config_hash == expected.config_hash

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.ini", "x.csv", "o", seed=42)
        monkeypatch.setenv(pipeline.SEED_ENV_VAR, "99")
        assert pipeline.load_config(cfg).seed == 99

    def test_hash_stable_and_sensitive(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "x.csv", "o", seed=42)
        h1 = pipeline.load_config(cfg).config_hash
        h2 = pipeline.load_config(cfg).config_hash
        assert h1 == h2
        cfg2 = write_config(tmp_path / "c2.ini", "x.csv", "o", seed=43)
        assert pipeline.load_config(cfg2).config_hash != h1

    def test_percentile_domain(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "x.csv", "o",
                           extra="[clustering]\nboundary_percentile = 60\n")
        # configparser merges duplicate sections; rewrite cleanly instead
        cfg.write_text(
            "[input]\nmode = csv\npath = x.csv\n"
            "[clustering]\nseed = 1\nboundary_percentile = 60\n"
            "[output]\ndir = o\n")
        with pytest.raises(ConfigError):
            pipeline.load_config(cfg)

    def test_k_range_forms(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[input]\nmode = csv\npath = x.csv\n"
                       "[clustering]\nseed = 1\nk_range = 2,4,6\n"
                       "[output]\ndir = o\n")
        assert pipeline.load_config(cfg).k_range == (2, 4, 6)

    @pytest.mark.parametrize("section, key, text", [
        ("clustering", "n_init", "abc"),
        ("clustering", "dbscan_eps", "zz"),
        ("clustering", "seed", "1.5"),
        ("clustering", "k_range", "2..x"),
        ("clustering", "k_range", "5..2"),
        ("lm", "loo", "maybe"),
        ("prune", "threshold", "high"),
        ("clustering", "n_init", "0"),
        ("clustering", "seed", "-1"),
        ("pca", "top_k", "-1"),
        ("clustering", "dbscan_min_pts", "0"),
        ("clustering", "dbscan_eps", "-1"),
        ("clustering", "dbscan_eps", "nan"),
        ("lm", "smoothing_k", "nan"),
        ("lm", "smoothing_k", "inf"),
        ("lm", "smoothing_k", "-1"),
        ("lm", "unk_threshold", "0"),
        ("lm", "unk_threshold", "-3"),
        ("prune", "threshold", "1.5"),
        ("prune", "threshold", "0"),
        ("prune", "threshold", "nan"),
        ("clustering", "pc_dims", "0"),
        ("clustering", "pc_dims", "-2"),
        ("clustering", "k_range", "3,3,2"),
        ("clustering", "boundary_percentile", "60"),
        ("clustering", "boundary_percentile", "0"),
        ("clustering", "boundary_percentile", "nan"),
    ])
    def test_bad_value_exits_two_naming_key(self, tmp_path, capsys, section, key, text):
        values = {"input": {"mode": "csv", "path": "x.csv"},
                  "clustering": {"seed": "1"}, "output": {"dir": "o"}}
        values.setdefault(section, {})[key] = text
        lines = []
        for name, pairs in values.items():
            lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in pairs.items()]
        cfg = tmp_path / "c.ini"
        cfg.write_text("\n".join(lines) + "\n")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err
        assert repr(text) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("body, fragment", [
        pytest.param(b"[input]\nmode = csv\n[input]\npath = x.csv\n",
                     "section 'input' already exists", id="duplicate-section"),
        pytest.param(b"[input]\nmode = csv\nmode = csv\n",
                     "option 'mode' in section 'input' already exists", id="duplicate-option"),
        pytest.param(b"mode = csv\n[input]\npath = x.csv\n",
                     "no section headers", id="no-section-header"),
        pytest.param(b"[input]\nmode = csv%\n", "[input] mode", id="bare-percent"),
        pytest.param(b"[input]\nmode = %(x)s\n", "[input] mode", id="missing-interpolation"),
        pytest.param(b"[input]\nmode = csv\xff\n", "0xff", id="not-utf8"),
    ])
    def test_unparseable_config_exits_two_naming_file(self, tmp_path, capsys, body, fragment):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(body)
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert fragment in err
        assert "Traceback" not in err

    def test_unknown_effect_feature_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[input]\nmode = csv\npath = x.csv\n"
                       "[clustering]\nseed = 1\neffect_features = child_TNW,nosuch\n"
                       "[output]\ndir = o\n")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "effect_features" in err
        assert "nosuch" in err


class TestRunPipeline:
    @pytest.fixture()
    def bundle_env(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        write_synthetic_csv(csv_path, n=150, seed=5)
        cfg = write_config(tmp_path / "cfg.ini", csv_path, tmp_path / "out")
        return cfg, tmp_path / "out"

    def test_emits_all_reports(self, bundle_env):
        cfg, out = bundle_env
        bundle = pipeline.run_pipeline(pipeline.load_config(cfg))
        for name in pipeline.REPORT_FILES:
            assert (out / name).is_file(), name
        assert bundle.cluster_report["chosen_k"] == 2
        sizes = [c["size"] for c in bundle.cluster_report["clusters"]]
        assert all(s > 0 for s in sizes)
        assert sum(sizes) == 150

    def test_sweep_row_count_matches_range(self, bundle_env):
        cfg, out = bundle_env
        bundle = pipeline.run_pipeline(pipeline.load_config(cfg))
        assert len(bundle.cluster_report["silhouette_sweep"]) == 5  # 2..6
        sweep_lines = (out / "silhouette_sweep.csv").read_text().splitlines()
        assert len(sweep_lines) == 6  # header + 5

    def test_byte_identical_rerun(self, bundle_env):
        cfg, out = bundle_env
        config = pipeline.load_config(cfg)
        pipeline.run_pipeline(config)
        first = {n: (out / n).read_bytes() for n in pipeline.REPORT_FILES}
        pipeline.run_pipeline(config)
        second = {n: (out / n).read_bytes() for n in pipeline.REPORT_FILES}
        assert first == second

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # the same output directory on both runs: the config hash covers the paths
        csv_path = tmp_path / "features.csv"
        write_synthetic_csv(csv_path, n=400, seed=5)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.ini", csv_path, out)
        src = Path(langprofile.__file__).resolve().parents[1]
        runs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "langprofile.cli", "analyze", "--config", str(cfg)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
            assert done.returncode == 0, done.stderr
            runs.append({name: (out / name).read_bytes() for name in pipeline.REPORT_FILES})
        assert runs[0] == runs[1]

    def test_reports_carry_hash_and_seed(self, bundle_env):
        cfg, out = bundle_env
        config = pipeline.load_config(cfg)
        bundle = pipeline.run_pipeline(config)
        for report in (bundle.pca_report, bundle.cluster_report,
                       bundle.boundary_report):
            assert report["config_hash"] == config.config_hash
            assert report["seed"] == config.seed
            assert report["schema_version"] == pipeline.SCHEMA_VERSION

    def test_cluster_orientation(self, bundle_env):
        # cluster 0 is relabeled to the high-PC1 side
        cfg, _ = bundle_env
        bundle = pipeline.run_pipeline(pipeline.load_config(cfg))
        clusters = bundle.cluster_report["clusters"]
        assert clusters[0]["pc1_mean"] > clusters[1]["pc1_mean"]

    def test_pc_scores_csv_shape(self, bundle_env):
        cfg, out = bundle_env
        pipeline.run_pipeline(pipeline.load_config(cfg))
        lines = (out / "pc_scores.csv").read_text().splitlines()
        assert lines[0] == "id,pc1,pc2,pc3,cluster,boundary,outlier"
        assert len(lines) == 151

    def test_imputes_and_reports_count(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        write_synthetic_csv(csv_path, n=60)
        lines = csv_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[6] = ""
        lines[3] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.ini", csv_path, tmp_path / "out")
        bundle = pipeline.run_pipeline(pipeline.load_config(cfg))
        assert bundle.pca_report["preprocessing"]["imputed_cells"] == 1

    def test_bad_k_range_aborts_with_stage(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        write_synthetic_csv(csv_path, n=5)
        cfg = write_config(tmp_path / "cfg.ini", csv_path, tmp_path / "out")
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(pipeline.load_config(cfg))
        assert err.value.stage == "load"

    def test_kmeans_fitted_once_per_k_plus_three_planes(self, bundle_env, monkeypatch):
        cfg, _ = bundle_env
        config = pipeline.load_config(cfg)
        fitted_k = []
        kmeans = clustering.kmeans

        def counting_kmeans(points, k, *args, **kwargs):
            fitted_k.append(k)
            return kmeans(points, k, *args, **kwargs)

        monkeypatch.setattr(clustering, "kmeans", counting_kmeans)
        bundle = pipeline.run_pipeline(config)
        assert len(fitted_k) == len(config.k_range) + 3
        assert fitted_k == list(config.k_range) + [bundle.cluster_report["chosen_k"]] * 3

    def test_distances_built_once(self, bundle_env, monkeypatch):
        cfg, _ = bundle_env
        shapes = []
        build = clustering._pairwise_distances

        def counting_distances(points):
            shapes.append(points.shape)
            return build(points)

        monkeypatch.setattr(clustering, "_pairwise_distances", counting_distances)
        pipeline.run_pipeline(pipeline.load_config(cfg))
        assert shapes == [(150, 3)]


class TestTranscriptsMode:
    def test_end_to_end(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[input]\nmode = transcripts\npath = {corpus_dir}\n"
            "[clustering]\nseed = 7\nk_range = 2..3\nn_init = 8\n"
            f"[output]\ndir = {out}\n")
        bundle = pipeline.run_pipeline(pipeline.load_config(cfg))
        matrix_lines = (out / "feature_matrix.csv").read_text().splitlines()
        assert matrix_lines[0] == ",".join(csv_header())
        assert len(matrix_lines) == 9  # 8 children
        assert bundle.cluster_report["chosen_k"] in (2, 3)


class TestCli:
    def test_analyze_success(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=80)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        assert "cluster_report.json" in capsys.readouterr().out

    def test_dbscan_min_pts_above_row_count_exits_two(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=40)
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[input]\nmode = csv\npath = {csv_path}\n"
                       "[clustering]\nseed = 1\nk_range = 2..3\ndbscan_min_pts = 41\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[clustering] dbscan_min_pts 41" in err and "n=40" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["analyze", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_schema_mismatch_exits_two(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=10)
        text = csv_path.read_text().replace("freq_ttr", "ttr_freq", 1)
        csv_path.write_text(text)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        assert "freq_ttr" in capsys.readouterr().err

    def test_missing_input_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", tmp_path / "nope.csv",
                           tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        # an all-constant matrix makes standardization impossible
        csv_path = tmp_path / "f.csv"
        cohort = write_synthetic_csv(csv_path, n=20)
        lines = csv_path.read_text().splitlines()
        frozen = ",".join(["1"] * 64)
        for i in range(1, len(lines)):
            meta = lines[i].split(",")[:5]
            lines[i] = ",".join(meta) + "," + frozen
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 3
        assert "standardize" in capsys.readouterr().err

    def test_cross_check_failure_names_its_stage(self, tmp_path, capsys, monkeypatch):
        def failing_ami(a, b):
            raise NumericError("ami failed")

        monkeypatch.setattr(clustering, "ami", failing_ami)
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=80)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "cross_check" in err and "ami failed" in err
        assert "Traceback" not in err

    def test_programming_fault_in_a_stage_propagates(self, tmp_path, monkeypatch):
        def faulty_standardize(m):
            raise TypeError("a fault, not a data error")

        monkeypatch.setattr(numerics, "standardize", faulty_standardize)
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=40)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        with pytest.raises(TypeError, match="a fault, not a data error"):
            cli.main(["analyze", "--config", str(cfg)])

    @pytest.mark.parametrize("command", ["extract", "train-lm"])
    @pytest.mark.parametrize("flag, text", [
        ("--smoothing-k", "nan"), ("--smoothing-k", "inf"), ("--smoothing-k", "-1"),
        ("--smoothing-k", "x"), ("--unk-threshold", "0"), ("--unk-threshold", "-3"),
        ("--unk-threshold", "1.5"),
    ])
    def test_bad_lm_flag_is_usage_error_naming_flag(self, corpus_dir, tmp_path, capsys,
                                                     command, flag, text):
        out = tmp_path / "out"
        assert cli.main([command, str(corpus_dir), "-o", str(out), flag, text]) == 1
        err = capsys.readouterr().err
        assert flag in err and repr(text) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_extract_round_trip(self, corpus_dir, tmp_path, capsys):
        out_csv = tmp_path / "features.csv"
        assert cli.main(["extract", str(corpus_dir), "-o", str(out_csv)]) == 0
        cohort = pipeline.ingest_feature_csv(out_csv)
        assert cohort.matrix.values.shape == (8, 64)
        assert set(cohort.group) == {"SLI", "TD"}

    def test_extract_deterministic(self, corpus_dir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["extract", str(corpus_dir), "-o", str(a)]) == 0
        assert cli.main(["extract", str(corpus_dir), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_train_lm_writes_six_models(self, corpus_dir, tmp_path):
        out = tmp_path / "models"
        assert cli.main(["train-lm", str(corpus_dir), "-o", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.lm"))
        assert files == ["sli_1g.lm", "sli_2g.lm", "sli_3g.lm",
                         "td_1g.lm", "td_2g.lm", "td_3g.lm"]
        for p in out.glob("*.lm"):
            load_model(p)

    def test_train_lm_failed_write_leaves_no_model(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "models"
        (out / "td_1g.lm").mkdir(parents=True)
        assert cli.main(["train-lm", str(corpus_dir), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: stage 'write' failed:")
        assert [p.name for p in out.iterdir()] == ["td_1g.lm"]  # the directory

    def test_train_lm_writes_save_model_bytes(self, corpus_dir, tmp_path):
        out = tmp_path / "models"
        assert cli.main(["train-lm", str(corpus_dir), "-o", str(out)]) == 0
        models = ngram.train_group_models(pipeline.load_transcripts(corpus_dir))
        for label, prefix in (("SLI", "sli"), ("TD", "td")):
            for order, model in models[label].items():
                save_model(model, tmp_path / "want.lm")
                assert (out / f"{prefix}_{order}g.lm").read_bytes() \
                    == (tmp_path / "want.lm").read_bytes()

    def test_report_renders_six_sig_digits(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=80)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        cli.main(["analyze", "--config", str(cfg)])
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path / "out")]) == 0
        rendered = capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "pca_report.json").read_text())
        for comp in report["components"][:3]:
            assert f"{comp['eigenvalue']:.6g}" in rendered
        cluster = json.loads((tmp_path / "out" / "cluster_report.json").read_text())
        for row in cluster["silhouette_sweep"]:
            assert f"{row['silhouette']:.6g}" in rendered

    def test_report_missing_file(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("name, body", [
        pytest.param("r.json", b'{"a": ', id="truncated-json"),
        pytest.param("r.json", b"[1,2]", id="top-level-list"),
        pytest.param("r.json", b'"text"', id="top-level-string"),
        pytest.param("r.json", b"\xff\xfe", id="not-utf8"),
        pytest.param("r.json", b'{"k": ' + b"1" * 5000 + b"}", id="int-over-digit-limit"),
        pytest.param("bundle/x_report.json", b"{oops", id="bad-report-in-bundle"),
    ])
    def test_report_bad_input_exits_two_naming_file(self, tmp_path, capsys, name, body):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(body)
        target = path.parent if name.startswith("bundle/") else path
        assert cli.main(["report", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err

    def test_report_renders_mixed_list_as_plain_value(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text('{"rows": [{"a": 1}, 2]}', encoding="utf-8")
        assert cli.main(["report", str(path)]) == 0
        assert "rows  {'a': 1} 2" in capsys.readouterr().out

    def test_analyze_k_beyond_six_exits_zero(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=200)
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[input]\nmode = csv\npath = {csv_path}\n\n"
            "[clustering]\nseed = 3\nk_range = 7,8\nn_init = 4\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "cluster_report.json").read_text())
        assert report["chosen_k"] in (7, 8)
        assert len(report["agreement"]) == 3

    @pytest.mark.parametrize("body", [
        pytest.param('{"categories": [', id="truncated-json"),
        pytest.param('{"categories": ' + "1" * 5000 + "}", id="int-over-digit-limit"),
    ])
    def test_extract_malformed_table_exits_two(self, corpus_dir, tmp_path, capsys, body):
        table = tmp_path / "bad.json"
        table.write_text(body, encoding="utf-8")
        out_csv = tmp_path / "features.csv"
        assert cli.main(["extract", str(corpus_dir), "-o", str(out_csv),
                         "--dss-table", str(table)]) == 2
        assert str(table) in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag, body, key", [
        ("--dss-table", {"name": "no categories"}, "categories"),
        ("--dss-table", {"structures": []}, "categories"),
        ("--ipsyn-table", {"categories": []}, "structures"),
        ("--dss-table", {"categories": [{"name": "c"}]}, "rules"),
        ("--dss-table", {"categories": [{"rules": [{"pos": "v"}]}]}, "points"),
        ("--ipsyn-table", {"structures": [{"name": "s"}]}, "token"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"pos": "v", "points": "3"}]}]},
                     "categories[0].rules[0].points", id="dss-points-str"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"pos": "v", "points": True}]}]},
                     "categories[0].rules[0].points", id="dss-points-bool"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"structural": "foo", "points": 3}]}]},
                     "categories[0].rules[0].structural", id="dss-structural-unknown"),
        pytest.param("--ipsyn-table", {"structures": [{"structural": "foo"}]},
                     "structures[0].structural", id="ipsyn-structural-unknown"),
        pytest.param("--ipsyn-table", {"structures": [{"token": {"pos": 3}}]},
                     "structures[0].token.pos", id="ipsyn-pos-int"),
        pytest.param("--ipsyn-table", {"cap": "x", "structures": [{"token": {"pos": "n"}}]},
                     "cap", id="ipsyn-cap-str"),
        pytest.param("--ipsyn-table", {"cap": -1, "structures": [{"token": {"pos": "n"}}]},
                     "cap", id="ipsyn-cap-negative"),
        pytest.param("--ipsyn-table", {"cap": True, "structures": [{"token": {"pos": "n"}}]},
                     "cap", id="ipsyn-cap-bool"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 1, "sequence": [1, 2]}]}]},
                     "categories[0].rules[0].sequence[0]", id="dss-sequence-ints"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 1, "sequence": []}]}]},
                     "categories[0].rules[0].sequence", id="dss-sequence-empty"),
        pytest.param("--dss-table", {"categories": [{"rules": ["pro"]}]},
                     "categories[0].rules[0]", id="dss-rule-str"),
        pytest.param("--ipsyn-table", {"structures": [{"token": ["n"]}]},
                     "structures[0].token", id="ipsyn-token-list"),
        pytest.param("--ipsyn-table", {"structures": [{"sequence": "abc"}]},
                     "structures[0].sequence", id="ipsyn-sequence-str"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 1, "pos": "pro",
                                                 "lemma_in": "it"}]}]},
                     "categories[0].rules[0].lemma_in", id="dss-lemma-in-str"),
        pytest.param("--ipsyn-table", {"structures": [{"token": {"pos_in": "v"}}]},
                     "structures[0].token.pos_in", id="ipsyn-pos-in-str"),
        pytest.param("--ipsyn-table",
                     {"structures": [{"sequence": [{"pos": "n"}, {"suffix_in": [1]}]}]},
                     "structures[0].sequence[1].suffix_in", id="ipsyn-suffix-in-int"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 1, "fusion_in": "PAST"}]}]},
                     "categories[0].rules[0].fusion_in", id="dss-fusion-in-str"),
        pytest.param("--ipsyn-table",
                     {"structures": [{"token": {"pos": "v", "inflected": "yes"}}]},
                     "structures[0].token.inflected", id="ipsyn-inflected-str"),
        pytest.param("--ipsyn-table", {"structures": [{"token": {"affix_in": "PL"}}]},
                     "structures[0].token.affix_in", id="ipsyn-affix-in-str"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 1, "pos": "cop",
                                                 "contracted": 1}]}]},
                     "categories[0].rules[0].contracted", id="dss-contracted-int"),
    ])
    def test_extract_table_missing_key_exits_two(self, corpus_dir, tmp_path, capsys,
                                                  flag, body, key):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(body), encoding="utf-8")
        assert cli.main(["extract", str(corpus_dir), "-o", str(tmp_path / "f.csv"),
                         flag, str(table)]) == 2
        err = capsys.readouterr().err
        assert str(table) in err
        assert repr(key) in err

    @pytest.mark.parametrize("flag, key, other", [
        ("--dss-table", "categories", "structures"),
        ("--ipsyn-table", "structures", "categories"),
    ])
    def test_table_without_its_key_names_that_key_only(self, corpus_dir, tmp_path, capsys,
                                                        flag, key, other):
        table = tmp_path / "table.json"
        table.write_text('{"name": "neither"}', encoding="utf-8")
        assert cli.main(["extract", str(corpus_dir), "-o", str(tmp_path / "f.csv"),
                         flag, str(table)]) == 2
        err = capsys.readouterr().err
        assert f"{table}: missing key {key!r}" in err
        assert other not in err

    def test_dss_table_ignores_a_malformed_structures_half(self, corpus_dir, tmp_path):
        table = scoring.default_dss_table()
        plain, mixed = tmp_path / "plain.json", tmp_path / "mixed.json"
        plain.write_text(json.dumps(table), encoding="utf-8")
        mixed.write_text(json.dumps({**table, "structures": [{"name": "no rule"}]}),
                         encoding="utf-8")
        csvs = []
        for path in (plain, mixed):
            out = tmp_path / f"{path.stem}.csv"
            assert cli.main(["extract", str(corpus_dir), "-o", str(out),
                             "--dss-table", str(path)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_extract_parse_error_names_file_and_line(self, corpus_dir, capsys):
        bad = corpus_dir / "bad.cha"
        bad.write_text("@Begin\n@Participants:\tCHI Child Target_Child\n"
                       "*CHI:\tthe dog runs .\n*CHI:\tthe <dog runs .\n@End\n",
                       encoding="utf-8")
        assert cli.main(["extract", str(corpus_dir), "-o",
                         str(corpus_dir / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 4: '<' without matching '>'" in err

    def test_extract_non_utf8_names_file_and_offset(self, corpus_dir, capsys):
        bad = corpus_dir / "bad.cha"
        bad.write_bytes(b"@Begin\n*CHI:\tthe dog\xff runs .\n@End\n")
        assert cli.main(["extract", str(corpus_dir), "-o",
                         str(corpus_dir / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8: byte 0xff at offset 20" in err

    @pytest.mark.parametrize("command", ["extract", "analyze"])
    def test_non_utf8_file_name_exits_two_from_load(self, corpus_dir, tmp_path, capsys,
                                                     command):
        # the name's stem would become a row id that no report can write as UTF-8
        try:
            os.rename(corpus_dir / "sli_00.cha", os.fsencode(corpus_dir) + b"/ch\xffild.cha")
        except OSError:
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        out = tmp_path / "out"
        if command == "extract":
            out.mkdir()
            argv = ["extract", str(corpus_dir), "-o", str(out / "f.csv")]
        else:
            cfg = tmp_path / "c.ini"
            cfg.write_text(f"[input]\nmode = transcripts\npath = {corpus_dir}\n"
                           "[clustering]\nseed = 1\nk_range = 2..3\nn_init = 8\n"
                           f"[output]\ndir = {out}\n")
            argv = ["analyze", "--config", str(cfg)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (f"error: stage 'load' failed: {corpus_dir}/"
                                           "ch\\xffild.cha: file name is not UTF-8\n")
        assert not out.exists() or not any(out.iterdir())

    def test_import_cli_loads_no_scipy(self):
        src = Path(langprofile.__file__).resolve().parents[1]
        code = ("import sys, langprofile.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestWriteStage:
    """``analyze`` and ``extract`` write their files in the ``write``
    stage.  A failure there leaves none of the files it opened, the one
    being written included."""

    def test_os_error_partway_removes_every_report(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=40)
        out = tmp_path / "out"
        (out / "pc_scores.csv").mkdir(parents=True)  # the fifth of the six files
        cfg = write_config(tmp_path / "c.ini", csv_path, out)
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'write' failed: ")
        assert str(out / "pc_scores.csv") in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["pc_scores.csv"]
        assert not any((out / "pc_scores.csv").iterdir())

    def test_extract_to_a_directory_exits_two(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["extract", str(corpus_dir), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'write' failed: ") and "Traceback" not in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["analyze", "extract"])
    def test_programming_fault_propagates_and_leaves_no_partial_file(
            self, corpus_dir, tmp_path, monkeypatch, command):
        # text that is not a str fails only once its file is open
        out = tmp_path / "out"
        if command == "analyze":
            monkeypatch.setattr(pipeline, "dumps_report", lambda obj: b"{}")
            csv_path = tmp_path / "f.csv"
            write_synthetic_csv(csv_path, n=40)
            argv = ["analyze", "--config", str(write_config(tmp_path / "c.ini", csv_path, out))]
        else:
            monkeypatch.setattr(pipeline, "render_feature_csv", lambda cohort: b"id\n")
            out.mkdir()
            argv = ["extract", str(corpus_dir), "-o", str(out / "f.csv")]
        with pytest.raises(TypeError):
            cli.main(argv)
        assert not any(out.iterdir())


BOM = b"\xef\xbb\xbf"
ENDINGS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}

# each line ending with and without a byte-order mark, but for the LF file
# without one that each test compares against
recodings = pytest.mark.parametrize("ending, bom", [
    pytest.param(ending, bom, id=ending + "-bom" * bom)
    for ending in ENDINGS for bom in (False, True) if (ending, bom) != ("lf", False)])


def _recode(path, ending, bom):
    """Rewrite the LF text file ``path`` with line ending ``ENDINGS[ending]``,
    and with a byte-order mark in front if ``bom``."""
    path.write_bytes(BOM * bom + path.read_bytes().replace(b"\n", ENDINGS[ending]))


class TestByteOrderMark:
    """An input file is read as UTF-8 with or without a byte-order mark,
    and with LF, CRLF or lone-CR line endings: each run gives the same
    bytes as the LF file without a mark, at the same path (the config hash
    covers the paths)."""

    def _analyze(self, cfg, out):
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        return {name: (out / name).read_bytes() for name in pipeline.REPORT_FILES}

    @recodings
    def test_feature_csv(self, tmp_path, capsys, ending, bom):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=60)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        before = self._analyze(cfg, tmp_path / "out")
        _recode(csv_path, ending, bom)
        assert self._analyze(cfg, tmp_path / "out") == before

    @recodings
    def test_config(self, tmp_path, capsys, ending, bom):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=60)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        before = self._analyze(cfg, tmp_path / "out")
        _recode(cfg, ending, bom)
        assert self._analyze(cfg, tmp_path / "out") == before

    def _extract(self, corpus_dir, out, capsys, *flags):
        assert cli.main(["extract", str(corpus_dir), "-o", str(out), *flags]) == 0
        return out.read_bytes(), capsys.readouterr().err

    @recodings
    def test_transcripts(self, corpus_dir, tmp_path, capsys, ending, bom):
        (corpus_dir / "extra.cha").write_text(
            "@Begin\n@ID:\teng|c|CHI|4;02.|male|SLI||Target_Child|||\n"
            "*CHI:\tthe dog ran .\n%mor:\tdet|the n|dog .\n@End\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        before = self._extract(corpus_dir, out, capsys)
        assert "mor dropped" in before[1]
        for path in corpus_dir.glob("*.cha"):
            _recode(path, ending, bom)
        assert self._extract(corpus_dir, out, capsys) == before

    @recodings
    @pytest.mark.parametrize("kind", ["dss", "ipsyn"])
    def test_scoring_table(self, corpus_dir, tmp_path, capsys, kind, ending, bom):
        table = tmp_path / f"{kind}.json"
        default = getattr(scoring, f"default_{kind}_table")()
        table.write_text(json.dumps(default, indent=1), encoding="utf-8")
        out = tmp_path / "f.csv"
        flags = (f"--{kind}-table", str(table))
        before = self._extract(corpus_dir, out, capsys, *flags)
        _recode(table, ending, bom)
        assert self._extract(corpus_dir, out, capsys, *flags) == before

    @recodings
    def test_report(self, tmp_path, capsys, ending, bom):
        path = tmp_path / "r_report.json"
        path.write_text(json.dumps({"k": 2, "rows": [{"a": 1.5}]}, indent=2) + "\n",
                        encoding="utf-8")
        assert cli.main(["report", str(path)]) == 0
        before = capsys.readouterr().out
        _recode(path, ending, bom)
        assert cli.main(["report", str(path)]) == 0
        assert capsys.readouterr().out == before

    @recodings
    def test_model_file(self, corpus_dir, tmp_path, ending, bom):
        transcripts = pipeline.load_transcripts(corpus_dir)
        path = tmp_path / "m.lm"
        save_model(ngram.train(transcripts, 2), path)
        before = load_model(path)
        _recode(path, ending, bom)
        assert load_model(path) == before

    @pytest.mark.parametrize("name, body, argv", [
        pytest.param("bad.cha", b"@Begin\n*CHI:\tthe dog\xff runs .\n@End\n",
                     ["extract", "{corpus}", "-o", "{out}"], id="transcript"),
        pytest.param("f.csv", b"id,corpus\nc1,\xff\n", ["analyze", "--config", "{config}"],
                     id="feature-csv"),
        pytest.param("bad.ini", b"[input]\nmode = csv\xff\n", ["analyze", "--config", "{path}"],
                     id="config"),
        pytest.param("dss.json", b'{"categories": "\xff"}',
                     ["extract", "{corpus}", "-o", "{out}", "--dss-table", "{path}"],
                     id="dss-table"),
        pytest.param("ipsyn.json", b'{"structures": "\xff"}',
                     ["extract", "{corpus}", "-o", "{out}", "--ipsyn-table", "{path}"],
                     id="ipsyn-table"),
        pytest.param("r_report.json", b'{"k": "\xff"}', ["report", "{path}"], id="report"),
        pytest.param("m.lm", b"ngram\torder=1\tk=1.0\tunk_threshold=1\tpad=1\nvocab\ta \xff\n",
                     None, id="model"),
    ])
    def test_non_utf8_byte_names_file_and_offset(self, corpus_dir, tmp_path, capsys,
                                                 name, body, argv):
        path = (corpus_dir if name.endswith(".cha") else tmp_path) / name
        path.write_bytes(BOM + body)
        offset = (BOM + body).index(b"\xff")  # the mark counts
        message = f"{path}: not UTF-8: byte 0xff at offset {offset}"
        if argv is None:
            with pytest.raises(DataError) as err:
                load_model(path)
            assert str(err.value) == message
            return
        config = write_config(tmp_path / "c.ini", path, tmp_path / "out")
        argv = [arg.format(corpus=corpus_dir, out=tmp_path / "out.csv", config=config,
                           path=path) for arg in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestInputReads:
    """Each input file is read once, through ``errors.read_text``."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        """The paths passed to ``read_text``, and the paths that any code
        opened for reading, each in call order."""
        through, opened = [], []

        def recording_read(path, **kwargs):
            through.append(Path(path))
            return read_text(path, **kwargs)

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and "r" in mode:
                opened.append(Path(file))
            return real_open(file, mode, *args, **kwargs)

        real_open = io.open
        for module in (pipeline, ngram, scoring, cli):
            monkeypatch.setattr(module, "read_text", recording_read)
        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        return through, opened

    @staticmethod
    def _read_once(reads, inputs):
        through, opened = reads
        assert sorted(through) == sorted(inputs)
        assert sorted(p for p in opened if p in inputs) == sorted(inputs)

    def test_extract_with_tables(self, corpus_dir, tmp_path, capsys, reads):
        tables = []
        for kind in ("dss", "ipsyn"):
            tables.append(tmp_path / f"{kind}.json")
            default = getattr(scoring, f"default_{kind}_table")()
            tables[-1].write_text(json.dumps(default), encoding="utf-8")
        assert cli.main(["extract", str(corpus_dir), "-o", str(tmp_path / "f.csv"),
                         "--dss-table", str(tables[0]), "--ipsyn-table", str(tables[1])]) == 0
        self._read_once(reads, [*corpus_dir.glob("*.cha"), *tables])

    def test_analyze_csv_mode(self, tmp_path, capsys, reads):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=40)
        cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        self._read_once(reads, [cfg, csv_path])

    def test_analyze_transcripts_mode(self, corpus_dir, tmp_path, capsys, reads):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[input]\nmode = transcripts\npath = {corpus_dir}\n"
                       "[clustering]\nseed = 1\nk_range = 2..3\nn_init = 8\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        self._read_once(reads, [cfg, *corpus_dir.glob("*.cha")])

    def test_report_on_a_bundle(self, tmp_path, capsys, reads):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=40)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config",
                         str(write_config(tmp_path / "c.ini", csv_path, out))]) == 0
        for paths in reads:
            paths.clear()
        assert cli.main(["report", str(out)]) == 0
        self._read_once(reads, list(out.glob("*_report.json")))


class TestGroupSizes:
    """z-scores need at least two transcripts in each group, and the n-gram
    models at least one: a corpus short of either is a data error (exit 2)
    that names the stage and the group."""

    @pytest.mark.parametrize("n_td", [0, 1])
    def test_extract(self, tmp_path, capsys, n_td):
        make_corpus(tmp_path / "corpus", n_td=n_td)
        out = tmp_path / "f.csv"
        assert cli.main(["extract", str(tmp_path / "corpus"), "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("error: stage 'extract' failed: group TD "
                                           f"needs at least 2 transcripts, got {n_td}\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_td", [0, 1])
    def test_train_lm(self, tmp_path, capsys, n_td):
        make_corpus(tmp_path / "corpus", n_td=n_td)
        out = tmp_path / "models"
        code = cli.main(["train-lm", str(tmp_path / "corpus"), "-o", str(out)])
        if n_td == 0:
            assert code == 2
            assert capsys.readouterr().err == ("error: stage 'train' failed: "
                                               "no transcripts labeled TD\n")
            assert not out.exists()
        else:
            assert code == 0
            assert len(list(out.glob("td_*.lm"))) == 3

    def test_train_lm_onto_a_file_fails_in_write(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "models"
        out.write_text("not a directory\n", encoding="utf-8")
        assert cli.main(["train-lm", str(corpus_dir), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: stage 'write' failed: "
                                                  "[Errno 17] File exists")
