import builtins
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
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
from tests.conftest import build_cha, make_corpus
from tests.oracles import format_number, per_element_feature_csv


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

    def test_text_fields_quoted_and_numbers_formatted_as_per_element_csv(self):
        # ids that csv must quote, an empty id, and rows with and without NaN
        lead = [["a,b", "x"], ['q"t', ""], ["line\nbreak", "cr\rhere"], ["", " pad "]]
        numbers = np.array([[1.5, -0.0, 5e-324], [np.nan, 2.0, 1e300],
                            [0.1, np.nan, np.nan], [3.0, -17.0, 1.0 / 3.0]])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "tag", "u", "v", "w"])
        for fields, row in zip(lead, numbers):
            writer.writerow([*fields, *[format_number(v) for v in row]])
        text = pipeline._csv_text(["id", "tag", "u", "v", "w"], lead, numbers)
        assert text == buf.getvalue()
        assert '"q""t",,,2,1e+300\n' in text and ",0.1,,\n" in text

    @pytest.mark.parametrize("cell, value", [(" 1.5 ", 1.5), ("\t-2e3", -2000.0),
                                             ("  ", np.nan), (" nan ", np.nan),
                                             ("-0.0", -0.0), ("5e-324", 5e-324),
                                             ("1_000", 1000.0)])
    def test_padded_and_special_cells_parse_as_today(self, tmp_path, cell, value):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=3)
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[9] = cell
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        got = pipeline.ingest_feature_csv(csv_path).matrix.values[1, 4]
        assert got == value or (np.isnan(value) and np.isnan(got))
        assert math.copysign(1.0, got) == math.copysign(1.0, value)

    @pytest.mark.parametrize("cell", [" inf", "1e400 "])
    def test_padded_infinite_cell_is_refused(self, tmp_path, cell):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=3)
        lines = csv_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[6] = cell
        lines[3] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonNumericCell, match=f"row 3, column {FEATURE_NAMES[1]!r}: "
                                                 "not a finite number"):
            pipeline.ingest_feature_csv(csv_path)

    def test_bad_cell_after_a_blank_one_is_named(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=3)
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[6] = ""
        cells[11] = " 1.2.3 "
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonNumericCell) as err:
            pipeline.ingest_feature_csv(csv_path)
        assert str(err.value) == f"{csv_path}: row 2, column {FEATURE_NAMES[6]!r}: '1.2.3'"

    def test_render_then_ingest_reads_back_every_written_float(self, tmp_path):
        special = [np.nan, -0.0, 0.0, 5e-324, 1e-300, 1e300, 3.0, 0.1, 1.0 / 3.0]
        values = np.resize(np.array(special), (4, len(FEATURE_NAMES)))
        values[3] = np.arange(len(FEATURE_NAMES), dtype=float) / 8.0
        ids = ("a", "b,c", "d", "")
        cohort = pipeline.Cohort(FeatureMatrix(values, FEATURE_NAMES, ids), ("x",) * 4,
                                 ("SLI", "TD", "", "TD"), (40, None, 51, 60), ("F", "", "M", ""))
        csv_path = tmp_path / "f.csv"
        csv_path.write_text(pipeline.render_feature_csv(cohort), encoding="utf-8")
        loaded = pipeline.ingest_feature_csv(csv_path)
        assert loaded.matrix.row_ids == ids
        got = loaded.matrix.values
        want = np.array([[float(f"{v:.10g}") for v in row] for row in values.tolist()])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got[~np.isnan(want)], want[~np.isnan(want)])
        assert np.array_equal(np.signbit(got), np.signbit(want))

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

    @staticmethod
    def _config_with(tmp_path, section, key, text):
        """A config of the required keys, mode csv and seed 1, with
        ``[section] key = text`` set."""
        values = {"input": {"mode": "csv", "path": "x.csv"},
                  "clustering": {"seed": "1"}, "output": {"dir": "o"}}
        values.setdefault(section, {})[key] = text
        lines = []
        for name, pairs in values.items():
            lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in pairs.items()]
        cfg = tmp_path / "c.ini"
        cfg.write_text("\n".join(lines) + "\n")
        return cfg

    # for each PipelineConfig field: its key, a valid text for it, and the
    # value read, which is not the one the required-keys config gives
    NON_DEFAULT = [
        ("input_mode", "input", "mode", "Transcripts", "transcripts"),
        ("input_path", "input", "path", "in put.csv", "in put.csv"),
        ("output_dir", "output", "dir", "out dir", "out dir"),
        ("seed", "clustering", "seed", "7", 7),
        ("count_fusions", "schema", "count_fusions", "Yes", True),
        ("dss_table", "schema", "dss_table", "dss.json", "dss.json"),
        ("ipsyn_table", "schema", "ipsyn_table", "ipsyn.json", "ipsyn.json"),
        ("smoothing_k", "lm", "smoothing_k", "0.5", 0.5),
        ("unk_threshold", "lm", "unk_threshold", "2", 2),
        ("loo", "lm", "loo", "on", True),
        ("prune_threshold", "prune", "threshold", "0.8", 0.8),
        ("top_k", "pca", "top_k", "3", 3),
        ("k_range", "clustering", "k_range", "2..4", (2, 3, 4)),
        ("n_init", "clustering", "n_init", "4", 4),
        ("boundary_percentile", "clustering", "boundary_percentile", "10", 10.0),
        ("pc_dims", "clustering", "pc_dims", "2", 2),
        ("dbscan_eps", "clustering", "dbscan_eps", "0.7", "0.7"),
        ("dbscan_min_pts", "clustering", "dbscan_min_pts", "3", 3),
        ("effect_features", "clustering", "effect_features", " word_errors, child_TNW,",
         ("word_errors", "child_TNW")),
    ]

    def test_every_field_has_a_non_default_case(self):
        assert [case[0] for case in self.NON_DEFAULT] == \
            [f.name for f in dataclasses.fields(pipeline.PipelineConfig)]

    @pytest.mark.parametrize("name, section, key, text, value", NON_DEFAULT + [
        ("input_mode", "input", "mode", "CSV", "csv"),
        ("count_fusions", "schema", "count_fusions", "0", False),
    ])
    def test_valid_value_sets_its_field_alone(self, tmp_path, name, section, key, text,
                                              value):
        config = pipeline.load_config(self._config_with(tmp_path, section, key, text))
        assert getattr(config, name) == value
        required = pipeline.PipelineConfig("csv", "x.csv", "o", 1)
        assert config == dataclasses.replace(required, **{name: value})

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
        cfg = self._config_with(tmp_path, section, key, text)
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
        assert str(err.value.cause) == "k_range values [5, 6] outside [2, n-1] for n=5"

    def test_long_k_range_exits_two_quickly_with_a_short_message(self, tmp_path):
        # every k above n - 1 is out of range: the repeat check must not take
        # quadratic time, and the error must not name each of them
        csv_path = tmp_path / "features.csv"
        write_synthetic_csv(csv_path, n=40)
        cfg = write_config(tmp_path / "cfg.ini", csv_path, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("k_range = 2..6", "k_range = 2..100000"))
        src = Path(langprofile.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "langprofile.cli", "analyze", "--config", str(cfg)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert len(done.stderr) < 300
        assert "k_range values (99961 of them, from 40 to 100000) outside [2, n-1] " \
            "for n=40" in done.stderr

    def test_kmeans_fitted_once_per_k_plus_three_planes(self, bundle_env, monkeypatch):
        cfg, _ = bundle_env
        config = pipeline.load_config(cfg)
        fitted_ks = []
        fits = clustering._fits

        def counting_fits(X, ks, *args, **kwargs):
            fitted_ks.append(tuple(ks))
            return fits(X, ks, *args, **kwargs)

        monkeypatch.setattr(clustering, "_fits", counting_fits)
        bundle = pipeline.run_pipeline(config)
        # one sweep call fits every k once; each plane then fits the chosen k
        chosen = bundle.cluster_report["chosen_k"]
        assert fitted_ks == [tuple(config.k_range)] + [(chosen,)] * 3
        assert sum(map(len, fitted_ks)) == len(config.k_range) + 3

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

    def test_holds_one_distance_matrix_at_a_time(self, tmp_path):
        # the traced peak grows with n by about one float64 n x n matrix:
        # no stage copies, squares or compares the distances beside it
        peaks = {}
        for n in (300, 600):
            csv_path = tmp_path / f"f{n}.csv"
            write_synthetic_csv(csv_path, n=n, seed=5)
            config = pipeline.load_config(
                write_config(tmp_path / f"c{n}.ini", csv_path, tmp_path / f"out{n}"))
            tracemalloc.start()
            try:
                pipeline.run_pipeline(config)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[600] - peaks[300]) / (8 * (600 ** 2 - 300 ** 2)) <= 1.6


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

    def test_explicit_dbscan_eps_is_used_as_given(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=80)
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[input]\nmode = csv\npath = {csv_path}\n"
                       "[clustering]\nseed = 1\nk_range = 2..3\ndbscan_eps = 1.5\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        seen = []
        dbscan = clustering.dbscan

        def spy(distances, eps, min_pts):
            seen.append(eps)
            return dbscan(distances, eps, min_pts)

        def auto_eps(*args):
            raise AssertionError("_auto_eps called for an explicit dbscan_eps")

        monkeypatch.setattr(clustering, "dbscan", spy)
        monkeypatch.setattr(pipeline, "_auto_eps", auto_eps)
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "cluster_report.json").read_text(encoding="utf-8"))
        assert report["cross_checks"]["dbscan_eps"] == 1.5
        assert seen == [1.5]

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
            assert ngram.model_text(load_model(p)) == p.read_text(encoding="utf-8")

    def test_train_lm_failed_write_leaves_no_model(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "models"
        (out / "td_1g.lm").mkdir(parents=True)
        assert cli.main(["train-lm", str(corpus_dir), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: stage 'write' failed:")
        assert [p.name for p in out.iterdir()] == ["td_1g.lm"]  # the directory

    def test_train_lm_writes_save_model_bytes(self, corpus_dir, tmp_path):
        out = tmp_path / "models"
        assert cli.main(["train-lm", str(corpus_dir), "-o", str(out)]) == 0
        models = ngram.GroupModels(pipeline.load_transcripts(corpus_dir)).models
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
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 5, "pos": "n", "lemma": ["cat"]}]}]},
                     "lemma", id="dss-rule-unknown-key"),
        pytest.param("--ipsyn-table",
                     {"structures": [{"token": {"pos": "n", "lemma": ["cat"]}}]},
                     "lemma", id="ipsyn-token-unknown-key"),
        pytest.param("--ipsyn-table",
                     {"structures": [{"sequence": [{"pos": "n"}, {"pos": "v", "points": 1}]}]},
                     "points", id="ipsyn-sequence-item-unknown-key"),
        pytest.param("--dss-table",
                     {"categories": [{"rules": [{"points": 1, "sequence": [{"pos_of": "n"}]}]}]},
                     "pos_of", id="dss-sequence-item-unknown-key"),
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

    def test_import_cli_loads_no_scipy(self, tmp_path, corpus_dir):
        """Importing the CLI and running ``extract`` leave hashlib and
        OpenSSL's ``_hashlib`` unimported, which only the reports' config
        hash needs; running ``analyze`` to its effect table (Welch p-values
        included) then leaves scipy unimported."""
        csv_path = tmp_path / "f.csv"
        write_synthetic_csv(csv_path, n=40)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", csv_path, out)
        src = Path(langprofile.__file__).resolve().parents[1]
        code = ("import sys, langprofile.cli; "
                f"rc = langprofile.cli.main(['extract', {str(corpus_dir)!r}, "
                f"'-o', {str(tmp_path / 'e.csv')!r}]); "
                "print(rc, sorted({'hashlib', '_hashlib'} & sys.modules.keys())); "
                f"rc = langprofile.cli.main(['analyze', '--config', {str(cfg)!r}]); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:2] == [f"wrote 8 rows to {tmp_path / 'e.csv'}", "0 []"]
        assert lines[-1] == "0 []"
        effects = json.loads((out / "cluster_report.json").read_text())["effects"]
        assert effects and all(0.0 <= e["p_value"] <= 1.0 for e in effects)


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


def _analyze_csv(tmp_path, edit):
    """The argv that analyzes a 40-row synthetic feature CSV after
    ``edit(lines)`` rewrote its lines, and the CSV's path."""
    csv_path = tmp_path / "f.csv"
    write_synthetic_csv(csv_path, n=40)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    csv_path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    cfg = write_config(tmp_path / "c.ini", csv_path, tmp_path / "out")
    return ["analyze", "--config", str(cfg)], csv_path


def _set_cell(lines, row, column, text):
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[row] = ",".join(cells)


def _missing_config(tmp_path):
    cfg = tmp_path / "none.ini"
    return ["analyze", "--config", str(cfg)], 2, f"data error: cannot read config file {str(cfg)!r}"


def _empty_csv(tmp_path):
    argv, csv_path = _analyze_csv(tmp_path, lambda lines: [])
    return argv, 2, f"error: stage 'load' failed: {csv_path}: empty file"


def _header_only_csv(tmp_path):
    argv, csv_path = _analyze_csv(tmp_path, lambda lines: lines[:1])
    return argv, 2, f"error: stage 'load' failed: {csv_path}: no data rows"


def _non_integer_age(tmp_path):
    def edit(lines):
        _set_cell(lines, 1, "age_months", "abc")
        return lines
    argv, csv_path = _analyze_csv(tmp_path, edit)
    return argv, 2, f"error: stage 'load' failed: {csv_path}: row 1, column 'age_months': 'abc'"


def _non_positive_age(tmp_path):
    def edit(lines):
        _set_cell(lines, 2, "age_months", "-5")
        return lines
    argv, csv_path = _analyze_csv(tmp_path, edit)
    return argv, 2, (f"error: stage 'load' failed: {csv_path}: row 2, column 'age_months': "
                     "non-positive age '-5'")


def _blank_column(tmp_path):
    def edit(lines):
        for row in range(1, len(lines)):
            _set_cell(lines, row, "n_aux", "")
        return lines
    argv, _ = _analyze_csv(tmp_path, edit)
    return argv, 3, "error: stage 'impute' failed: column 'n_aux' has no observed values"


def _mostly_duplicate_rows(tmp_path):
    def edit(lines):
        features = lines[1].split(",")[5:]
        for row in range(1, 31):
            lines[row] = ",".join(lines[row].split(",")[:5] + features)
        return lines
    argv, _ = _analyze_csv(tmp_path, edit)
    return argv, 3, ("error: stage 'cross_check' failed: [clustering] dbscan_eps = auto gave "
                     "0.0 at dbscan_min_pts = 5: too many rows coincide in the clustering "
                     "space; set a positive dbscan_eps")


def _no_cha_files(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "notes.txt").write_text("not a transcript\n", encoding="utf-8")
    return (["extract", str(corpus), "-o", str(tmp_path / "f.csv")], 2,
            f"error: stage 'load' failed: no .cha files under {str(corpus)!r}")


def _no_reports(tmp_path):
    (tmp_path / "notes.json").write_text("{}\n", encoding="utf-8")
    return ["report", str(tmp_path)], 2, f"data error: no *_report.json files in {tmp_path}"


def _zero_chat_age(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    path = corpus / "z.cha"
    # @ID on line 2: the message names the line that holds the age
    path.write_text("\n".join(line for line in build_cha("z", "TD", "0;00", "male", [0], 0)
                               .split("\n") if not line.startswith("@Participants")),
                    encoding="utf-8")
    return (["extract", str(corpus), "-o", str(tmp_path / "f.csv")], 2,
            f"error: stage 'load' failed: {path}: line 2: non-positive age '0;00'")


def _misspelt_table_key(tmp_path):
    # "lemma" for "lemma_in" would drop the lemma test and widen the rule
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    table = tmp_path / "dss.json"
    table.write_text(json.dumps({"categories": [{"rules": [
        {"points": 5, "pos": "n", "lemma": ["cat"]}]}]}), encoding="utf-8")
    return (["extract", str(corpus), "-o", str(tmp_path / "f.csv"), "--dss-table", str(table)],
            2, f"error: stage 'extract' failed: {table}: categories[0].rules[0]: "
               "unknown key 'lemma'")


def _dss_points_past_float(tmp_path):
    # an integer as JSON and load_table allow, but no float can hold the score
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    table = tmp_path / "dss.json"
    table.write_text('{"categories": [{"rules": [{"points": 1, "pos": "n"}]}, '
                     '{"rules": [{"points": 2, "pos": "v"}, '
                     '{"points": 1' + "0" * 400 + ', "pos": "pro"}]}]}', encoding="utf-8")
    return (["extract", str(corpus), "-o", str(tmp_path / "f.csv"), "--dss-table", str(table)],
            2, f"error: stage 'extract' failed: {table}: 'categories[1].rules[1].points' takes "
               "the highest utterance score, each category's top points plus the sentence "
               "point, past the largest float")


def _dss_total_past_float(tmp_path):
    # each utterance's score fits a float, but a transcript's sum of them does not
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    table = tmp_path / "dss.json"
    table.write_text('{"categories": [{"rules": [{"points": 1' + "0" * 308 + ', "pos": "n"}]}]}',
                     encoding="utf-8")
    return (["extract", str(corpus), "-o", str(tmp_path / "f.csv"), "--dss-table", str(table)],
            2, f"error: stage 'extract' failed: {table}: the DSS points of transcript "
               "'sli_00' sum past the largest float")


def _report_entry_is_a_directory(tmp_path):
    (tmp_path / "a_report.json").mkdir()
    return (["report", str(tmp_path)], 2,
            f"i/o error: [Errno 21] Is a directory: {str(tmp_path / 'a_report.json')!r}")


def _wordless_transcript(tmp_path):
    corpus = tmp_path / "corpus"
    make_corpus(corpus)
    (corpus / "z.cha").write_text(build_cha("z", "TD", "5;00.", "male", [], 0).replace(
        "@End", "*CHI:\t&-um .\n@End"), encoding="utf-8")
    return (["extract", str(corpus), "-o", str(tmp_path / "f.csv")], 2,
            "error: stage 'extract' failed: transcript 'z' has no child tokens")


@pytest.mark.parametrize("case", [
    _missing_config, _empty_csv, _header_only_csv, _non_integer_age, _non_positive_age,
    _blank_column, _mostly_duplicate_rows, _no_cha_files, _no_reports, _wordless_transcript,
    _zero_chat_age, _report_entry_is_a_directory, _misspelt_table_key,
    _dss_points_past_float, _dss_total_past_float,
], ids=lambda case: case.__name__.strip("_"))
def test_documented_failure_exits_with_one_message(tmp_path, capsys, case):
    """Each documented bad input ends in its exit code and one message that
    names the file, column or transcript, with no traceback."""
    argv, code, message = case(tmp_path)
    assert cli.main(argv) == code
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("error, code", [(NumericError, 3), (DataError, 2), (OSError, 2)],
                         ids=lambda value: getattr(value, "__name__", str(value)))
@pytest.mark.parametrize("mode, module, callee, stage", [
    ("csv", numerics, "impute_missing", "impute"),
    ("csv", numerics, "standardize", "standardize"),
    ("csv", numerics, "prune_correlated", "prune"),
    ("csv", numerics, "pca_fit", "pca"),
    ("csv", clustering, "silhouette_sweep", "sweep"),
    ("csv", clustering, "ward_linkage", "cross_check"),
    ("csv", pipeline, "_plane_agreement", "cross_check"),
    ("csv", clustering, "boundary_cases", "boundary"),
    ("csv", clustering, "detect_outliers", "outliers"),
    ("csv", clustering, "cluster_profiles", "profiles"),
    ("csv", clustering, "compare_features", "effects"),
    ("csv", pipeline, "write_files", "write"),
    ("transcripts", pipeline, "load_transcripts", "load"),
    ("transcripts", pipeline, "extract_cohort", "extract"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_every_stage_names_itself_when_it_fails(tmp_path, corpus_dir, capsys, monkeypatch,
                                                mode, module, callee, stage, error, code):
    """A documented error raised by a stage's first callee ends in one
    message naming that stage: exit 3 for a numeric error, 2 otherwise."""
    def failing(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(module, callee, failing)
    if mode == "csv":
        argv, _ = _analyze_csv(tmp_path, lambda lines: lines)
    else:
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[input]\nmode = transcripts\npath = {corpus_dir}\n"
                       "[clustering]\nseed = 1\nk_range = 2..3\nn_init = 8\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
        argv = ["analyze", "--config", str(cfg)]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == f"error: stage '{stage}' failed: planted failure\n"
