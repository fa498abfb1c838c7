"""Command-line front end.

Subcommands:

* ``extract``  transcripts dir -> feature CSV
* ``train-lm`` transcripts dir -> six saved n-gram model files
* ``analyze``  config file -> full report bundle
* ``report``   report JSON/bundle -> human-readable tables

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ngram, pipeline
from .errors import DataError, NumericError, PipelineError, UsageError, read_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _lm_setting(name: str):
    """An argparse type: the flag's text read as ``PipelineConfig`` field
    ``name`` declares."""
    def setting(text: str):
        try:
            return pipeline.parse_setting(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
    return setting


def _add_lm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smoothing-k", type=_lm_setting("smoothing_k"),
                   default=pipeline.PipelineConfig.smoothing_k,
                   help="add-k smoothing constant (finite, >= 0)")
    p.add_argument("--unk-threshold", type=_lm_setting("unk_threshold"),
                   default=pipeline.PipelineConfig.unk_threshold,
                   help="types rarer than this become <unk> (>= 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="langprofile",
                     description="Language-sample feature extraction and "
                                 "cluster profiling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract the feature CSV from a "
                                       "directory of .cha transcripts")
    p.add_argument("transcripts", help="directory containing .cha files")
    p.add_argument("-o", "--output", required=True, help="feature CSV to write")
    _add_lm_flags(p)
    p.add_argument("--loo", action="store_true",
                   help="score each transcript with a leave-one-out model "
                        "of its own group")
    p.add_argument("--count-fusions", action="store_true",
                   help="count fused affixes as morphemes")
    p.add_argument("--dss-table", default="", help="custom DSS scoring table (JSON)")
    p.add_argument("--ipsyn-table", default="", help="custom IPSyn checklist (JSON)")
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("train-lm", help="train and save the six group "
                                        "language models")
    p.add_argument("transcripts", help="directory containing .cha files")
    p.add_argument("-o", "--output", required=True, help="output directory")
    _add_lm_flags(p)
    p.set_defaults(run=_cmd_train_lm)

    p = sub.add_parser("analyze", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("report", help="render report JSON as readable tables")
    p.add_argument("path", help="a report .json file or a bundle directory")
    p.set_defaults(run=_cmd_report)
    return parser


def _cmd_extract(args) -> int:
    config = pipeline.PipelineConfig(
        input_mode="transcripts", input_path=args.transcripts, output_dir=".",
        seed=0, count_fusions=args.count_fusions, dss_table=args.dss_table,
        ipsyn_table=args.ipsyn_table, smoothing_k=args.smoothing_k,
        unk_threshold=args.unk_threshold, loo=args.loo)
    cohort, transcripts = pipeline.load_cohort(config)
    with pipeline._stage("write"):
        pipeline.write_files({Path(args.output): pipeline.render_feature_csv(cohort)})
    for t in transcripts:
        for w in t.warnings:
            print(f"warning: {t.id}: {w}", file=sys.stderr)
    print(f"wrote {len(cohort.matrix.row_ids)} rows to {args.output}")
    return 0


def _cmd_train_lm(args) -> int:
    with pipeline._stage("load"):
        transcripts = pipeline.load_transcripts(args.transcripts)
    with pipeline._stage("train"):
        models = ngram.GroupModels(transcripts, args.smoothing_k, args.unk_threshold).models
    out = Path(args.output)
    files = {out / f"{prefix}_{order}g.lm": ngram.model_text(model)
             for label, prefix in (("SLI", "sli"), ("TD", "td"))
             for order, model in models[label].items()}
    with pipeline._stage("write"):
        out.mkdir(parents=True, exist_ok=True)
        pipeline.write_files(files)
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_analyze(args) -> int:
    config = pipeline.load_config(args.config)
    bundle = pipeline.run_pipeline(config)
    for name in pipeline.REPORT_FILES:
        print(f"wrote {bundle.output_dir / name}")
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_table(rows: list[dict], title: str) -> str:
    if not rows:
        return f"{title}\n  (empty)\n"
    cols = list(rows[0].keys())
    table = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    lines = [title,
             "  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
             "  " + "  ".join("-" * w for w in widths)]
    for row in table:
        lines.append("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _render_report(path: Path) -> str:
    try:
        data = json.loads(read_text(path))
    except ValueError as exc:  # not JSON, or an integer over int's digit limit
        raise DataError(f"{path}: not a JSON report: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: a report is a JSON object, not a {type(data).__name__}")
    out = [f"== {path.name} =="]
    scalars = []
    for key, value in data.items():
        if value and isinstance(value, list) and all(isinstance(v, dict) for v in value):
            out.append(_render_table(value, key))
        elif isinstance(value, dict):
            out.append(_render_table([value], key))
        elif isinstance(value, list):
            scalars.append({"key": key, "value": " ".join(map(str, value))})
        else:
            scalars.append({"key": key, "value": _fmt(value)})
    out.insert(1, _render_table(scalars, "summary"))
    return "\n".join(out)


def _cmd_report(args) -> int:
    target = Path(args.path)
    if target.is_dir():
        paths = sorted(target.glob("*_report.json"))
        if not paths:
            raise DataError(f"no *_report.json files in {target}")
    else:
        if not target.exists():
            raise DataError(f"no such report: {target}")
        paths = [target]
    for p in paths:
        print(_render_report(p))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, NumericError) else 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
