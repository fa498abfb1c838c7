"""Fuzz the command line with mutated CHAT, INI and feature CSV files and
LM flag values.

Whatever the input, ``cli.main`` must return one of its documented exit
codes (0 success, 1 usage, 2 data, 3 numeric) and must not let an
exception, and so a traceback, escape.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from langprofile import cli, pipeline
from langprofile.synthetic import feature_table
from tests.conftest import make_corpus

EXIT_CODES = {0, 1, 2, 3}

CHAT_FRAGMENTS = (
    b"<", b">", b"[/]", b"[//]", b"[*]", b"[+ gram]", b"&-um ", b"+...", b"?", b".",
    b"!", b"\t", b"\n", b"\r\n", b" ", b"|", b"-", b"&", b":", b"%mor:\t", b"*CHI:\t",
    b"*EXA:\t", b"@ID:\t", b"@Participants:\t", b"@Begin\n", b"@End\n", b"n|",
    b"v|go-PAST", b"pro|", b"\xff", b"\xc3", b"x",
)

# no "/" and no digits: a mutated path stays inside the working directory,
# and a mutated count cannot turn into a long run
INI_FRAGMENTS = (
    b"[", b"]", b"=", b":", b"%", b"%(x)s", b"\n", b" ", b"#", b";", b"..", b",", b"-",
    b"nan", b"auto", b"true", b"[clustering]\n", b"[input]\n", b"seed = ",
    b"transcripts", b"\xff",
)

# one fragment is longer than csv's 131,072-character field limit
CSV_FRAGMENTS = (
    b",", b'"', b'""', b"\n", b"\r", b"\r\n", b" ", b"-", b".", b"e", b"e+400", b"nan",
    b"inf", b"-inf", b"SLI", b"TD", b"x", b"\x00", b"\xff", b"\xc3", b"9" * 140_000,
)

CONFIG = (b"[input]\nmode = csv\npath = f.csv\n\n"
          b"[clustering]\nseed = 3\nk_range = 2..3\nn_init = 2\n\n"
          b"[output]\ndir = out\n")


def _edits(fragments):
    return st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                              st.integers(0, 4096), st.integers(1, 12),
                              st.sampled_from(fragments)),
                    min_size=1, max_size=4)


def _mutate(data: bytes, edits) -> bytes:
    for op, at, length, fragment in edits:
        i = at % (len(data) + 1)
        if op == "insert":
            data = data[:i] + fragment + data[i:]
        elif op == "delete":
            data = data[:i] + data[i + length:]
        else:
            data = data[:i] + fragment + data[i + len(fragment):]
    return data


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 5), _edits(CHAT_FRAGMENTS),
       st.sampled_from((["extract"], ["extract", "--loo"], ["train-lm"])))
def test_mutated_chat_never_escapes(index, edits, command):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        target = make_corpus(corpus, n_sli=3, n_td=3)[index]
        target.write_bytes(_mutate(target.read_bytes(), edits))
        code, err = _run([*command, str(corpus), "-o", str(Path(tmp) / "out")])
    assert code in EXIT_CODES
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def lm_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("lm") / "corpus"
    make_corpus(corpus, n_sli=3, n_td=3)
    return corpus


@pytest.mark.parametrize("command", (["extract"], ["extract", "--loo"], ["train-lm"]),
                         ids=("extract", "extract-loo", "train-lm"))
@pytest.mark.parametrize("smoothing_k", ("nan", "inf", "-1", "0", "0.5"))
@pytest.mark.parametrize("unk_threshold", ("-3", "0", "1", "3"))
def test_lm_flags_never_escape(lm_corpus, tmp_path, command, smoothing_k, unk_threshold):
    code, err = _run([*command, str(lm_corpus), "-o", str(tmp_path / "out"),
                      "--smoothing-k", smoothing_k, "--unk-threshold", unk_threshold])
    assert code in EXIT_CODES
    assert "Traceback" not in err


def _feature_csv() -> bytes:
    matrix, groups = feature_table(30, 5)
    cohort = pipeline.Cohort(matrix, ("synth",) * 30, tuple(groups),
                             (None,) * 30, ("",) * 30)
    return pipeline.render_feature_csv(cohort).encode("utf-8")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_edits(INI_FRAGMENTS))
def test_mutated_config_never_escapes(edits):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "a" / "b"  # ".." in a mutated path stays inside tmp
        work.mkdir(parents=True)
        (work / "f.csv").write_bytes(_feature_csv())
        (work / "c.ini").write_bytes(_mutate(CONFIG, edits))
        os.chdir(work)
        try:
            code, err = _run(["analyze", "--config", "c.ini"])
        finally:
            os.chdir(home)
    assert code in EXIT_CODES
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3).map(lambda i: i == 3), _edits(CSV_FRAGMENTS))
def test_mutated_feature_csv_never_escapes(edit_header, edits):
    data = _feature_csv()
    if not edit_header:  # three runs in four, so that most edits reach the cells
        header, _, body = data.partition(b"\n")
        data = header + b"\n" + _mutate(body, edits)
    else:
        data = _mutate(data, edits)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "f.csv").write_bytes(data)
        (work / "c.ini").write_bytes(CONFIG.replace(b"f.csv", str(work / "f.csv").encode())
                                     .replace(b"dir = out", f"dir = {work / 'out'}".encode()))
        code, err = _run(["analyze", "--config", str(work / "c.ini")])
    assert code in EXIT_CODES
    assert "Traceback" not in err
