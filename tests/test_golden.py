"""Golden-output tests: the CLI's deterministic stdout and model dumps,
byte for byte, against reference files under ``tests/golden/``.

The run time is the only part of stdout that varies between runs (the
``runtime_seconds`` field of a JSON report and the ``runtime:`` line of a
text report), so it is removed before comparing. The help texts and
usage errors are taken at 80 columns, because argparse wraps to the
terminal width. Regenerate the files after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from dsfusion import classifier_to_dict, email_model_default
from dsfusion.cli import main

from conftest import IRIS_PATH, WBCD_PATH

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WBCD, IRIS = str(WBCD_PATH), str(IRIS_PATH)

STDOUT_CASES = {
    "wbcd_text.out": ["wbcd", "--data", WBCD],
    "wbcd_json.out": ["wbcd", "--data", WBCD, "--format", "json"],
    "wbcd_ablate.out": ["wbcd", "--data", WBCD, "--ablate", "A,D,I,ADI,BCF,ABCDEFGHI"],
    "iris_runs3.out": ["iris", "--data", IRIS, "--runs", "3"],
    "email_json.out": ["email", "--generate", "--seed", "7", "--format", "json"],
    "email_134_text.out": ["email", "--generate", "--seed", "7", "--signals", "134",
                           "--format", "text"],
    "combine_text.out": ["combine", "--frame", "Jon,Mary,Mike", "--mass", "Jon:0.9,Mary:0.1",
                         "--mass", "Mike:0.9,Mary:0.1"],
    # b and c hold no mass after the fold, so their intervals print 0.0.
    "combine_json.out": ["combine", "--frame", "a,b,c", "--mass", "a:0.6,a|b:0.4",
                         "--mass", "a:0.5,a|b:0.3,a|c:0.2", "--format", "json"],
    "help.out": ["--help"],
    **{f"help_{name}.out": [name, "--help"]
       for name in ("wbcd", "iris", "email", "generate-email", "combine")},
}
# The stderr of a usage error, with its exit code.
STDERR_CASES = {
    "unknown_command.err": (["frobnicate"], 2),
    "combine_unknown_label.err": (["combine", "--frame", "a,b", "--mass", "x:1.0"], 2),
}
MODEL_CASES = {
    "wbcd_model.json": ["wbcd", "--data", WBCD, "--ablate", "A"],
    "iris_model.json": ["iris", "--data", IRIS, "--runs", "1"],
}

# The email model has no training phase and no --dump-model, so its file is
# the stock model written the way --dump-model writes a classifier.
EMAIL_MODEL = "email_model.json"

_RUNTIME = re.compile(r',\n  "runtime_seconds": [^\n]*|^runtime: [^\n]*\n', re.MULTILINE)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def stable_stdout(argv: list[str]) -> str:
    code, out, _ = run_main(argv)
    assert code == 0, f"{argv}: exit code {code}"
    return _RUNTIME.sub("", out)


def usage_error(argv: list[str], code: int) -> str:
    got, out, err = run_main(argv)
    assert (got, out) == (code, ""), f"{argv}: exit code {got}"
    return err


def dumped_model(argv: list[str], path: Path) -> str:
    stable_stdout(argv + ["--dump-model", str(path)])
    return path.read_text(encoding="utf-8")


def email_model_json() -> str:
    return json.dumps(classifier_to_dict(email_model_default()), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert stable_stdout(STDOUT_CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(STDERR_CASES))
def test_stderr_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert usage_error(*STDERR_CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_model_dump_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert dumped_model(MODEL_CASES[name], tmp_path / name) == expected


def test_email_model_matches_golden():
    assert email_model_json() == (GOLDEN_DIR / EMAIL_MODEL).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in STDOUT_CASES.items():
        (GOLDEN_DIR / name).write_text(stable_stdout(argv), encoding="utf-8")
    for name, case in STDERR_CASES.items():
        (GOLDEN_DIR / name).write_text(usage_error(*case), encoding="utf-8")
    for name, argv in MODEL_CASES.items():
        (GOLDEN_DIR / name).write_text(dumped_model(argv, GOLDEN_DIR / name), encoding="utf-8")
    (GOLDEN_DIR / EMAIL_MODEL).write_text(email_model_json(), encoding="utf-8")
    count = len(STDOUT_CASES) + len(STDERR_CASES) + len(MODEL_CASES) + 1
    sys.stdout.write(f"wrote {count} files to {GOLDEN_DIR}\n")
