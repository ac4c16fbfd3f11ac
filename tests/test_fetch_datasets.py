"""``scripts/fetch_datasets.py::validate`` on local files; ``fetch`` is not
called, so nothing is downloaded."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, IRIS_PATH, WBCD_PATH

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "fetch_datasets.py"


@pytest.fixture
def script(monkeypatch):
    spec = importlib.util.spec_from_file_location("fetch_datasets", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # validate prepends src/
    return module


def test_validate_passes_on_the_shipped_files(script, capsys):
    script.validate(DATA_DIR)
    assert capsys.readouterr().out.startswith("validation passed: 699 records")


def test_validate_rejects_a_file_missing_a_record(script, tmp_path):
    shutil.copy(IRIS_PATH, tmp_path / IRIS_PATH.name)
    lines = WBCD_PATH.read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / WBCD_PATH.name).write_text("".join(lines[1:]), encoding="utf-8")
    with pytest.raises(AssertionError, match="expected 699 records, got 698"):
        script.validate(tmp_path)
