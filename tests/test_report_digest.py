"""The tier-1 slice of ``scripts/report_digest.py``: the reports that ``SLICE`` names hash
to the slice digests in ``DIGESTS.json``, so a change that moves one of them fails here,
and ``main`` names each task whose digest differs from the committed ones."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_PATH = ROOT / "scripts" / "report_digest.py"

spec = importlib.util.spec_from_file_location("report_digest", SCRIPT_PATH)
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)

COMMITTED = json.loads((ROOT / "DIGESTS.json").read_text(encoding="utf-8"))


def test_slice_matches_the_committed_digests():
    assert report_digest.digests(*report_digest.SLICE) == COMMITTED["slice"]


def test_check_names_each_task_that_differs(monkeypatch, tmp_path, capsys):
    # main's comparison alone: the digests are the committed slice, the file's wbcd is wrong.
    monkeypatch.setattr(report_digest, "digests", lambda *plans: COMMITTED["slice"])
    committed = tmp_path / "DIGESTS.json"
    monkeypatch.setattr(report_digest, "DIGESTS_PATH", committed)
    committed.write_text(json.dumps({"full": COMMITTED["slice"]}), encoding="utf-8")
    assert report_digest.main() == 0
    printed = "".join(f"{task} {value}\n" for task, value in COMMITTED["slice"].items())
    assert capsys.readouterr() == (printed, "")
    committed.write_text(json.dumps({"full": {**COMMITTED["slice"], "wbcd": "0" * 64}}),
                         encoding="utf-8")
    assert report_digest.main() == 1
    assert capsys.readouterr() == (printed, f"wbcd: digest differs from DIGESTS.json's {'0' * 64}\n")
