"""The tier-1 slice of ``scripts/report_digest.py``: the reports that ``SLICE`` names hash
to the slice digests in ``DIGESTS.json``, so a change that moves one of them fails here,
and ``main`` names each task whose digest differs from the committed ones, with the first
of its groups that differs."""

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
    tasks, groups = report_digest.digests(*report_digest.SLICE)
    assert tasks == COMMITTED["slice"]
    # The slice's iris reports are the full run's first iris group.
    assert groups["iris"] == {"k=10 s=0-99": COMMITTED["groups"]["iris"]["k=10 s=0-99"]}
    assert list(groups["wbcd"]) == list(COMMITTED["groups"]["wbcd"])
    assert list(groups["email"]) == ["s=0-9"]


def test_committed_groups_name_every_block():
    groups = COMMITTED["groups"]
    assert list(groups["iris"]) == [f"k={k} s={lo}-{lo + 99}" for k, n in
                                    ((10, 3000), (3, 300), (5, 300), (20, 300), (50, 300))
                                    for lo in range(0, n, 100)]
    assert list(groups["wbcd"]) == ["A", "B", "C", "D", "E", "F", "G", "H", "I",
                                    "ADI", "BCF", "ABCDEFGHI"]
    assert list(groups["email"]) == [f"s={lo}-{lo + 9}" for lo in range(0, 100, 10)]


def _run_main(monkeypatch, tmp_path, actual):
    # main's comparison alone, against the committed file: the digests are ``actual``.
    monkeypatch.setattr(report_digest, "digests", lambda *plans: actual)
    committed = tmp_path / "DIGESTS.json"
    monkeypatch.setattr(report_digest, "DIGESTS_PATH", committed)
    committed.write_text(json.dumps(COMMITTED), encoding="utf-8")
    return report_digest.main()


def test_check_passes_on_the_committed_digests(monkeypatch, tmp_path, capsys):
    assert _run_main(monkeypatch, tmp_path, (COMMITTED["full"], COMMITTED["groups"])) == 0
    printed = "".join(f"{task} {value}\n" for task, value in COMMITTED["full"].items())
    assert capsys.readouterr() == (printed, "")


def test_check_names_each_task_that_differs(monkeypatch, tmp_path, capsys):
    # wbcd differs from BCF on and iris from its last block; email matches.
    groups = json.loads(json.dumps(COMMITTED["groups"]))
    groups["wbcd"].update(BCF="1" * 64, ABCDEFGHI="2" * 64)
    groups["iris"]["k=50 s=200-299"] = "3" * 64
    actual = {**COMMITTED["full"], "iris": "4" * 64, "wbcd": "5" * 64}
    assert _run_main(monkeypatch, tmp_path, (actual, groups)) == 1
    full = COMMITTED["full"]
    assert capsys.readouterr().err == (
        f"iris: digest differs from DIGESTS.json's {full['iris']}; "
        "first group that differs: k=50 s=200-299\n"
        f"wbcd: digest differs from DIGESTS.json's {full['wbcd']}; "
        "first group that differs: BCF\n"
    )
