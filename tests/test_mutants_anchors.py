"""``scripts/mutants.py``'s mutations still apply: each anchor occurs exactly once in the
file it mutates, so an edit that moves one fails here, not only when the script runs.
Also checks that a SIGTERM unwinds the script's temporary copy. Reads text only; no
mutant is run and no process is started."""

import importlib.util
import os
import signal
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_PATH = ROOT / "scripts" / "mutants.py"

spec = importlib.util.spec_from_file_location("mutants", SCRIPT_PATH)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_mutant_ids_are_unique():
    ids = [name for name, *_ in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("name, scope, old, new, equivalent", mutants.MUTANTS,
                         ids=[name for name, *_ in mutants.MUTANTS])
def test_anchor_occurs_once_in_its_target(name, scope, old, new, equivalent):
    target = (ROOT / scope.target).read_text(encoding="utf-8")
    assert target.count(old) == 1, f"{name}: {old!r} occurs {target.count(old)} times"
    assert new != old


def test_sigterm_removes_the_temporary_copy(tmp_path):
    previous = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit) as stopped:
        with mutants.sigterm_exits(), tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            (Path(tmp) / "src").mkdir()
            os.kill(os.getpid(), signal.SIGTERM)
    assert stopped.value.code == 128 + signal.SIGTERM
    assert not Path(tmp).exists()
    assert signal.getsignal(signal.SIGTERM) is previous
