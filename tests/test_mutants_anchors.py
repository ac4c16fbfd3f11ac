"""``scripts/mutants.py``'s mutations still apply: each anchor occurs exactly once in the
file it mutates, so an edit that moves one fails here, not only when the script runs.
Reads text only; no mutant is run."""

import importlib.util
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
