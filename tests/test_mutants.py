"""The committed mutant list stays applicable to the code as it stands.

`run_mutants.py` applies each mutant of mutants.json to a copy of the tree
and runs the tests named as its killers; that costs seconds per mutant, so
only the list itself is checked here.  A refactor that moves or rewrites a
mutated line must update the list.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_old_line_occurs_once(mutant):
    lines = (ROOT / mutant["file"]).read_text().split("\n")
    assert sum(line == mutant["old"] for line in lines) == 1
    assert mutant["new"] != mutant["old"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_killers_exist(mutant):
    for test_id in mutant["killers"]:
        path, *names = test_id.split("[")[0].split("::")
        assert f"def {names[-1]}(" in (ROOT / path).read_text(), test_id
