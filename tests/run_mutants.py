"""Apply each mutant of tests/mutants.json to a copy of the tree and run its
killers.

    python tests/run_mutants.py         # every mutant, its killers only
    python tests/run_mutants.py --all   # every mutant, the whole suite each

A mutant is one line of `src/` replaced by another.  It is killed when a
test it names fails on the mutated copy; one that names no killer is a
known survivor and is only reported.  With --all, each mutant runs against
every test and the failing test ids are printed, which is how a killer
list is found.  Each mutant costs seconds to minutes, so pytest does not
collect this file.  A run still going after TIMEOUT_S seconds (a mutant
whose loop never ends) is stopped with its whole process group and counts
as a kill.  Exit status 0 when every mutant with killers is killed.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
# About five times the whole suite's time on a 2-core host (about 60 s).
TIMEOUT_S = 300


def load() -> list[dict]:
    with open(MUTANTS) as fh:
        return json.load(fh)


def apply(mutant: dict, root: Path) -> None:
    """Replace the mutant's one old line in its file under `root`."""
    path = root / mutant["file"]
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant["old"]]
    if len(hits) != 1:
        raise ValueError(f"{mutant['name']}: old line occurs {len(hits)} times")
    lines[hits[0]] = mutant["new"]
    path.write_text("\n".join(lines))


def run(mutant: dict, whole_suite: bool) -> tuple[int | None, list[str]]:
    """(pytest exit code, failed test ids) on a mutated copy of the tree; the
    code is None when the run was stopped after TIMEOUT_S."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "results")
        for part in ("src", "tests", "perfbench"):  # tests read perfbench/
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        apply(mutant, copy)
        # The list's own test fails on every mutant: it is no killer.
        targets = (["tests", "--deselect", "tests/test_mutants.py"] if whole_suite
                   else mutant["killers"])
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        # Its own session, so a timeout stops pytest and every child it made.
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *targets],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
            code = None
    failed = [line.split()[1] for line in stdout.splitlines()
              if line.startswith("FAILED ")]
    return code, failed


def main(argv: list[str]) -> int:
    whole_suite = "--all" in argv
    escaped = 0
    for mutant in load():
        if not mutant["killers"] and not whole_suite:
            print(f"{mutant['name']:36s} known survivor (no killer named)")
            continue
        code, failed = run(mutant, whole_suite)
        # Exit code 1 is failed tests; any other non-zero code is an error
        # (a collection failure, say), which kills nothing.
        verdict = {0: "SURVIVED", 1: "killed", None: "killed (timeout)"}.get(
            code, f"error (exit {code})")
        escaped += not verdict.startswith("killed") and bool(mutant["killers"])
        print(f"{mutant['name']:36s} {verdict}"
              + (f" by {len(failed)} tests" if failed else ""))
        for test in failed:
            print(f"    {test}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
