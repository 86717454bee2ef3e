"""Record the reference digests the cli-cold oracle compares against.

    python3 perfbench/record_cli_reference.py

Runs every suite at seeds 0..4 with the benchmark's arguments and writes
the timestamp-stripped report digests to perfbench/cli_reference.json.
Record them once from a commit whose reports are trusted; a later change
that alters any report byte then fails the cli-cold oracle.
"""
import json
import sys
import tempfile

import oracles
from workloads import CLI_REFERENCE, CLI_SEEDS, ROOT, SUITE_ARGS, cli_argv, spawn


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for suite in SUITE_ARGS:
            digests[suite] = {}
            for k in CLI_SEEDS:
                out = f"{tmp}/{suite}-{k}.json"
                code, wall, _, stderr = spawn(
                    [sys.executable, "-m", "roelcke.cli", *cli_argv(suite, k, out)])
                if code != 0:
                    print(f"{suite} seed {k}: exit {code}\n{stderr}", file=sys.stderr)
                    return 1
                digests[suite][str(k)] = oracles.report_digest(out)
                print(f"{suite:10s} seed {k}  {wall:6.2f} s  {digests[suite][str(k)][:16]}")
    CLI_REFERENCE.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
