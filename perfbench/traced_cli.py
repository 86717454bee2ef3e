"""Run one roelcke CLI invocation with tracing on, in a fresh process.

    python3 perfbench/traced_cli.py SPANS.json --suite cesaro --seed 0 --out r.json

Installs the benchmark's span wrappers, calls ``roelcke.cli.main`` with the
remaining arguments, writes the aggregated spans and counts to SPANS.json
and exits with the CLI's exit code.  ``src/`` must be on PYTHONPATH.
"""
import json
import sys

import roelcke.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = roelcke.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans(), "roots": tracer.roots,
                   "counts": tracer.counts.to_json_obj()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
