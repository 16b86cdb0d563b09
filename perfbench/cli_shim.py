"""Traced stand-in for ``python -m watermelon.cli``, used by traced cli-session runs.

usage: python3 cli_shim.py SPANS_OUT -- CLI_ARGS...

Times the import of ``watermelon.cli``, installs the span wrappers, runs
``watermelon.cli.main(CLI_ARGS)`` and writes the import time and the spans
to SPANS_OUT as JSON.  It exits with main's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_out, argv = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    import watermelon.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return watermelon.cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
