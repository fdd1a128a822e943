"""Traced stand-in for `python -m ocrate`.

Usage: python bench/cli_child.py <ocrate command and flags>

Installs the span wrappers, runs ocrate.cli.main on the arguments inside
a "cli.main" span and writes the spans as JSON into the directory named
by BENCH_SPANS_DIR. Exits with the command's exit code.
"""

import json
import os
import sys
from pathlib import Path

import tracing


def main() -> int:
    tracing.install_scipy_wrappers()
    import ocrate.cli

    tracer = tracing.Tracer()
    with tracing.ModuleWrappers(), tracer:
        index = tracer.open("cli.main")
        try:
            code = ocrate.cli.main(sys.argv[1:])
        finally:
            tracer.close(index)
    out = Path(os.environ["BENCH_SPANS_DIR"]) / f"{os.getpid()}.json"
    out.write_text(json.dumps(tracing.spans_to_json(tracer.spans)))
    return code


if __name__ == "__main__":
    sys.exit(main())
