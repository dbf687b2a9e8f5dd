"""Run one cy-smoother command with tracing on.

Usage: python bench/cli_child.py ARGS...  (with src on PYTHONPATH)

Behaves like `python -m cy_smoother.cli ARGS...` on stdout and in its exit
code, and writes its spans as one JSON object on the last line of stderr.
"""

import json
import sys

from spans import IMPORT, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.op = 0
    span = tracer.begin(IMPORT)
    import cy_smoother.cli  # timed as the import span

    tracer.end(span)
    tracer.install()
    code = cy_smoother.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
