"""Run the scan daemon with the benchmark's tracer installed.

    python3 perfbench/serve_traced.py SPANS_PATH serve --unix ... [...]

Everything after ``SPANS_PATH`` is the ``python -m repro`` command
line.  Spans are kept in memory and written to ``SPANS_PATH`` when the
daemon exits (it stops cleanly on SIGTERM); every wrapped function is
restored first.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repro.__main__ as cli

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.write(spans_path, meta={"argv": argv})


if __name__ == "__main__":
    sys.exit(main())
