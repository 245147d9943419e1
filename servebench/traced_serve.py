"""Run ``repro serve`` with span wrappers installed; write spans on exit.

Usage::

    PYTHONPATH=src python servebench/traced_serve.py SPANS_FILE serve WG ...

Everything after ``SPANS_FILE`` is passed unchanged to the same
``repro.cli.main`` entry ``python -m repro`` calls.  When the server
stops (SIGINT), the spans recorded in this process are written to
``SPANS_FILE`` (see :meth:`spans.Spans.write`).
"""

from __future__ import annotations

import sys

from spans import Recorder, install_server_wrappers


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_file = sys.argv[1]
    recorder = Recorder()
    install_server_wrappers(recorder)
    from repro.cli import main as cli_main

    code = cli_main(sys.argv[2:])
    recorder.spans().write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
