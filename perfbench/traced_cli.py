"""Run one wordavoid command with the tracer installed.

    python3 perfbench/traced_cli.py SPANS.json ARG...

Behaves as the `wordavoid` script with ARG..., and writes the spans it
recorded to SPANS.json whatever the exit.  src/ must be on PYTHONPATH.
"""

import sys

import tracer

from wordavoid import cli

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        sys.exit(cli.main(argv))
    finally:
        t.dump(spans_path)
