"""One set-up, timed from outside by run.py: start, import, build inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

src/ must be on PYTHONPATH.
"""

import os
import sys

import wordavoid  # noqa: F401  (the import is what is timed)
import workloads

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workloads.build(sys.argv[1], int(sys.argv[2]), root)
