"""Run ``gridcodes.cli.main`` with spans around each layer's calls.

    PERFBENCH_SPANS=spans.json python3 perfbench/clitrace.py bounds --grid 5,2 --distance 3

Behaves like ``python -m gridcodes.cli`` and writes the spans of the call to
the file named by PERFBENCH_SPANS.
"""

import json
import os
import sys

from spans import Tracer

import gridcodes.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return gridcodes.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
