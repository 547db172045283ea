"""Run the benchmark: ``python3 bench/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace 0|1] [--out DIR]``.

Prints a report per workload and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  Exits 1
when any reply differs from the oracle or any request fails, and 2
when the checkout has no ``src/repro`` to benchmark.
"""

import os
import sys


def _bootstrap() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"bench: no src/repro under {root}; run from a "
                         f"full checkout\n")
        sys.exit(2)
    for path in (root, src):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    from bench.driver import main

    sys.exit(main())
