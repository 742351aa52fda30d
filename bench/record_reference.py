"""Record the reference values the benchmark checks results against.

Usage, from the root of a checkout::

    python3 bench/record_reference.py

Runs example 1 at levels 1-4 and examples 6 and 9 at levels 1-3 (the
workload levels plus the level-1 smoke runs), each in a child pinned
like the benchmark's own, and writes ``bench/reference.json``.  The
committed file was recorded from the seed code; re-record only when a
change is meant to move the numbers.
"""

import json
import time

import run
import workloads

LEVELS = {1: (1, 2, 3, 4), 6: (1, 2, 3), 9: (1, 2, 3)}


def main():
    reference = {}
    for example, levels in LEVELS.items():
        out = run.run_child(example, levels, False, f"reference-{example}",
                            time.monotonic() + 600.0)
        reference[str(example)] = workloads.extract(example, out["rows"])
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
