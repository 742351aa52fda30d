"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 child.py SPEC`` where SPEC is a JSON object with keys
``src`` (the checkout's source directory, which must provide
bielastic), ``example`` (null for a set-up probe that only imports),
``levels`` and ``trace``.  ``run.py`` starts it with the
BLAS/OpenMP thread pools pinned to one thread and reads the single JSON
line it prints on standard output.
"""

import json
import os
import platform
import resource
import sys
import time


def main(spec):
    t0 = time.perf_counter()
    import bielastic
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(spec["src"])
    where = os.path.realpath(bielastic.__file__)
    if not where.startswith(src + os.sep):
        sys.exit(f"bielastic imported from {where}, not from {src}")

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "bielastic": bielastic.__version__,
        },
    }
    if spec["example"] is not None:
        rec = None
        if spec["trace"]:
            import tracer
            rec = tracer.install()
            root = rec.open(tracer.ROOT)
        t0 = time.perf_counter()
        report = bielastic.run_example(spec["example"],
                                       levels=tuple(spec["levels"]))
        study_s = time.perf_counter() - t0
        if rec is not None:
            rec.close(root)
            out["spans"] = rec.spans
            out["stats"] = rec.stats
        out["study_s"] = study_s
        payload = json.loads(report.to_json())
        out["rows"] = payload["rows"]
        out["h"] = payload["meta"]["h"]
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
