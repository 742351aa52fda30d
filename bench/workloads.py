"""Benchmark workloads and the correctness check applied to each result.

Each workload is one built-in example run at fixed levels through
``bielastic.run_example``, the entry point the command line uses.  The
three workloads follow the three hot paths of the library: one large
KKT factorization per level (source), hundreds of small constrained
eigensolves (secant TEP search) and one dense companion QZ (quadratic
TEP).  A result is correct when it passes the acceptance-gate
tolerances of ``tests/test_acceptance.py`` and agrees with the values
recorded from the seed code in ``reference.json``.

This module is pure Python so the parent process stays light; only the
child processes import numpy, scipy and bielastic.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# relative agreement with the recorded seed values
EIG_RTOL = 1e-8
NORM_RTOL = 1e-6

# acceptance-gate anchors and tolerances (tests/test_acceptance.py)
SOURCE_SLOPES = {"l2": 4.0, "h1": 3.0, "h2": 2.0}
SLOPE_TOL = 0.3
SLOPE_LEVELS = (2, 3, 4)
EX6_LAMBDA1 = 8.064689
EX6_TOL = 0.01
EX9_PAIR = complex(3.612558, -3.041481)
EX9_TOL = 0.05
PAIR_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    example: int
    levels: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "source-fine", 1, (1, 2, 3, 4),
            "one large KKT factorization per level, the echelon and "
            "degree-10 load and error assembly; no eigensolver; largest "
            "memory",
        ),
        Workload(
            "tep-secant", 6, (1, 2, 3),
            "secant TEP scan: 327 spectral-function evaluations, each a "
            "small KKT factorization and a 12-branch ARPACK run",
        ),
        Workload(
            "tep-companion", 9, (2, 3),
            "dense 908x908 companion QZ on the explicit null-space basis; "
            "no KKT system is built",
        ),
    )
}

SMOKE_LEVELS = (1,)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def extract(example, rows):
    """Per-level values of a report: error norms of a source run, or the
    eigenvalues (re, im) in branch order of a transmission run."""
    out = {}
    for row in rows:
        level = str(row["level"])
        if "norm" in row:
            out.setdefault(level, {})[row["norm"]] = row["error"]
        else:
            out.setdefault(level, []).append(
                [row["value_re"], row["value_im"]]
            )
    return out


def _slope(xs, ys):
    """Least-squares slope of ys against xs."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _gate_failures(workload, values, h):
    """Acceptance-gate checks; they need the workload's full levels."""
    fails = []
    if workload.example == 1:
        levels = [str(lvl) for lvl in SLOPE_LEVELS]
        hs = [math.log2(h[workload.levels.index(lvl)]) for lvl in SLOPE_LEVELS]
        for norm, target in SOURCE_SLOPES.items():
            errs = [math.log2(values[lvl][norm]) for lvl in levels]
            slope = _slope(hs, errs)
            if abs(slope - target) > SLOPE_TOL:
                fails.append(f"{norm} slope {slope:.3f}, want {target}+-0.3")
    elif workload.example == 6:
        lam1 = [values[str(lvl)][0][0] for lvl in workload.levels]
        dev = abs(lam1[-1] - EX6_LAMBDA1) / EX6_LAMBDA1
        if dev > EX6_TOL:
            fails.append(f"Lambda_1 {lam1[-1]} deviates {dev:.2%} > 1%")
        if not all(a > b for a, b in zip(lam1, lam1[1:] + [EX6_LAMBDA1])):
            fails.append(f"Lambda_1 sequence {lam1} is not decreasing")
    elif workload.example == 9:
        devs = []
        for lvl in workload.levels:
            v1, v2 = (complex(*v) for v in values[str(lvl)][:2])
            if abs(v1 - v2.conjugate()) > PAIR_TOL * abs(v1):
                fails.append(f"level {lvl}: {v1}, {v2} not a conjugate pair")
            devs.append(abs(v1 - EX9_PAIR) / abs(EX9_PAIR))
        if devs[-1] > EX9_TOL:
            fails.append(f"pair deviates {devs[-1]:.2%} > 5%")
        if not devs[-1] < devs[-2]:
            fails.append(f"pair deviation {devs} does not shrink")
    return fails


def _reference_failures(example, values, reference):
    fails = []
    recorded = reference[str(example)]
    for level, got in values.items():
        want = recorded.get(level)
        if want is None:
            fails.append(f"level {level} has no recorded reference")
        elif isinstance(want, dict):
            for norm, ref in want.items():
                if abs(got[norm] - ref) > NORM_RTOL * abs(ref):
                    fails.append(f"level {level} {norm} {got[norm]!r} != "
                                 f"recorded {ref!r}")
        elif len(got) != len(want):
            fails.append(f"level {level}: {len(got)} values, recorded "
                         f"{len(want)}")
        else:
            for j, (g, w) in enumerate(zip(got, want), start=1):
                g, w = complex(*g), complex(*w)
                if abs(g - w) > EIG_RTOL * abs(w):
                    fails.append(f"level {level} branch {j} {g} != "
                                 f"recorded {w}")
    return fails


def check(workload, levels, rows, h, reference):
    """Failure messages for one result; an empty list means correct.

    The gate tolerances apply when the run covers the workload's full
    levels; every run is compared with the recorded reference values.
    """
    values = extract(workload.example, rows)
    missing = [lvl for lvl in levels if str(lvl) not in values]
    if missing:
        return [f"no result rows for levels {missing}"]
    fails = _reference_failures(workload.example, values, reference)
    if tuple(levels) == workload.levels:
        fails += _gate_failures(workload, values, h)
    return fails
