"""Benchmark of bielastic's three problem paths, end to end and by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload tep-secant --seed 1 --seconds 40 --trace 0

``--workload`` is one of the names in ``workloads.WORKLOADS`` or ``all``.
Load model: closed loop, one client.  ``run.py`` runs one child
interpreter at a time (``child.py``); each child imports bielastic,
runs one study through ``bielastic.run_example`` and exits, so import
time and peak memory are measured per repetition.  BLAS and OpenMP are
pinned to one thread in every child.

With ``--trace 0`` it first runs ``SETUP_PROBES`` import-only
children, then repeats untraced studies until the next one would end
after ``--seconds`` (at least one study), and reports the medians of
``study_s``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it
runs one traced study, whose spans give the per-layer metrics, and one
untraced study to report the tracing overhead.  ``--smoke`` runs every
workload at level 1 only.  Every study's result is checked against the
acceptance-gate tolerances and the recorded seed values; a study that
raises, exits non-zero or fails the check counts as failed.

The inputs are fixed built-in examples, so ``--seed`` only shuffles the
order of repetitions across workloads (``--workload all``); it is kept
in the run record.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full run record, with every sample and the spans of a traced run, is
written under ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_PIN = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_PROBES = 3
# every child is killed at this point, so one invocation ends within 180 s
HARD_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def _spin_s():
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    return time.perf_counter() - t0


def quietest_cpu(cpus):
    """The CPU of ``cpus`` that runs a short fixed loop fastest now.

    On a shared host the contention from other tenants differs from one
    CPU to the next and lasts for tens of seconds, so a child pinned to
    the quietest CPU is slowed least while it runs.
    """
    best = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(_spin_s() for _ in range(3))
    os.sched_setaffinity(0, cpus)
    return min(best, key=best.get)


def run_child(example, levels, trace, run_id, deadline):
    """Run one repetition in a fresh interpreter and return its record.

    ``example`` None runs an import-only set-up probe.  The child runs
    pinned to the quietest CPU.  Raises ChildFailed when the child exits
    non-zero or runs past ``deadline``.
    """
    spec = {"src": str(SRC), "example": example, "levels": list(levels),
            "trace": bool(trace)}
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PIN)
    cpus = os.sched_getaffinity(0)
    cpu = quietest_cpu(cpus)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{run_id}: killed at the time limit")
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{run_id}: exit {proc.returncode}: "
                          + " | ".join(tail))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall_s
    out["cpu"] = cpu
    return out


class Tally:
    """Samples and failures of one workload within one invocation."""

    def __init__(self, workload, levels):
        self.workload = workload
        self.levels = levels
        self.setup = []
        self.studies = []
        self.traced = None
        self.errors = []
        self.attempted = 0
        self.spent_s = 0.0
        self.versions = None

    def study(self, trace, deadline, reference):
        """Run one study and keep it when it passes the check."""
        w = self.workload
        run_id = f"{w.name}-{self.attempted}"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run_child(w.example, self.levels, trace, run_id, deadline)
            fails = workloads.check(w, self.levels, out["rows"], out["h"],
                                    reference)
            if fails:
                raise ChildFailed(f"{run_id}: " + "; ".join(fails))
        except (ChildFailed, LookupError, ValueError) as exc:
            self.errors.append(str(exc))
            return None
        finally:
            self.spent_s += time.perf_counter() - t0
        out["run_id"] = run_id
        self.setup.append(out["setup_s"])
        self.versions = out["versions"]
        return out

    @property
    def failed(self):
        return len(self.errors)


def probe_setup(tally, deadline):
    """Import-only children; set-up has to work for anything to run."""
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = run_child(None, (), False, f"setup-{i}", deadline)
        tally.spent_s += time.perf_counter() - t0
        tally.setup.append(out["setup_s"])
        tally.versions = out["versions"]


def measure(tallies, seconds, trace, rng, deadline, reference):
    if trace:
        order = list(tallies)
        rng.shuffle(order)
        for t in order:
            t.traced = t.study(True, deadline, reference)
            plain = t.study(False, deadline, reference)
            if plain is not None:
                t.studies.append(plain)
        return
    for t in tallies:
        probe_setup(t, deadline)
    active = list(tallies)
    while active:
        rng.shuffle(active)
        for t in list(active):
            before = t.spent_s
            out = t.study(False, deadline, reference)
            if out is not None:
                t.studies.append(out)
            # stop before a repetition that would end after the budget
            if t.spent_s + (t.spent_s - before) > seconds:
                active.remove(t)


def end_to_end(t):
    study = [s["study_s"] for s in t.studies]
    return {
        "study_s": (statistics.median(study), "s"),
        "setup_s": (statistics.median(t.setup), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]
                                          for s in t.studies), "MB"),
    }


def per_layer(t):
    out = tracer.layer_metrics(t.traced["spans"], t.traced["stats"])
    traced_s = t.traced["study_s"]
    out["trace.study_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - t.studies[0]["study_s"], "s")
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(args, tallies):
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pin": THREAD_PIN,
        "versions": next((t.versions for t in tallies if t.versions), None),
        "commit": git_commit(),
        "workloads": {
            t.workload.name: {
                "levels": list(t.levels),
                "attempted": t.attempted,
                "failed": t.failed,
                "errors": t.errors,
                "setup_s": t.setup,
                "studies": [
                    {k: s[k] for k in ("run_id", "study_s", "setup_s",
                                       "peak_rss_mb", "wall_s", "cpu")}
                    for s in t.studies
                ],
                "traced": t.traced,
            }
            for t in tallies
        },
    }


def print_summary(tallies, metrics_of):
    for t in tallies:
        n = len(t.studies)
        frac = t.failed / t.attempted if t.attempted else 0.0
        print(f"{t.workload.name}: levels {list(t.levels)}, {n} studies "
              f"(median of {n}), failed_frac {t.failed}/{t.attempted} = "
              f"{frac:.3f} ratio")
        for name, (value, unit) in metrics_of(t).items():
            print(f"  {name:32s} {value:14.6g} {unit}")
        for err in t.errors:
            print(f"  FAILED {err}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at level 1 only")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bielastic" / "__init__.py").is_file():
        sys.exit(f"no bielastic sources under {SRC}; run from a checkout")
    reference = workloads.load_reference()
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    deadline = time.monotonic() + HARD_LIMIT_S * len(names)
    tallies = []
    for name in names:
        w = workloads.WORKLOADS[name]
        tallies.append(Tally(w, workloads.SMOKE_LEVELS if args.smoke
                             else w.levels))
    rng = random.Random(args.seed)
    try:
        measure(tallies, args.seconds, args.trace, rng, deadline, reference)
    except ChildFailed as exc:
        sys.exit(f"set-up failed: {exc}")

    OUT.mkdir(exist_ok=True)
    record_path = OUT / (f"{args.workload}-seed{args.seed}-trace"
                         f"{args.trace}{'-smoke' if args.smoke else ''}.json")
    record_path.write_text(json.dumps(run_record(args, tallies)) + "\n")

    usable = [t for t in tallies
              if t.studies and (t.traced is not None or not args.trace)]
    if len(usable) < len(tallies):
        print_summary(tallies, lambda t: {})
        sys.exit("no successful study for some workload; see " +
                 str(record_path))
    metrics_of = per_layer if args.trace else end_to_end
    print_summary(tallies, metrics_of)
    metrics = {}
    for t in tallies:
        prefix = "" if len(tallies) == 1 else t.workload.name + "."
        for name, (value, unit) in metrics_of(t).items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
