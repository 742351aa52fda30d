"""Span recorder for the traced benchmark run.

The library is not changed: ``install`` wraps public functions and
methods from outside, patching each wrapper onto the name in the module
that calls it (the modules import by name, so patching the defining
module alone would miss the call).  Spans are kept in memory as
``[name, start, end, parent]`` lists and written out by ``run.py`` at
the end of the run, under the run id of their study.  A span's self time is its duration minus the
durations of its direct children.

``install`` imports bielastic; the analysis functions below do not, so
the parent process can use them without loading numpy.
"""

import functools
import time

FORMS = (
    "bielastic_matrix", "elastic_matrix", "graddiv_matrix", "hessian_matrix",
    "mass_matrix", "mixed_divsigma_matrix",
)

ROOT = "harness.run_example"


class Recorder:
    """Collects spans and exact counters for one study."""

    def __init__(self):
        self.spans = []
        self.stats = {}
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def keep_max(self, key, value):
        self.stats[key] = max(self.stats.get(key, 0), value)

    def add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``;
        ``after(args, result)`` updates counters once the call returns."""
        orig = getattr(owner, attr)

        @functools.wraps(orig, updated=())
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)


def install():
    """Wrap the layer boundaries of bielastic; returns the recorder."""
    from bielastic import eigen, harness, solvers

    rec = Recorder()

    def psi_rows(args, red):
        rec.keep_max("psi_rows", red.psi.shape[0])

    def basis_nnz(args, basis):
        rec.keep_max("explicit_basis_nnz", basis.nnz)

    def kkt_fill(args, _):
        op = args[0]
        if op.kkt.shape[0] >= rec.stats.get("kkt_dim", 0):
            rec.stats["kkt_dim"] = op.kkt.shape[0]
            rec.stats["kkt_fill"] = op.lu.nnz
            rec.stats["kkt_nnz"] = op.kkt.nnz

    def secant_iters(args, result):
        rec.add("secant_iters", result[2])

    def roots(args, found):
        rec.add("roots", len(found))

    def companion_dim(args, _):
        rec.keep_max("companion_dim", 2 * args[0].shape[0])

    b3 = solvers.B3Realization
    targets = [
        (harness, "generate_domain", "mesh.generate", None),
        (harness, "make_realization", "spaces.realization", None),
        (solvers, "reduce_entities", "spaces.reduce_entities", psi_rows),
        (b3, "explicit_basis", "spaces.explicit_basis", basis_nnz),
        *((solvers, form, "assembly.forms", None) for form in FORMS),
        (solvers, "load_vector", "assembly.load", None),
        (solvers, "error_norms", "assembly.error_norms", None),
        (harness, "error_norms", "assembly.error_norms", None),
        (b3, "reduced", "solvers.galerkin", None),
        (harness, "solve_source", "solvers.solve_source", None),
        (harness, "TepBlocks", "solvers.tep_blocks", None),
        (solvers.TepBlocks, "lambda_of_tau", "solvers.lambda", None),
        (harness, "find_teps_secant", "solvers.find_teps_secant", roots),
        (harness, "find_teps_quadratic", "solvers.find_teps_quadratic", None),
        (solvers, "_secant_refine", "solvers.secant_refine", secant_iters),
        (solvers, "solve_sym_constrained", "eigen.constrained_solve", None),
        (solvers, "eig_sym_constrained", "eigen.eig_constrained", None),
        (solvers, "eig_quadratic", "eigen.companion", companion_dim),
        (eigen.ConstrainedOperator, "__init__", "eigen.kkt_factor", kkt_fill),
        (eigen.ConstrainedOperator, "solve", "eigen.kkt_solve", None),
        (eigen.KernelProjector, "__init__", "eigen.projector_factor", None),
        (eigen.KernelProjector, "__call__", "eigen.projector_apply", None),
    ]
    for owner, attr, name, after in targets:
        rec.wrap(owner, attr, name, after)
    return rec


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, stats):
    """Per-layer metrics of one traced study, as {name: (value, unit)}."""
    busy, count, own = {}, {}, {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        busy[name] = busy.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
    kkt_nnz = stats.get("kkt_nnz", 0)
    s = lambda name: (busy.get(name, 0.0), "s")
    n = lambda name: (count.get(name, 0), "count")
    return {
        "mesh.generate_s": s("mesh.generate"),
        "spaces.reduce_entities_s": s("spaces.reduce_entities"),
        "spaces.psi_rows": (stats.get("psi_rows", 0), "count"),
        "spaces.explicit_basis_s": s("spaces.explicit_basis"),
        "spaces.explicit_basis_nnz":
            (stats.get("explicit_basis_nnz", 0), "count"),
        "assembly.forms_s": s("assembly.forms"),
        "assembly.forms_calls": n("assembly.forms"),
        "assembly.load_s": s("assembly.load"),
        "assembly.error_norms_s": s("assembly.error_norms"),
        "solvers.galerkin_s": s("solvers.galerkin"),
        "solvers.tep_blocks_s": s("solvers.tep_blocks"),
        "solvers.lambda_evals": n("solvers.lambda"),
        "solvers.lambda_s": s("solvers.lambda"),
        "solvers.secant_iters": (stats.get("secant_iters", 0), "count"),
        "solvers.roots": (stats.get("roots", 0), "count"),
        "eigen.kkt_factor_s": s("eigen.kkt_factor"),
        "eigen.kkt_factors": n("eigen.kkt_factor"),
        "eigen.kkt_fill": (stats.get("kkt_fill", 0), "count"),
        "eigen.kkt_fill_ratio":
            (stats["kkt_fill"] / kkt_nnz if kkt_nnz else 0.0, "ratio"),
        "eigen.kkt_solve_s": s("eigen.kkt_solve"),
        "eigen.kkt_solves": n("eigen.kkt_solve"),
        "eigen.projector_s": (busy.get("eigen.projector_factor", 0.0)
                              + busy.get("eigen.projector_apply", 0.0), "s"),
        "eigen.projector_factors": n("eigen.projector_factor"),
        "eigen.eig_constrained_self_s":
            (own.get("eigen.eig_constrained", 0.0), "s"),
        "eigen.constrained_solve_s": s("eigen.constrained_solve"),
        "eigen.companion_s": s("eigen.companion"),
        "eigen.companion_dim": (stats.get("companion_dim", 0), "count"),
        "harness.self_s": (own.get(ROOT, 0.0), "s"),
    }
