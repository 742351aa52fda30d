"""Experiment runner: built-in examples, convergence orders, reports.

The module bundles nine built-in experiment definitions (two source
problems with one exact-solution callable each, three weighted eigenvalue
problems, four transmission runs), drives the solvers level by level,
attaches empirical convergence orders, and serializes the outcome as a
text table, CSV, JSON, or plot data files; the orders, the table and the
plot files read one grouping of the rows, ``_series``. ``run_example``,
given an example number or an ``ExampleDef``, is the one way to run a
study: it validates every option once, and one builder per kind supplies
the per-level solve that the shared level loop calls. User-facing
refinement levels are 1-based; each example carries its own offset into
the mesh hierarchy so that level 1 starts on the coarsest grid the
reference values were produced on.
"""

import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .assembly import error_norms
from .coefficients import Coefficient
from .eigen import EIG_TOL, eig_sym_constrained
from .mesh import DOMAIN_AREAS, generate_domain
from .solvers import (
    CERT_TOL,
    SECANT_FTOL,
    TepBlocks,
    find_teps_quadratic,
    find_teps_secant,
    make_realization,
    solve_bielastic_eigs,
    solve_source,
)

DEFAULT_LEVELS = {
    "source": (1, 2, 3, 4),
    "bielastic": (1, 2, 3),
    "tep": (1, 2, 3),
}
LEVEL_CAP = 4
LEVEL_CAP_BIG = 5
SCAN_BRANCHES = 12

SOURCE_NORMS = ("l2", "h1", "h2")
SOURCE_COLUMNS = ("level", "h", "dofs", "norm", "error", "order", "seconds")
EIGEN_COLUMNS = (
    "level", "h", "dofs", "branch", "value_re", "value_im",
    "order", "residual", "seconds",
)

PI = np.pi


def _mirror(first):
    """Exact solution of a vector field whose second component is the
    first with swapped arguments.  ``first(x, y)`` returns the first
    component's value and derivatives, keyed v, gx, gy, hxx, hxy, hyy;
    the swap trades the x and y derivatives of the second component."""
    swapped = {"v": "v", "gx": "gy", "gy": "gx", "hxx": "hyy", "hxy": "hxy",
               "hyy": "hxx"}

    def exact(x, y):
        a, b = first(x, y), first(y, x)
        return {key: (a[key], b[swapped[key]]) for key in swapped}
    return exact


def _zero_exact(x, y):
    return {key: (0.0, 0.0) for key in ("v", "gx", "gy", "hxx", "hxy", "hyy")}


def _ex1(x, y):
    sx, sy, cy = np.sin(PI * x), np.sin(PI * y), np.cos(PI * y)
    s2x, c2x = np.sin(2 * PI * x), np.cos(2 * PI * x)
    return {
        "v": sx ** 2 * sy ** 3,
        "gx": PI * s2x * sy ** 3,
        "gy": 3 * PI * sx ** 2 * sy ** 2 * cy,
        "hxx": 2 * PI ** 2 * c2x * sy ** 3,
        "hxy": 3 * PI ** 2 * s2x * sy ** 2 * cy,
        "hyy": 3 * PI ** 2 * sx ** 2 * sy * (2 - 3 * sy ** 2),
    }


def ex1_load_1(x, y):
    """First load component of the trigonometric source benchmark."""
    cx, cy = np.cos(PI * x), np.cos(PI * y)
    poly = (663 * cx ** 2 * cy ** 2 - 770 * cx * cy + 910 * cx ** 3 * cy
            - 347 * cx ** 2 - 345 * cy ** 2 + 177)
    return 3 * PI ** 4 * np.sin(PI * y) / 256 * poly


def ex1_load_2(x, y):
    """Second load component, the first with swapped arguments."""
    return ex1_load_1(y, x)


def _ex2(x, y):
    return {
        "v": x ** 2 * y ** 3 * (x + y - 1) ** 2,
        "gx": 2 * x * y ** 3 * (
            2 * x ** 2 + 3 * x * y - 3 * x + y ** 2 - 2 * y + 1),
        "gy": x ** 2 * y ** 2 * (
            3 * x ** 2 + 8 * x * y - 6 * x + 5 * y ** 2 - 8 * y + 3),
        "hxx": 2 * y ** 3 * (
            6 * x ** 2 + 6 * x * y - 6 * x + y ** 2 - 2 * y + 1),
        "hxy": 2 * x * y ** 2 * (
            6 * x ** 2 + 12 * x * y - 9 * x + 5 * y ** 2 - 8 * y + 3),
        "hyy": 2 * x ** 2 * y * (
            3 * x ** 2 + 12 * x * y - 6 * x + 10 * y ** 2 - 12 * y + 3),
    }


def ex2_load_1(x, y):
    """First load component of the polynomial source benchmark."""
    return (49 * x ** 4 / 2 + 289 * x ** 3 * y / 2 + 202 * x ** 3
            + 123 * x ** 2 * y ** 2 / 2 + 1080 * x ** 2 * y
            - 345 * x ** 2 / 2 - 149 * x * y ** 3 / 2 + 1308 * x * y ** 2
            - 1425 * x * y / 2 - 44 * y ** 4 + 450 * y ** 3
            - 402 * y ** 2 + 108 * y)


def ex2_load_2(x, y):
    """Second load component of the polynomial source benchmark."""
    return (44 * x ** 4 + 149 * x ** 3 * y / 2 + 358 * x ** 3
            - 123 * x ** 2 * y ** 2 / 2 + 1284 * x ** 2 * y - 366 * x ** 2
            - 289 * x * y ** 3 / 2 + 1296 * x * y ** 2 - 1551 * x * y / 2
            + 108 * x - 49 * y ** 4 / 2 + 230 * y ** 3 - 327 * y ** 2 / 2)


EX1_EXACT = _mirror(_ex1)
EX2_EXACT = _mirror(_ex2)


@dataclass(frozen=True)
class ExampleDef:
    """One experiment: domain, coefficients, and run defaults.  The
    built-in examples carry their number; an ad-hoc run has none."""

    number: int | None
    kind: str
    domain: str
    lam: float
    mu: float
    mesh_offset: int
    beta: object = None
    rho0: object = None
    rho1: object = None
    loads: tuple = None
    exact: object = None
    method: str = "secant"
    branches: int = 6
    note: str = ""


EXAMPLES = {
    1: ExampleDef(
        1, "source", "unit-square", 0.25, 0.0625, 1,
        beta=Coefficient.constant(1.0),
        loads=(ex1_load_1, ex1_load_2), exact=EX1_EXACT,
        note="trigonometric manufactured solution, constant weight",
    ),
    2: ExampleDef(
        2, "source", "right-triangle", 0.25, 0.25, 1,
        beta=Coefficient.affine(8.0, 1.0, -1.0),
        loads=(ex2_load_1, ex2_load_2), exact=EX2_EXACT,
        note="polynomial manufactured solution, affine weight",
    ),
    3: ExampleDef(
        3, "bielastic", "unit-square", 0.25, 0.0625, 1,
        beta=Coefficient.constant(1.0),
        note="constant weight eigenvalue run",
    ),
    4: ExampleDef(
        4, "bielastic", "unit-square", 0.25, 0.0625, 1,
        beta=Coefficient.affine(8.0, 1.0, -1.0),
        note="affine weight eigenvalue run",
    ),
    5: ExampleDef(
        5, "bielastic", "equilateral-triangle", 0.25, 0.25, 2,
        beta=Coefficient.radial_quadratic(4.0),
        note="quadratic weight eigenvalue run",
    ),
    6: ExampleDef(
        6, "tep", "unit-square", 0.25, 0.25, 0,
        rho0=Coefficient.constant(0.05), rho1=Coefficient.constant(3.0),
        branches=10, note="constant densities",
    ),
    7: ExampleDef(
        7, "tep", "unit-square", 0.25, 1.0 / 12.0, 0,
        rho0=Coefficient.constant(0.5),
        rho1=Coefficient.affine(4.0, 1.0, -1.0),
        branches=10, note="affine inner density",
    ),
    8: ExampleDef(
        8, "tep", "equilateral-triangle", 0.25, 0.0625, 0,
        rho0=Coefficient.constant(0.125),
        rho1=Coefficient.radial_quadratic(4.0),
        branches=10, note="quadratic inner density",
    ),
    9: ExampleDef(
        9, "tep", "l-shape", 0.25, 0.0625, 0,
        rho0=Coefficient.constant(1.0), rho1=Coefficient.constant(4.0),
        method="quadratic", branches=10,
        note="nonconvex domain, complex pairs expected",
    ),
}


def check_levels(levels, big=False):
    """Validated, sorted, deduplicated 1-based refinement levels."""
    cap = LEVEL_CAP_BIG if big else LEVEL_CAP
    out = sorted({int(lvl) for lvl in levels})
    if not out:
        raise ValueError("no refinement levels requested")
    if out[0] < 1:
        raise ValueError(f"levels are 1-based, got {out[0]}")
    if out[-1] > cap:
        raise ValueError(
            f"level {out[-1]} exceeds the cap {cap}"
            + ("" if big else "; pass big=True (--big) to allow level 5")
        )
    return tuple(out)


def check_k(k):
    """The number of requested eigenvalues, which must be at least 1."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return k


def check_lame(lam, mu):
    """Lame parameters for which div sigma is strongly elliptic: finite,
    with mu > 0 and lam + 2 mu > 0."""
    if not (np.isfinite(lam) and np.isfinite(mu) and mu > 0
            and lam + 2 * mu > 0):
        raise ValueError(
            "Lame parameters need finite lam and mu with mu > 0 and "
            f"lam + 2 mu > 0, got lam={lam}, mu={mu}"
        )


def check_tau_range(tau_lo, tau_hi):
    """A secant scan interval: finite ends with tau_lo < tau_hi (an open
    upper end, None, is chosen from the spectrum)."""
    if not np.isfinite(tau_lo) or (
        tau_hi is not None and not (np.isfinite(tau_hi) and tau_lo < tau_hi)
    ):
        raise ValueError(
            f"tau range needs finite ends with lo < hi, got {tau_lo}:{tau_hi}"
        )


def source_order(errors):
    """Empirical orders log2(e_prev / e_next) per consecutive error pair.

    A vanishing (or negative, from roundoff) error makes the pair's order
    the literal string "exact".
    """
    errs = [float(e) for e in errors]
    if len(errs) < 2:
        raise ValueError("need at least two error values")
    out = []
    for prev, cur in zip(errs, errs[1:]):
        if prev <= 0.0 or cur <= 0.0:
            out.append("exact")
        else:
            out.append(float(np.log2(prev / cur)))
    return out


def eig_order(values, ref=None):
    """Empirical convergence orders of an eigenvalue sequence.

    Without an explicit reference, the error of each level is measured
    against the next finer level in the sequence, giving one order per
    consecutive triple; this is how the reference tables' Ord columns
    are produced. With ``ref`` given, errors are |v - ref| and one order
    per consecutive pair is returned. Vanishing differences give the
    literal "exact".
    """
    vals = np.asarray(list(values))
    if ref is None:
        if vals.size < 3:
            raise ValueError("need at least three values")
        errs = np.abs(np.diff(vals))
    else:
        if vals.size < 2:
            raise ValueError("need at least two values")
        errs = np.abs(vals - ref)
    return source_order(errs)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _sig6(value):
    return f"{value:.6g}"


def _fmt_value(re_part, im_part):
    if im_part:
        return f"{re_part:.6g}{im_part:+.6g}i"
    return _sig6(re_part)


@dataclass
class ExperimentReport:
    """Uniform result container for all three experiment kinds.

    Rows are per-level dictionaries (one per norm for source runs, one
    per branch for eigenvalue runs). The ``orders`` mapping carries the
    per-pair convergence orders and the final (finest usable) order per
    tracked quantity.
    """

    kind: str
    rows: list
    meta: dict
    orders: dict = field(default_factory=dict)

    @property
    def columns(self):
        return SOURCE_COLUMNS if self.kind == "source" else EIGEN_COLUMNS

    def to_csv(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(row.get(col)) for col in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "meta": _plain(self.meta),
            "orders": _plain(self.orders),
            "rows": _plain(self.rows),
        }
        return json.dumps(payload, indent=2) + "\n"

    def _stem(self):
        number = self.meta.get("example")
        return f"example{number}" if number else self.kind

    def plot_data(self):
        """(h, error) column files keyed by file name, one per tracked
        quantity; eigenvalue errors are taken against the finest level
        present in the run."""
        files = {}
        for label, rows in _series(self.kind, self.rows).items():
            if self.kind == "source":
                points = [(r["h"], r["error"]) for r in rows]
            else:
                ref = complex(rows[-1]["value_re"], rows[-1]["value_im"])
                errs = [(r["h"], abs(complex(r["value_re"], r["value_im"])
                                     - ref)) for r in rows[:-1]]
                points = [(h, err) for h, err in errs if err != 0.0]
                if not points:
                    continue
            lines = ["# h  error"] + [f"{h!r} {err!r}" for h, err in points]
            name = f"{self._stem()}_{label.replace('_', '')}.dat"
            files[name] = "\n".join(lines) + "\n"
        return files

    def table(self):
        """Human-readable layout: one row per tracked quantity, one value
        column per level, final order last. Values carry 6 significant
        digits; a trailing * marks a possible branch crossing."""
        meta = self.meta
        head = [f"# {self._stem()} ({self.kind}) domain={meta['domain']}"]
        bits = [f"element={meta['element']}"]
        for key in ("lam", "mu", "alpha", "method"):
            if meta.get(key) is not None:
                bits.append(f"{key}={_sig6(meta[key]) if isinstance(meta[key], float) else meta[key]}")
        head.append("# " + " ".join(bits))
        levels = meta["levels"]
        hs = meta["h"]
        header = ["quantity"] + [
            f"L{lvl} (h={_sig6(h)})" for lvl, h in zip(levels, hs)
        ] + ["Ord"]
        body = []
        starred = False
        for label, rows in _series(self.kind, self.rows).items():
            by_level = {r["level"]: r for r in rows}
            cells = [label]
            for lvl in levels:
                row = by_level.get(lvl)
                if row is None:
                    cells.append("")
                    continue
                if self.kind == "source":
                    text = _sig6(row["error"])
                else:
                    text = _fmt_value(row["value_re"], row["value_im"])
                if row.get("crossing"):
                    text += "*"
                    starred = True
                cells.append(text)
            cells.append(self._final_order_cell(label))
            body.append(cells)
        widths = [max([len(header[i])] + [len(r[i]) for r in body])
                  for i in range(len(header))]
        lines = head
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for cells in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        if starred:
            lines.append("# * possible branch crossing near the root")
        return "\n".join(lines) + "\n"

    def _final_order_cell(self, label):
        entry = self.orders.get(label)
        if not entry or entry.get("final") is None:
            return ""
        final = entry["final"]
        return final if isinstance(final, str) else _sig6(final)


def _base_meta(kind, domain, element, levels, lam, mu, **extra):
    meta = {
        "kind": kind,
        "domain": domain,
        "element": element,
        "levels": list(levels),
        "lam": float(lam),
        "mu": float(mu),
        "h": [],
        "dofs": [],
        "warnings": [],
        "version": __version__,
        "tolerances": {
            "eig": EIG_TOL,
            "secant_ftol": SECANT_FTOL,
            "root_certificate": CERT_TOL,
        },
    }
    meta.update(extra)
    return meta


def _series(kind, rows):
    """The tracked quantities of a report, each with its rows in level
    order: the norms in ``SOURCE_NORMS`` order for a source run, and
    ``lambda_j`` by branch j for an eigenvalue run."""
    if kind == "source":
        return {norm: [r for r in rows if r["norm"] == norm]
                for norm in SOURCE_NORMS}
    series = {}
    for row in sorted(rows, key=lambda r: r["branch"]):
        series.setdefault(f"lambda_{row['branch']}", []).append(row)
    return series


def _attach_orders(kind, rows, levels):
    """Per-pair orders of each quantity present at every level, written
    into the rows they attach to: the finer level of each pair of source
    errors, the finest level of each triple of eigenvalues."""
    out = {}
    for label, group in _series(kind, rows).items():
        if len(group) != len(levels):
            continue
        if kind == "source":
            offset = 1
            errs = [row["error"] for row in group]
            ords = source_order(errs) if len(errs) >= 2 else []
        else:
            offset = 2
            if len(group) < 3:
                continue
            ords = eig_order([complex(row["value_re"], row["value_im"])
                              for row in group])
        out[label] = {"orders": ords, "final": ords[-1] if ords else None}
        for row, value in zip(group[offset:], ords):
            row["order"] = value
    return out


def _run_levels(domain, element, levels, mesh_offset, meta, solve):
    """The level loop of every run kind.

    Each level builds its mesh and realization and calls ``solve(real)``,
    which returns the level's rows.  The loop times the whole level, space
    included, prefixes each row with level, h and dofs and ends it with
    seconds, and appends h and dofs to ``meta``.  The warnings a level
    raises are caught, and each distinct message goes into
    ``meta["warnings"]`` with its level.
    """
    rows = []
    for lvl in levels:
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mesh = generate_domain(domain, lvl - 1 + mesh_offset)
            real = make_realization(mesh, element)
            level_rows = solve(real)
        seconds = time.perf_counter() - t0
        meta["h"].append(mesh.h)
        meta["dofs"].append(real.dofs)
        for message in dict.fromkeys(str(w.message) for w in caught):
            meta["warnings"].append({"level": lvl, "message": message})
        rows += [{"level": lvl, "h": mesh.h, "dofs": real.dofs, **row,
                  "seconds": seconds} for row in level_rows]
    return rows


def _source_solver(ex, meta, alpha, k, method, tau_range):
    meta.update(mesh_offset=ex.mesh_offset,
                norm_kind="solution" if ex.exact is None else "error")

    def solve(real):
        res = solve_source(real, ex.beta, ex.lam, ex.mu, *ex.loads,
                           exact=ex.exact, alpha=alpha)
        norms = res.norms if ex.exact is not None else error_norms(
            real.space, res.broken, _zero_exact
        )
        return [{"norm": norm, "error": float(norms[norm]), "order": None}
                for norm in SOURCE_NORMS]

    return solve


def _bielastic_solver(ex, meta, alpha, k, method, tau_range):
    meta.update(k=k, mesh_offset=ex.mesh_offset, eig_method=[])

    def solve(real):
        res = solve_bielastic_eigs(real, ex.beta, ex.lam, ex.mu, k,
                                   alpha=alpha)
        meta["eig_method"].append(res.method)
        return [{"branch": j, "value_re": float(value), "value_im": 0.0,
                 "order": None, "residual": float(res.residuals[j - 1])}
                for j, value in enumerate(res.values, start=1)]

    return solve


def _tep_solver(ex, meta, alpha, k, method, tau_range):
    """Secant root tracking (real values) or companion linearization
    (complex values allowed)."""
    tau_lo, tau_hi = tau_range
    meta.update(k=k, method=method, mesh_offset=ex.mesh_offset,
                eig_method=[])

    def solve(real):
        blocks = TepBlocks(real, ex.lam, ex.mu, ex.rho0, ex.rho1, alpha=alpha)
        meta["case"] = blocks.case
        if method == "secant":
            roots = find_teps_secant(
                blocks, k=max(SCAN_BRANCHES, k + 2),
                tau_lo=tau_lo, tau_hi=tau_hi,
            )[:k]
            meta["eig_method"].append(dict(blocks.eig_methods))
            return [{"branch": j, "value_re": float(root.tau),
                     "value_im": 0.0, "order": None,
                     "residual": float(root.residual),
                     "crossing": bool(root.crossing_flag),
                     "scan_branch": int(root.branch),
                     "iterations": int(root.iterations)}
                    for j, root in enumerate(roots, start=1)]
        res = find_teps_quadratic(blocks, k)
        meta["eig_method"].append(res.method)
        return [{"branch": j, "value_re": value.real,
                 "value_im": value.imag, "order": None,
                 "residual": float(res.residuals[j - 1])}
                for j, value in enumerate(map(complex, res.values), start=1)]

    return solve


_SOLVERS = {"source": _source_solver, "bielastic": _bielastic_solver,
           "tep": _tep_solver}


def run_example(example, levels=None, element="b3", alpha=None, method=None,
                k=None, tau_range=None, big=False):
    """Execute one experiment and return its report.

    ``example`` is a built-in example number or an ``ExampleDef``; the
    command line's solve commands pass an unnumbered one.  Overrides are
    validated against the example kind: method and tau_range apply only
    to transmission runs, and k only to eigenvalue runs.  ``tau_range``
    is the secant scan interval (lo, hi); it defaults to (0.25, None), an
    upper end chosen from the spectrum.
    """
    if isinstance(example, ExampleDef):
        ex = example
    else:
        try:
            ex = EXAMPLES[int(example)]
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                f"unknown example {example!r}; valid numbers are 1-9")
    if method is not None and ex.kind != "tep":
        raise ValueError("method applies only to transmission runs")
    if tau_range is not None and ex.kind != "tep":
        raise ValueError("tau_range applies only to transmission runs")
    if k is not None and ex.kind == "source":
        raise ValueError("k applies only to eigenvalue runs")
    method = ex.method if method is None else method
    if method not in ("secant", "quadratic"):
        raise ValueError(f"unknown method {method!r}")
    if tau_range is not None and method != "secant":
        raise ValueError("tau_range applies only to the secant method")
    levels = check_levels(DEFAULT_LEVELS[ex.kind] if levels is None
                          else levels, big)
    k = check_k(ex.branches if k is None else k)
    tau_range = (0.25, None) if tau_range is None else tau_range
    check_tau_range(*tau_range)
    check_lame(ex.lam, ex.mu)
    meta = _base_meta(ex.kind, ex.domain, element, levels, ex.lam, ex.mu,
                      alpha=alpha)
    solve = _SOLVERS[ex.kind](ex, meta, alpha, k, method, tau_range)
    rows = _run_levels(ex.domain, element, levels, ex.mesh_offset, meta, solve)
    if ex.number is not None:
        meta["example"] = ex.number
        meta["note"] = ex.note
    return ExperimentReport(ex.kind, rows, meta,
                            _attach_orders(ex.kind, rows, levels))


def _spot_points():
    rng = np.random.default_rng(160816)
    pts = rng.uniform((0.35, 0.05), (0.48, 0.20), size=(5, 2))
    return pts[:, 0], pts[:, 1]


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def _coefficient_restatements():
    """Independently written forms of every built-in coefficient and load,
    keyed by a short name. Each entry is (registry callable, restatement)."""
    def ex1_f1_alt(x, y):
        c1, c2 = np.cos(PI * x), np.cos(PI * y)
        horner = ((910 * c2) * c1 ** 3
                  + (663 * c2 ** 2 - 347) * c1 ** 2
                  - (770 * c2) * c1
                  + (177 - 345 * c2 ** 2))
        return (3.0 / 256.0) * PI ** 4 * np.sin(PI * y) * horner

    def ex2_f1_alt(x, y):
        doubled = (49 * x ** 4 + 289 * x ** 3 * y + 404 * x ** 3
                   + 123 * x ** 2 * y ** 2 + 2160 * x ** 2 * y - 345 * x ** 2
                   - 149 * x * y ** 3 + 2616 * x * y ** 2 - 1425 * x * y
                   - 88 * y ** 4 + 900 * y ** 3 - 804 * y ** 2 + 216 * y)
        return 0.5 * doubled

    def ex2_f2_alt(x, y):
        doubled = (88 * x ** 4 + 149 * x ** 3 * y + 716 * x ** 3
                   - 123 * x ** 2 * y ** 2 + 2568 * x ** 2 * y - 732 * x ** 2
                   - 289 * x * y ** 3 + 2592 * x * y ** 2 - 1551 * x * y
                   + 216 * x - 49 * y ** 4 + 460 * y ** 3 - 327 * y ** 2)
        return 0.5 * doubled

    pairs = {
        "example1.beta": (EXAMPLES[1].beta, lambda x, y: np.ones_like(x)),
        "example1.f1": (ex1_load_1, ex1_f1_alt),
        "example1.f2": (ex1_load_2, lambda x, y: ex1_f1_alt(y, x)),
        "example2.beta": (EXAMPLES[2].beta, lambda x, y: 8.0 + x - y),
        "example2.f1": (ex2_load_1, ex2_f1_alt),
        "example2.f2": (ex2_load_2, ex2_f2_alt),
        "example3.beta": (EXAMPLES[3].beta, lambda x, y: np.ones_like(x)),
        "example4.beta": (EXAMPLES[4].beta, lambda x, y: 8.0 + x - y),
        "example5.beta": (EXAMPLES[5].beta,
                          lambda x, y: 4.0 + x * x + y * y),
        "example6.rho0": (EXAMPLES[6].rho0, lambda x, y: 0.05 + 0.0 * x),
        "example6.rho1": (EXAMPLES[6].rho1, lambda x, y: 3.0 + 0.0 * x),
        "example7.rho0": (EXAMPLES[7].rho0, lambda x, y: 0.5 + 0.0 * x),
        "example7.rho1": (EXAMPLES[7].rho1, lambda x, y: 4.0 + x - y),
        "example8.rho0": (EXAMPLES[8].rho0, lambda x, y: 0.125 + 0.0 * x),
        "example8.rho1": (EXAMPLES[8].rho1,
                          lambda x, y: 4.0 + x * x + y * y),
        "example9.rho0": (EXAMPLES[9].rho0, lambda x, y: 1.0 + 0.0 * x),
        "example9.rho1": (EXAMPLES[9].rho1, lambda x, y: 4.0 + 0.0 * x),
    }
    return pairs


def self_test(stream=None):
    """Cheap independent spot checks of the built-in definitions.

    Verifies every registry coefficient and load at five random interior
    points against independently written restatements, checks the exact
    solutions against finite differences, mesh areas against the
    reference geometry, and the sparse eigensolver against a dense
    oracle. Returns True when every check passes.
    """
    checks = []
    x, y = _spot_points()

    for name, (coeff, alt) in _coefficient_restatements().items():
        if isinstance(coeff, Coefficient):
            got = np.array([coeff(float(a), float(b)) for a, b in zip(x, y)])
        else:
            got = coeff(x, y)
        want = alt(x, y)
        err = float(np.max(np.abs(np.asarray(got) - want)))
        _check(checks, f"coefficient {name}", err <= 1e-12 * (1.0 + float(np.max(np.abs(want)))),
               f"max deviation {err:.3e}")

    for label, exact in (("example1", EX1_EXACT), ("example2", EX2_EXACT)):
        ok, worst = _derivatives_consistent(exact, x, y)
        _check(checks, f"{label} exact-solution derivatives", ok,
               f"worst finite-difference deviation {worst:.3e}")

    for domain, area in DOMAIN_AREAS.items():
        mesh = generate_domain(domain, 1)
        got = float(np.sum(mesh.signed_areas()))
        _check(checks, f"mesh area {domain}", abs(got - area) <= 1e-12,
               f"sum of signed areas {got!r}")

    rng = np.random.default_rng(8)
    n = 40
    raw = rng.standard_normal((n, n))
    a = raw + raw.T + 2.0 * n * np.eye(n)
    raw = rng.standard_normal((n, n))
    b = raw @ raw.T + n * np.eye(n)
    from scipy.linalg import eigh as dense_eigh
    from scipy.sparse import csr_matrix
    want = dense_eigh(a, b, subset_by_index=[0, 4])[0]
    got = eig_sym_constrained(csr_matrix(a), csr_matrix(b), 5)
    err = float(np.max(np.abs(got.values - want) / np.abs(want)))
    _check(checks, "sparse eigensolver vs dense oracle",
           got.method == "arpack" and err <= 1e-9,
           f"method {got.method}, max relative deviation {err:.3e}")

    mesh = generate_domain("unit-square", 0)
    real = make_realization(mesh, "b3")
    zero = lambda x1, x2: np.zeros_like(x1)
    res = solve_source(real, 1.0, 0.25, 0.0625, zero, zero)
    _check(checks, "zero load gives zero solution",
           float(np.max(np.abs(res.broken))) <= 1e-10,
           f"max coefficient {float(np.max(np.abs(res.broken))):.3e}")

    anchor_real = make_realization(generate_domain("unit-square", 1), "b3")
    eig = solve_bielastic_eigs(anchor_real, 1.0, 0.25, 0.0625, 1)
    lam1 = float(eig.values[0])
    _check(checks, "coarse eigenvalue anchor",
           abs(lam1 - 25.357741) <= 1e-3,
           f"lambda_1 {lam1!r}")

    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        if stream is not None:
            mark = "ok  " if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"{mark} {name}{suffix}", file=stream)
    return all_ok


def _derivatives_consistent(exact, x, y, step=1e-6):
    """Finite-difference consistency of a two-component exact solution:
    gradients against values, second derivatives against gradients."""
    at = exact(x, y)
    dx = (exact(x + step, y), exact(x - step, y))
    dy = (exact(x, y + step), exact(x, y - step))
    # key: (the key it differentiates, the two shifted evaluations)
    quotients = {"gx": ("v", dx), "gy": ("v", dy), "hxx": ("gx", dx),
                 "hyy": ("gy", dy), "hxy": ("gx", dy)}
    worst = 0.0
    for comp in (0, 1):
        for key, (of, (plus, minus)) in quotients.items():
            got = at[key][comp]
            ref = (plus[of][comp] - minus[of][comp]) / (2 * step)
            scale = 1.0 + float(np.max(np.abs(got)))
            worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    return worst <= 1e-7, worst
