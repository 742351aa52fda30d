"""Harness checks: symbolic load forensics for the built-in benchmarks,
order formulas, the example registry, report serialization, determinism,
and the self test."""

import dataclasses
import io
import json
import time

import numpy as np
import pytest
import sympy as sp

import bielastic.harness as harness
from bielastic.assembly import FIELD_DEGREE
from bielastic.harness import (
    DEFAULT_LEVELS,
    EX1_EXACT,
    EX2_EXACT,
    EXAMPLES,
    ExperimentReport,
    check_levels,
    eig_order,
    ex1_load_1,
    ex1_load_2,
    ex2_load_1,
    ex2_load_2,
    run_example,
    self_test,
    source_order,
)
from bielastic.mesh import generate_domain
from bielastic.polybasis import triangle_quadrature
from bielastic.spaces import BrokenSpace

X, Y = sp.symbols("x y", real=True)


def divsigma(u1, u2, lam, mu):
    """Row divergence of the stress tensor of the displacement (u1, u2)."""
    e11 = sp.diff(u1, X)
    e22 = sp.diff(u2, Y)
    e12 = (sp.diff(u1, Y) + sp.diff(u2, X)) / 2
    tr = e11 + e22
    s11 = 2 * mu * e11 + lam * tr
    s22 = 2 * mu * e22 + lam * tr
    s12 = 2 * mu * e12
    return (sp.diff(s11, X) + sp.diff(s12, Y),
            sp.diff(s12, X) + sp.diff(s22, Y))


def fourth_order_load(w1, w2, beta, lam, mu):
    """f = div sigma(beta div sigma(w)), the strong form behind the
    weighted fourth-order bilinear form."""
    g1, g2 = divsigma(w1, w2, lam, mu)
    return divsigma(beta * g1, beta * g2, lam, mu)


def sample_points(rng_seed=7, n=20):
    rng = np.random.default_rng(rng_seed)
    pts = rng.uniform((0.05, 0.05), (0.45, 0.45), size=(n, 2))
    return pts[:, 0], pts[:, 1]


def lam_eval(expr):
    return sp.lambdify((X, Y), expr, modules="numpy")


class TestLoadForensics:
    """The registry loads must be the exact strong-form images of the
    registry exact solutions; derivative tables must be the exact
    symbolic derivatives."""

    def test_example1_loads_match_operator(self):
        ex = EXAMPLES[1]
        v = sp.sin(sp.pi * X) ** 2 * sp.sin(sp.pi * Y) ** 3
        w1, w2 = v, v.subs({X: Y, Y: X}, simultaneous=True)
        f1, f2 = fourth_order_load(
            w1, w2, sp.Integer(1), sp.Rational(1, 4), sp.Rational(1, 16)
        )
        x, y = sample_points()
        got1, got2 = ex1_load_1(x, y), ex1_load_2(x, y)
        want1, want2 = lam_eval(f1)(x, y), lam_eval(f2)(x, y)
        scale = np.abs(want1).max()
        assert np.abs(got1 - want1).max() <= 1e-9 * scale
        assert np.abs(got2 - want2).max() <= 1e-9 * scale
        assert ex.lam == 0.25 and ex.mu == 0.0625

    def test_example1_second_load_is_first_with_swapped_arguments(self):
        v = sp.sin(sp.pi * X) ** 2 * sp.sin(sp.pi * Y) ** 3
        w1, w2 = v, v.subs({X: Y, Y: X}, simultaneous=True)
        f1, f2 = fourth_order_load(
            w1, w2, sp.Integer(1), sp.Rational(1, 4), sp.Rational(1, 16)
        )
        swapped = f1.subs({X: Y, Y: X}, simultaneous=True)
        assert sp.simplify(f2 - swapped) == 0

    def test_example2_loads_match_operator(self):
        v = X ** 2 * Y ** 3 * (X + Y - 1) ** 2
        w1, w2 = v, v.subs({X: Y, Y: X}, simultaneous=True)
        beta = 8 + X - Y
        f1, f2 = fourth_order_load(
            w1, w2, beta, sp.Rational(1, 4), sp.Rational(1, 4)
        )
        x, y = sample_points()
        scale = max(np.abs(lam_eval(f1)(x, y)).max(), 1.0)
        assert np.abs(ex2_load_1(x, y) - lam_eval(f1)(x, y)).max() \
            <= 1e-9 * scale
        assert np.abs(ex2_load_2(x, y) - lam_eval(f2)(x, y)).max() \
            <= 1e-9 * scale

    def test_example2_loads_are_not_mirror_images(self):
        # the affine weight breaks the swap symmetry the solution pair has
        x, y = sample_points()
        assert np.abs(ex2_load_2(x, y) - ex2_load_1(y, x)).max() > 1.0

    @pytest.mark.parametrize("exact,base", [
        (EX1_EXACT, sp.sin(sp.pi * X) ** 2 * sp.sin(sp.pi * Y) ** 3),
        (EX2_EXACT, X ** 2 * Y ** 3 * (X + Y - 1) ** 2),
    ], ids=["example1", "example2"])
    def test_exact_tables_are_symbolic_derivatives(self, exact, base):
        comps = (base, base.subs({X: Y, Y: X}, simultaneous=True))
        x, y = sample_points()
        for c, w in enumerate(comps):
            pairs = {
                "v": w,
                "gx": sp.diff(w, X),
                "gy": sp.diff(w, Y),
                "hxx": sp.diff(w, X, 2),
                "hxy": sp.diff(w, X, Y),
                "hyy": sp.diff(w, Y, 2),
            }
            for key, expr in pairs.items():
                got = exact(x, y)[key][c]
                want = lam_eval(expr)(x, y)
                scale = 1.0 + np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-10 * scale, (key, c)

    def test_exact_solutions_vanish_on_their_boundaries(self):
        t = np.linspace(0.0, 1.0, 17)
        zero = np.zeros_like(t)
        one = np.ones_like(t)
        square_edges = [(t, zero), (t, one), (zero, t), (one, t)]
        triangle_edges = [(t, zero), (zero, t), (t, 1.0 - t)]
        for exact, edges in ((EX1_EXACT, square_edges),
                             (EX2_EXACT, triangle_edges)):
            for c in (0, 1):
                worst = max(np.abs(exact(x, y)["v"][c]).max()
                            for x, y in edges)
                assert worst <= 1e-14

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("exact,first,domain", [
        (EX1_EXACT, "ex1", "unit-square"),
        (EX2_EXACT, "ex2", "right-triangle"),
    ], ids=["example1", "example2"])
    def test_exact_solutions_equal_per_key_formulas_bitwise(
        self, exact, first, domain, level
    ):
        """Sharing the sines of example 1 and calling each example once
        per point set leaves every value bit for bit as twelve separate
        per-key formulas compute it, at the points the error norms use."""
        space = BrokenSpace(generate_domain(domain, level), 3)
        xq = space.physical_points(triangle_quadrature(FIELD_DEGREE).points)
        x, y = xq[..., 0], xq[..., 1]
        got = exact(x, y)
        want = mirrored_per_key(PER_KEY_FORMULAS[first])
        assert set(got) == set(want)
        for key, pair in want.items():
            for c in (0, 1):
                assert np.array_equal(got[key][c], pair[c](x, y)), (key, c)


PI = np.pi

# Independent restatements of the first component, one function per key,
# each with the order of operations that the library's shared factors must
# reproduce bit for bit.
PER_KEY_FORMULAS = {
    "ex1": {
        "v": lambda x, y: np.sin(PI * x) ** 2 * np.sin(PI * y) ** 3,
        "gx": lambda x, y: PI * np.sin(2 * PI * x) * np.sin(PI * y) ** 3,
        "gy": lambda x, y: (3 * PI * np.sin(PI * x) ** 2
                            * np.sin(PI * y) ** 2 * np.cos(PI * y)),
        "hxx": lambda x, y: (2 * PI ** 2 * np.cos(2 * PI * x)
                             * np.sin(PI * y) ** 3),
        "hxy": lambda x, y: (3 * PI ** 2 * np.sin(2 * PI * x)
                             * np.sin(PI * y) ** 2 * np.cos(PI * y)),
        "hyy": lambda x, y: (3 * PI ** 2 * np.sin(PI * x) ** 2
                             * np.sin(PI * y)
                             * (2 - 3 * np.sin(PI * y) ** 2)),
    },
    "ex2": {
        "v": lambda x, y: x ** 2 * y ** 3 * (x + y - 1) ** 2,
        "gx": lambda x, y: 2 * x * y ** 3 * (
            2 * x ** 2 + 3 * x * y - 3 * x + y ** 2 - 2 * y + 1),
        "gy": lambda x, y: x ** 2 * y ** 2 * (
            3 * x ** 2 + 8 * x * y - 6 * x + 5 * y ** 2 - 8 * y + 3),
        "hxx": lambda x, y: 2 * y ** 3 * (
            6 * x ** 2 + 6 * x * y - 6 * x + y ** 2 - 2 * y + 1),
        "hxy": lambda x, y: 2 * x * y ** 2 * (
            6 * x ** 2 + 12 * x * y - 9 * x + 5 * y ** 2 - 8 * y + 3),
        "hyy": lambda x, y: 2 * x ** 2 * y * (
            3 * x ** 2 + 12 * x * y - 6 * x + 10 * y ** 2 - 12 * y + 3),
    },
}


def mirrored_per_key(first):
    """Pairs of per-key callables whose second component is the first
    with swapped arguments (its x and y derivatives swap too)."""
    swap = {"v": "v", "gx": "gy", "gy": "gx", "hxx": "hyy", "hxy": "hxy",
            "hyy": "hxx"}
    return {key: (first[key], lambda x, y, k=swap[key]: first[k](y, x))
            for key in first}


class TestOrderFormulas:
    def test_source_order_halving(self):
        assert source_order([1.0, 0.25]) == [2.0]
        assert source_order([1.0, 1.0 / 16.0]) == [4.0]

    def test_source_order_geometric(self):
        errs = 16.0 ** -np.arange(5)
        assert source_order(errs) == pytest.approx([4.0] * 4)

    def test_source_order_exact_sentinel(self):
        assert source_order([1.0, 0.0, 0.5]) == ["exact", "exact"]

    def test_source_order_needs_two(self):
        with pytest.raises(ValueError):
            source_order([1.0])

    def test_eig_order_successive_differences(self):
        row = [25.35774, 23.39262, 23.18043, 23.16308, 23.16188]
        ords = eig_order(row)
        assert len(ords) == 3
        assert ords[-1] == pytest.approx(3.8538, abs=2e-3)

    def test_eig_order_matches_geometric_sequence(self):
        vals = 10.0 + 16.0 ** -np.arange(5)
        assert eig_order(vals) == pytest.approx([4.0] * 3)

    def test_eig_order_with_reference(self):
        row = [25.35774, 23.39262, 23.18043, 23.16308]
        ords = eig_order(row, ref=row[-1])
        assert ords[-1] == "exact"
        assert ords[0] == pytest.approx(3.2572, abs=2e-3)
        assert ords[1] == pytest.approx(3.7257, abs=2e-3)

    def test_eig_order_constant_is_exact(self):
        assert eig_order([2.0, 2.0, 2.0]) == ["exact"]

    def test_eig_order_needs_three_without_reference(self):
        with pytest.raises(ValueError):
            eig_order([1.0, 2.0])
        assert eig_order([1.0, 2.0], ref=0.0) == [pytest.approx(-1.0)]


class TestCheckLevels:
    def test_sorts_and_dedupes(self):
        assert check_levels([3, 1, 1, 2]) == (1, 2, 3)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            check_levels([])
        with pytest.raises(ValueError, match="1-based"):
            check_levels([0, 1])

    def test_cap_and_big_gate(self):
        with pytest.raises(ValueError, match="cap"):
            check_levels([5])
        assert check_levels([5], big=True) == (5,)
        with pytest.raises(ValueError, match="cap"):
            check_levels([6], big=True)


class TestRegistry:
    def test_numbers_and_kinds(self):
        assert sorted(EXAMPLES) == list(range(1, 10))
        kinds = {n: EXAMPLES[n].kind for n in EXAMPLES}
        assert kinds == {1: "source", 2: "source", 3: "bielastic",
                         4: "bielastic", 5: "bielastic", 6: "tep",
                         7: "tep", 8: "tep", 9: "tep"}

    def test_mesh_offsets(self):
        offsets = {n: EXAMPLES[n].mesh_offset for n in EXAMPLES}
        assert offsets == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2,
                           6: 0, 7: 0, 8: 0, 9: 0}

    def test_domains(self):
        domains = {n: EXAMPLES[n].domain for n in EXAMPLES}
        assert domains == {
            1: "unit-square", 2: "right-triangle", 3: "unit-square",
            4: "unit-square", 5: "equilateral-triangle", 6: "unit-square",
            7: "unit-square", 8: "equilateral-triangle", 9: "l-shape",
        }

    def test_lame_parameters(self):
        pairs = {n: (EXAMPLES[n].lam, EXAMPLES[n].mu) for n in EXAMPLES}
        assert pairs[1] == (0.25, 0.0625)
        assert pairs[2] == (0.25, 0.25)
        assert pairs[6] == (0.25, 0.25)
        assert pairs[7] == (0.25, pytest.approx(1.0 / 12.0))
        assert pairs[8] == (0.25, 0.0625)
        assert pairs[9] == (0.25, 0.0625)

    def test_transmission_defaults(self):
        assert EXAMPLES[9].method == "quadratic"
        for n in (6, 7, 8):
            assert EXAMPLES[n].method == "secant"
        for n in (6, 7, 8, 9):
            assert EXAMPLES[n].branches == 10

    def test_default_levels(self):
        assert DEFAULT_LEVELS == {"source": (1, 2, 3, 4),
                                  "bielastic": (1, 2, 3),
                                  "tep": (1, 2, 3)}


@pytest.fixture(scope="module")
def ex3_report():
    return run_example(3, levels=(1, 2))


@pytest.fixture(scope="module")
def ex1_report():
    return run_example(1, levels=(1, 2))


@pytest.fixture(scope="module")
def ex9_report():
    return run_example(9, levels=(1, 2))


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def strip_seconds(text):
    return "\n".join(line.rsplit(",", 1)[0]
                     for line in text.strip().split("\n"))


class TestReports:
    def test_source_csv_schema(self, ex1_report):
        header, rows = parse_csv(ex1_report.to_csv())
        assert header == ["level", "h", "dofs", "norm", "error", "order",
                          "seconds"]
        assert len(rows) == 2 * 3

    def test_eigen_csv_schema(self, ex3_report):
        header, rows = parse_csv(ex3_report.to_csv())
        assert header == ["level", "h", "dofs", "branch", "value_re",
                          "value_im", "order", "residual", "seconds"]
        assert len(rows) == 2 * 6

    def test_csv_fields_round_trip(self, ex3_report, ex1_report, ex9_report):
        for rep in (ex3_report, ex1_report, ex9_report):
            original = rep.to_csv()
            header, rows = parse_csv(original)
            rebuilt = []
            for fields in rows:
                row = {}
                for key, field in zip(header, fields):
                    if field == "":
                        row[key] = None
                    elif key in ("level", "dofs", "branch"):
                        row[key] = int(field)
                    elif key == "norm" or field == "exact":
                        row[key] = field
                    else:
                        row[key] = float(field)
                rebuilt.append(row)
            again = ExperimentReport(rep.kind, rebuilt, {}, {}).to_csv()
            assert again == original

    def test_json_payload(self, ex3_report):
        payload = json.loads(ex3_report.to_json())
        assert set(payload) == {"meta", "orders", "rows"}
        meta = payload["meta"]
        assert meta["example"] == 3
        assert meta["domain"] == "unit-square"
        assert meta["levels"] == [1, 2]
        assert len(meta["h"]) == len(meta["dofs"]) == 2
        assert set(meta["tolerances"]) == {"eig", "secant_ftol",
                                           "root_certificate"}
        assert len(payload["rows"]) == len(ex3_report.rows)
        # full precision survives serialization
        assert payload["rows"][0]["value_re"] == \
            ex3_report.rows[0]["value_re"]

    def test_reruns_are_identical_up_to_timing(self):
        a = run_example(3, levels=(1, 2))
        b = run_example(3, levels=(1, 2))
        assert strip_seconds(a.to_csv()) == strip_seconds(b.to_csv())

    def test_complex_reruns_are_identical_up_to_timing(self, ex9_report):
        again = run_example(9, levels=(1, 2))
        assert strip_seconds(again.to_csv()) == \
            strip_seconds(ex9_report.to_csv())

    def test_complex_pairs_list_negative_member_first(self, ex9_report):
        rows = [r for r in ex9_report.rows if r["level"] == 2]
        by_branch = {r["branch"]: r for r in rows}
        seen_pair = False
        for j in sorted(by_branch)[:-1]:
            a, b = by_branch[j], by_branch[j + 1]
            if a["value_im"] != 0.0 and \
                    abs(a["value_re"] - b["value_re"]) <= 1e-8:
                assert a["value_im"] < 0 < b["value_im"]
                seen_pair = True
        assert seen_pair

    def test_source_plot_data(self, ex1_report):
        files = ex1_report.plot_data()
        assert set(files) == {"example1_l2.dat", "example1_h1.dat",
                              "example1_h2.dat"}
        for content in files.values():
            lines = content.strip().split("\n")
            assert lines[0].startswith("#")
            assert len(lines) == 1 + 2
            for line in lines[1:]:
                h, err = line.split()
                assert float(h) > 0 and float(err) > 0

    def test_eigen_plot_data(self, ex3_report):
        files = ex3_report.plot_data()
        assert files
        for name, content in files.items():
            assert name.startswith("example3_lambda")
            lines = content.strip().split("\n")
            for line in lines[1:]:
                h, err = line.split()
                assert float(h) > 0 and float(err) > 0

    def test_table_layout_source(self, ex1_report):
        text = ex1_report.table()
        assert "quantity" in text and "Ord" in text
        assert "L1 (h=0.25)" in text and "L2 (h=0.125)" in text
        assert "\nl2" in text.replace("  l2", "\nl2")

    def test_table_layout_eigen_complex(self, ex9_report):
        text = ex9_report.table()
        assert "lambda_1" in text
        assert "i" in text.split("lambda_1", 1)[1].split("\n", 1)[0]

    def test_orders_attach_to_finest_rows(self, ex1_report):
        for row in ex1_report.rows:
            if row["level"] == 1:
                assert row["order"] is None
            else:
                assert isinstance(row["order"], float)

    def test_table_of_a_report_without_rows(self, ex9_report):
        meta = dict(ex9_report.meta, levels=[1], h=[0.5])
        lines = ExperimentReport("tep", [], meta).table().splitlines()
        assert lines[-1].split() == ["quantity", "L1", "(h=0.5)", "Ord"]

    def test_eigensolver_path_per_level(self, ex3_report):
        assert ex3_report.meta["eig_method"] == ["arpack", "arpack"]
        report = run_example(9, levels=(1, 2, 3))
        paths = ["companion", "companion-arnoldi", "companion-arnoldi"]
        assert report.meta["eig_method"] == paths
        assert json.loads(report.to_json())["meta"]["eig_method"] == paths

    def test_secant_eigensolves_per_level(self):
        report = run_example(6, levels=(1, 2))
        paths = report.meta["eig_method"]
        assert [list(level) for level in paths] == [["dense"], ["arpack"]]
        assert all(count > 0 for level in paths for count in level.values())
        assert json.loads(report.to_json())["meta"]["eig_method"] == paths


class TestRunExample:
    def test_square_eigenvalue_anchors(self, ex3_report):
        lam1 = [r["value_re"] for r in ex3_report.rows if r["branch"] == 1]
        assert lam1[0] == pytest.approx(25.35774, rel=5e-4)
        assert lam1[1] == pytest.approx(23.39262, rel=5e-4)

    def test_source_error_anchors(self, ex1_report):
        errs = {(r["level"], r["norm"]): r["error"]
                for r in ex1_report.rows}
        assert errs[(1, "l2")] == pytest.approx(1.7668e-02, rel=1e-3)
        assert errs[(2, "l2")] == pytest.approx(1.4435e-03, rel=1e-3)
        assert ex1_report.meta["norm_kind"] == "error"

    def test_mesh_sizes_follow_offsets(self, ex1_report, ex9_report):
        assert ex1_report.meta["h"] == [0.25, 0.125]
        assert ex9_report.meta["h"] == [0.5, 0.25]

    def test_unknown_example(self):
        with pytest.raises(ValueError, match="valid numbers"):
            run_example(12)
        with pytest.raises(ValueError, match="valid numbers"):
            run_example("three")

    def test_alpha_requires_morley(self):
        with pytest.raises(ValueError, match="morley"):
            run_example(3, levels=(1,), alpha=0.5)

    @pytest.mark.parametrize("number", [1, 3, 6],
                             ids=["source", "bielastic", "tep"])
    def test_every_run_refuses_alpha_on_b3(self, number):
        with pytest.raises(ValueError,
                           match="alpha applies only to the morley element"):
            run_example(number, levels=(1,), alpha=0.3)

    def test_run_tep_tau_range_only_for_secant(self):
        with pytest.raises(ValueError, match="only to the secant method"):
            run_example(6, levels=(1,), method="quadratic",
                        tau_range=(50.0, 60.0))

    def test_method_only_for_transmission(self):
        with pytest.raises(ValueError, match="transmission"):
            run_example(3, levels=(1,), method="secant")

    def test_tau_range_only_for_transmission(self):
        with pytest.raises(ValueError, match="transmission"):
            run_example(1, levels=(1,), tau_range=(0.25, 9.0))

    def test_tau_range_only_for_secant(self):
        with pytest.raises(ValueError, match="secant"):
            run_example(9, levels=(1,), tau_range=(0.25, 9.0))

    def test_k_below_one(self):
        for number in (3, 6, 9):
            with pytest.raises(ValueError, match="at least 1"):
                run_example(number, levels=(1,), k=0)

    def test_tau_range_needs_finite_increasing_ends(self):
        for tau_range in ((5.0, 1.0), (3.0, 3.0), (float("nan"), 3.0),
                          (1.0, float("inf"))):
            with pytest.raises(ValueError, match="lo < hi"):
                run_example(6, levels=(1,), tau_range=tau_range)

    @pytest.mark.parametrize("lam, mu", [
        (-0.5, 0.25), (-1.0, 0.0), (0.25, 0.0), (float("nan"), 0.25),
        (0.25, float("inf")),
    ])
    def test_degenerate_lame_parameters(self, lam, mu):
        for number in (1, 3, 6):
            ex = dataclasses.replace(EXAMPLES[number], lam=lam, mu=mu)
            with pytest.raises(ValueError, match="Lame parameters"):
                run_example(ex, levels=(1,))

    def test_k_not_for_source(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            run_example(1, levels=(1,), k=4)

    def test_level_cap(self):
        with pytest.raises(ValueError, match="cap"):
            run_example(3, levels=(1, 5))
        with pytest.raises(ValueError, match="cap"):
            run_example(3, levels=(6,), big=True)


class TestLevelTiming:
    @pytest.mark.parametrize("number", [1, 3, 9])
    def test_seconds_include_building_the_space(self, number, monkeypatch):
        make = harness.make_realization

        def slow_make(mesh, element):
            time.sleep(0.2)
            return make(mesh, element)

        monkeypatch.setattr(harness, "make_realization", slow_make)
        report = run_example(number, levels=(1,))
        assert report.rows
        assert all(row["seconds"] >= 0.2 for row in report.rows)


class TestSelfTest:
    def test_passes_and_reports(self):
        stream = io.StringIO()
        assert self_test(stream=stream) is True
        text = stream.getvalue()
        assert "FAIL" not in text
        assert text.count("ok") >= 20
        assert "coefficient example1.f1" in text
        assert "mesh area" in text
