"""Release gate: every shipped benchmark target checked at its stated
tolerance, one test (and one pass/fail line under -v) per criterion.

Criteria that the faithful implementation cannot meet are kept as
strict expected failures with the measured numbers printed; the
reasons record what the code actually produces. Details live in the
README section on reference values and known deviations.
"""

import numpy as np
import pytest
import scipy.linalg

from bielastic.assembly import (
    bielastic_matrix,
    graddiv_matrix,
    hessian_matrix,
)
from bielastic.coefficients import Coefficient
from bielastic.eigen import eig_sym_constrained
from bielastic.harness import check_levels, eig_order, run_example
from bielastic.mesh import generate_domain
from bielastic.solvers import (
    TepBlocks,
    coefficient_range,
    find_teps_quadratic,
    find_teps_secant,
    fourth_order_block,
    make_realization,
    solve_bielastic_eigs,
)
from bielastic.spaces import BrokenSpace, vector_transform

from oracles import (
    curlrot_matrix,
    laplace_matrix,
    mixed_graddiv_curlrot_matrix,
)

LAM, MU = 0.25, 0.0625

# vector space dimensions recorded for the three h = 1/64 meshes
RECORDED_DIMS = {"unit-square": 50182, "right-triangle": 25350,
                 "l-shape": 47628}

# square-domain eigenvalue targets, six branches at levels 1-3
SQUARE_TABLE = {
    1: (25.35774, 23.39262, 23.18043),
    2: (53.59356, 50.42141, 50.004164),
    3: (61.04122, 51.06578, 50.058280),
    4: (109.18534, 105.40772, 103.491568),
    5: (120.81714, 106.74271, 105.122452),
    6: (130.19532, 106.74793, 105.253200),
}

EX4_LAMBDA1_L1 = 202.60084
EX5_LAMBDA1_L1 = 9158.98871

EX6_LAMBDA1 = 8.064689
EX7_LAMBDA1 = 2.172958
EX8_LAMBDA1 = 3.992401
EX9_PAIR = 3.612558 - 3.041481j


def note(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def lambda_series(report, branch):
    return [r["value_re"] for r in report.rows if r["branch"] == branch]


@pytest.fixture(scope="module")
def ex3_levels_1_to_4():
    return run_example(3, levels=(1, 2, 3, 4))


@pytest.fixture(scope="module")
def ex6_levels_1_to_3():
    return run_example(6, levels=(1, 2, 3))


@pytest.fixture(scope="module")
def ex9_levels_2_to_3():
    return run_example(9, levels=(2, 3))


@pytest.fixture(scope="module")
def square_identity_blocks(b3_oracle):
    mesh = generate_domain("unit-square", 1)
    space = BrokenSpace(mesh, 3)
    N = vector_transform(b3_oracle(mesh))
    red = lambda A: (N.T @ A @ N).toarray()
    return {
        "K": red(bielastic_matrix(space, None, LAM, MU)),
        "L": red(laplace_matrix(space)),
        "H": red(hessian_matrix(space)),
        "GD": red(graddiv_matrix(space)),
        "CR": red(curlrot_matrix(space)),
        "X": red(mixed_graddiv_curlrot_matrix(space)),
    }


@pytest.mark.xfail(
    strict=True,
    reason="recorded dimensions count all mesh vertices instead of "
           "interior ones, and the l-shape entry equals twice the "
           "right-triangle dimension; the constrained spaces built here "
           "are smaller",
)
def test_criterion_01_recorded_space_dimensions():
    got, recorded = {}, {}
    for domain, target in RECORDED_DIMS.items():
        mesh = generate_domain(domain, 5)
        assert mesh.h == pytest.approx(1.0 / 64.0)
        nvi = int(np.sum(~mesh.boundary_vertex))
        got[domain] = 2 * (4 * nvi + mesh.nt - 1)
        recorded[domain] = 2 * (4 * mesh.nv + mesh.nt - 1)
    # reconciliation: the all-vertices formula reproduces two of the
    # recorded values and the third is the doubled right-triangle count
    assert recorded["unit-square"] == RECORDED_DIMS["unit-square"]
    assert recorded["right-triangle"] == RECORDED_DIMS["right-triangle"]
    assert 2 * got["right-triangle"] == RECORDED_DIMS["l-shape"]
    note(1, got == RECORDED_DIMS,
         f"constrained dims {got} vs recorded {RECORDED_DIMS}")
    assert got == RECORDED_DIMS


def test_criterion_02_square_eigenvalue_table(ex3_levels_1_to_4):
    worst = 0.0
    for branch, targets in SQUARE_TABLE.items():
        values = lambda_series(ex3_levels_1_to_4, branch)[:3]
        for value, target in zip(values, targets):
            worst = max(worst, abs(value - target) / target)
    note(2, worst <= 5e-4,
         f"six branches at levels 1-3, worst relative deviation {worst:.2e}")
    assert worst <= 5e-4


def test_criterion_03_weighted_and_triangle_lambda1():
    v4 = lambda_series(run_example(4, levels=(1,)), 1)[0]
    v5 = lambda_series(run_example(5, levels=(1,)), 1)[0]
    d4 = abs(v4 - EX4_LAMBDA1_L1) / EX4_LAMBDA1_L1
    d5 = abs(v5 - EX5_LAMBDA1_L1) / EX5_LAMBDA1_L1
    note(3, max(d4, d5) <= 5e-4,
         f"lambda_1 level 1: {v4:.5f} (dev {d4:.1e}) and {v5:.5f} "
         f"(dev {d5:.1e})")
    assert d4 <= 5e-4
    assert d5 <= 5e-4


def test_criterion_04_source_convergence_orders():
    targets = {"l2": 4.0, "h1": 3.0, "h2": 2.0}
    details = []
    ok = True
    for number in (1, 2):
        report = run_example(number, levels=(2, 3, 4))
        hs = np.log2(report.meta["h"])
        for norm, target in targets.items():
            errs = [r["error"] for r in report.rows if r["norm"] == norm]
            slope = np.polyfit(hs, np.log2(errs), 1)[0]
            ok &= abs(slope - target) <= 0.3
            details.append(f"example{number} {norm} {slope:.3f}")
    note(4, ok, "levels 2-4 slopes " + ", ".join(details))
    assert ok


def test_criterion_05_eigenvalue_order_window(ex3_levels_1_to_4):
    values = lambda_series(ex3_levels_1_to_4, 1)
    orders = eig_order(values, ref=values[-1])
    usable = [o for o in orders if not isinstance(o, str)]
    final = usable[-1]
    note(5, 3.3 <= final <= 4.2,
         f"lambda_1 order against the level-4 reference: {final:.4f}")
    assert 3.3 <= final <= 4.2


def test_criterion_06_transmission_anchors(ex6_levels_1_to_3):
    v6 = lambda_series(ex6_levels_1_to_3, 1)
    d6 = abs(v6[-1] - EX6_LAMBDA1) / EX6_LAMBDA1
    monotone = v6[0] > v6[1] > v6[2] > EX6_LAMBDA1
    v7 = lambda_series(run_example(7, levels=(3,)), 1)[0]
    v8 = lambda_series(run_example(8, levels=(3,)), 1)[0]
    d7 = abs(v7 - EX7_LAMBDA1) / EX7_LAMBDA1
    d8 = abs(v8 - EX8_LAMBDA1) / EX8_LAMBDA1
    ok = d6 <= 0.01 and monotone and d7 <= 0.02 and d8 <= 0.02
    note(6, ok,
         f"Lambda_1 sequences: square {v6} (dev {d6:.2%}, monotone "
         f"{monotone}), affine-density {v7:.6f} (dev {d7:.2%}), "
         f"triangle {v8:.6f} (dev {d8:.2%})")
    assert d6 <= 0.01
    assert monotone
    assert d7 <= 0.02
    assert d8 <= 0.02
    # the level-5 rerun stays gated behind the big flag
    with pytest.raises(ValueError, match="cap"):
        run_example(6, levels=(1, 2, 3, 4, 5))
    assert check_levels([5], big=True) == (5,)


def test_criterion_07_complex_pair(ex9_levels_2_to_3):
    pairs = {}
    for level in (2, 3):
        rows = {r["branch"]: r for r in ex9_levels_2_to_3.rows
                if r["level"] == level}
        v1 = complex(rows[1]["value_re"], rows[1]["value_im"])
        v2 = complex(rows[2]["value_re"], rows[2]["value_im"])
        assert abs(v1 - v2.conjugate()) <= 1e-8 * abs(v1)
        pairs[level] = v1
    dev = {lvl: abs(pairs[lvl] - EX9_PAIR) / abs(EX9_PAIR)
           for lvl in (2, 3)}
    ok = dev[3] <= 0.05 and dev[3] < dev[2]
    note(7, ok,
         f"level-3 pair {pairs[3]:.6f} dev {dev[3]:.2%}, level-2 dev "
         f"{dev[2]:.2%}")
    assert dev[3] <= 0.05
    assert dev[3] < dev[2]


def test_criterion_08_identities_and_lower_bound(square_identity_blocks):
    b = square_identity_blocks
    scale = np.abs(b["K"]).max()
    lemma21 = np.abs(b["L"] - b["H"]).max() / np.abs(b["L"]).max()
    lemma22 = np.abs(b["X"]).max() / np.abs(b["GD"]).max()
    split = np.abs(b["L"] - b["GD"] - b["CR"]).max() / np.abs(b["L"]).max()
    lower = np.linalg.eigvalsh(b["K"] - MU ** 2 * b["L"]).min() / scale
    ok = lemma21 <= 1e-10 and lemma22 <= 1e-10 and split <= 1e-10 \
        and lower >= -1e-9
    note(8, ok,
         f"laplace-vs-hessian {lemma21:.1e}, mixed-term {lemma22:.1e}, "
         f"laplacian split {split:.1e}, lower-bound min eig {lower:.1e}")
    assert lemma21 <= 1e-10
    assert lemma22 <= 1e-10
    assert split <= 1e-10
    assert lower >= -1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the recorded upper-bound and decomposition constant "
           "(lam+mu)^2 is too small for the stress-divergence form; the "
           "matrices satisfy the same statements with (lam+2mu)^2, which "
           "the non-gating assertions verify",
)
def test_criterion_08_stated_upper_bound(square_identity_blocks):
    b = square_identity_blocks
    scale = np.abs(b["K"]).max()
    corrected_gap = np.abs(
        b["K"] - MU ** 2 * b["L"]
        - ((LAM + 2 * MU) ** 2 - MU ** 2) * b["GD"]
    ).max() / scale
    corrected_upper = np.linalg.eigvalsh(
        (LAM + 2 * MU) ** 2 * b["L"] - b["K"]
    ).min() / scale
    assert corrected_gap <= 1e-10
    assert corrected_upper >= -1e-9
    stated_gap = np.abs(
        b["K"] - MU ** 2 * b["L"] - ((LAM + MU) ** 2 - MU ** 2) * b["GD"]
    ).max() / scale
    stated_upper = np.linalg.eigvalsh(
        (LAM + MU) ** 2 * b["L"] - b["K"]
    ).min() / scale
    ok = stated_gap <= 1e-10 and stated_upper >= -1e-9
    note(8, ok,
         f"stated constant: decomposition gap {stated_gap:.2e}, upper "
         f"min eig {stated_upper:.2e}; corrected constant: gap "
         f"{corrected_gap:.1e}, upper min eig {corrected_upper:.1e}")
    assert stated_gap <= 1e-10
    assert stated_upper >= -1e-9


def test_criterion_09_cross_method_oracle():
    real = make_realization(generate_domain("unit-square", 1), "b3")
    blocks = TepBlocks(real, 0.25, 0.25, 0.05, 3.0)
    secant = find_teps_secant(blocks, k=8)
    quad = find_teps_quadratic(blocks, k=60)
    real_vals = quad.values[np.abs(quad.values.imag) <= 1e-8].real
    real_vals = np.sort(real_vals[real_vals > 0])
    worst = 0.0
    for root in secant[:4]:
        nearest = real_vals[np.argmin(np.abs(real_vals - root.tau))]
        worst = max(worst, abs(nearest - root.tau) / root.tau)

    a, m = blocks.KD, blocks.KM
    assert a.shape[0] <= 500
    want = scipy.linalg.eigh(a.toarray(), m.toarray(),
                             subset_by_index=[0, 5])[0]
    got = eig_sym_constrained(a, m, 6)
    dense_dev = float(np.max(np.abs(got.values - want) / np.abs(want)))
    ok = worst <= 1e-8 and dense_dev <= 1e-9 and got.method == "arpack"
    note(9, ok,
         f"secant vs companion worst {worst:.2e} over four roots; "
         f"{got.method} vs dense eigh (dim {a.shape[0]}) worst "
         f"{dense_dev:.2e}")
    assert worst <= 1e-8
    assert got.method == "arpack"
    assert dense_dev <= 1e-9


def morley_setup():
    beta = Coefficient.affine(8.0, 1.0, -1.0)
    coarse = make_realization(generate_domain("unit-square", 1), "morley")
    fine = make_realization(generate_domain("unit-square", 2), "morley")
    bmin = coefficient_range(coarse.space, beta)[0]
    return beta, coarse, fine, bmin


def test_criterion_10_morley_spd_and_sensitivity():
    beta, coarse, _, bmin = morley_setup()
    lam1 = {}
    min_eigs = {}
    for frac in (0.25, 0.5, 0.75):
        alpha = frac * bmin
        K = coarse.reduced(
            fourth_order_block(coarse, beta, LAM, MU, alpha=alpha)
        ).toarray()
        min_eigs[frac] = float(np.linalg.eigvalsh(K)[0])
        lam1[frac] = float(
            solve_bielastic_eigs(coarse, beta, LAM, MU, 1,
                                 alpha=alpha).values[0]
        )
    spd = all(v > 0 for v in min_eigs.values())
    fracs = (0.25, 0.5, 0.75)
    gaps = [abs(lam1[a] - lam1[b]) / lam1[b]
            for a, b in zip(fracs, fracs[1:])]
    sensitive = all(g > 1e-6 for g in gaps)
    note(10, spd and sensitive,
         f"min eigenvalues {min_eigs}, lambda_1 per alpha {lam1}")
    assert spd
    assert sensitive


@pytest.mark.xfail(
    strict=True,
    reason="the stabilized pairs approximate the spectrum from below, so "
           "lambda_1 rises toward the limit under refinement instead of "
           "decreasing",
)
def test_criterion_10_morley_refinement_trend():
    beta, coarse, fine, bmin = morley_setup()
    trend = {}
    for frac in (0.25, 0.5, 0.75):
        alpha = frac * bmin
        a = float(solve_bielastic_eigs(coarse, beta, LAM, MU, 1,
                                       alpha=alpha).values[0])
        b = float(solve_bielastic_eigs(fine, beta, LAM, MU, 1,
                                       alpha=alpha).values[0])
        trend[frac] = (a, b)
    decreases = all(b < a for a, b in trend.values())
    note(10, decreases, f"lambda_1 coarse vs refined per alpha: {trend}")
    assert decreases
