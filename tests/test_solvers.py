"""Driver-level checks: source solves, fourth-order eigensolves, the
spectral function, and both transmission-eigenvalue paths."""

import importlib
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sparse

import bielastic.eigen as eigen
import bielastic.solvers as solvers
from bielastic.assembly import load_vector, mass_matrix
from bielastic.coefficients import Coefficient, combine
from bielastic.eigen import (
    eig_quadratic,
    eig_sym_constrained,
    solve_sym_constrained,
)
from bielastic.harness import EXAMPLES, SCAN_BRANCHES
from bielastic.mesh import generate_domain
from bielastic.solvers import (
    B3Realization,
    MorleyRealization,
    TepBlocks,
    coefficient_range,
    detect_density_case,
    find_teps_quadratic,
    find_teps_secant,
    fourth_order_block,
    make_realization,
    solve_bielastic_eigs,
    solve_source,
)

from oracles import sorted_complex

LAM, MU = 0.25, 0.0625


@pytest.fixture(scope="module")
def b3_sq1():
    return B3Realization(generate_domain("unit-square", 1))


@pytest.fixture(scope="module")
def b3_sq2():
    """Above ``eigen.ROOT_DENSE_ORDER`` (n = 646), so the spectral
    function runs Lanczos against the root of KB."""
    return B3Realization(generate_domain("unit-square", 2))


@pytest.fixture(scope="module")
def morley_sq1():
    return MorleyRealization(generate_domain("unit-square", 1))


@pytest.fixture(scope="module")
def ex6_blocks(b3_sq1):
    return TepBlocks(b3_sq1, 0.25, 0.25, 1.0 / 20.0, 3.0)


class TestRealizations:
    def test_factory(self):
        mesh = generate_domain("unit-square", 1)
        assert make_realization(mesh, "b3").element == "b3"
        assert make_realization(mesh, "morley").element == "morley"
        with pytest.raises(ValueError):
            make_realization(mesh, "p1")

    def test_dof_counts(self, b3_sq1, morley_sq1):
        mesh = b3_sq1.mesh
        nvi = int(np.sum(~mesh.boundary_vertex))
        nei = int(np.sum(~mesh.boundary_edge))
        assert b3_sq1.dofs == 2 * (4 * nvi + mesh.nt - 1)
        assert morley_sq1.dofs == 2 * (nvi + nei)

    def test_morley_solve_and_eig_match_dense_oracles(self):
        ex = EXAMPLES[3]
        mesh = generate_domain(ex.domain, 1 + ex.mesh_offset)
        real = MorleyRealization(mesh)
        A = fourth_order_block(real, ex.beta, ex.lam, ex.mu)
        f = load_vector(real.space, lambda x, y: np.sin(np.pi * x) * y,
                        lambda x, y: x * (1 - y))
        KA, KM = real.reduced(A), real.reduced(mass_matrix(real.space))
        want = real.lift @ np.linalg.solve(KA.toarray(), real.lift.T @ f)
        got = real.lift @ solve_sym_constrained(KA, real.lift.T @ f)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        res = eig_sym_constrained(KA, KM, 6)
        ref = dla.eigh(KA.toarray(), KM.toarray(), subset_by_index=[0, 5],
                       eigvals_only=True)
        assert res.method == "arpack"
        assert res.values == pytest.approx(ref, rel=1e-10, abs=0)


class TestSourceProblem:
    def test_zero_load_gives_zero(self, b3_sq1):
        # the backward-error check passes x = 0 without dividing 0 by 0
        zero = lambda x, y: np.zeros_like(x)
        with np.errstate(divide="raise", invalid="raise"):
            res = solve_source(b3_sq1, 1.0, LAM, MU, zero, zero)
        assert np.abs(res.broken).max() == 0.0

    def test_solution_scales_linearly(self, b3_sq1):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        f2 = lambda x, y: 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
        zero = lambda x, y: np.zeros_like(x)
        u1 = solve_source(b3_sq1, 1.0, LAM, MU, f, zero).broken
        u2 = solve_source(b3_sq1, 1.0, LAM, MU, f2, zero).broken
        assert np.allclose(u2, 2.0 * u1, atol=1e-10 * np.abs(u1).max())

    def test_morley_source_runs(self, morley_sq1):
        f = lambda x, y: np.ones_like(x)
        zero = lambda x, y: np.zeros_like(x)
        res = solve_source(morley_sq1, 1.0, LAM, MU, f, zero, alpha=0.5)
        assert res.broken.shape == (2 * morley_sq1.space.mesh.nt * 6,)
        assert np.abs(res.broken).max() > 0


class TestFourthOrderBlock:
    def test_morley_source_defaults_alpha(self):
        ex = EXAMPLES[1]
        real = MorleyRealization(generate_domain(ex.domain, ex.mesh_offset))
        half = 0.5 * coefficient_range(real.space, ex.beta)[0]
        got = solve_source(real, ex.beta, ex.lam, ex.mu, *ex.loads)
        want = solve_source(real, ex.beta, ex.lam, ex.mu, *ex.loads,
                            alpha=half)
        assert np.array_equal(got.broken, want.broken)

    def test_alpha_range_enforced(self, morley_sq1):
        with pytest.raises(ValueError, match="range"):
            fourth_order_block(morley_sq1, 1.0, LAM, MU, alpha=1.5)
        with pytest.raises(ValueError, match="range"):
            fourth_order_block(morley_sq1, 1.0, LAM, MU, alpha=-0.1)
        fourth_order_block(morley_sq1, 1.0, LAM, MU, alpha=1.0,
                           inclusive=True)

    def test_morley_stabilized_block_is_spd(self, morley_sq1):
        K = fourth_order_block(morley_sq1, 1.0, LAM, MU, alpha=0.5)
        Kred = morley_sq1.reduced(K).toarray()
        ev = np.linalg.eigvalsh(Kred)
        assert ev.min() > 0

    def test_default_alpha_is_half_min(self, morley_sq1):
        beta = Coefficient.affine(8.0, 1.0, -1.0)
        half = 0.5 * coefficient_range(morley_sq1.space, beta)[0]
        got = fourth_order_block(morley_sq1, beta, LAM, MU)
        want = fourth_order_block(morley_sq1, beta, LAM, MU, alpha=half)
        assert (got != want).nnz == 0


class TestBielasticEigs:
    def test_b3_eigs_positive_and_sorted(self, b3_sq1):
        res = solve_bielastic_eigs(b3_sq1, 1.0, LAM, MU, 6)
        assert res.values[0] > 0
        assert np.all(np.diff(res.values) >= -1e-10)

    def test_morley_eigs_positive(self, morley_sq1):
        res = solve_bielastic_eigs(morley_sq1, 1.0, LAM, MU, 6)
        assert res.values[0] > 0

    def test_morley_alpha_sensitivity(self, morley_sq1):
        r1 = solve_bielastic_eigs(morley_sq1, 1.0, LAM, MU, 3, alpha=0.3)
        r2 = solve_bielastic_eigs(morley_sq1, 1.0, LAM, MU, 3, alpha=0.7)
        assert not np.allclose(r1.values, r2.values, rtol=1e-6)

    def test_a_non_positive_value_is_refused(self, b3_sq1, monkeypatch):
        eig = solvers.eig_sym_constrained

        def spoiled(A, B, k):
            res = eig(A, B, k)
            res.values[0] = -res.values[0]
            return res
        monkeypatch.setattr(solvers, "eig_sym_constrained", spoiled)
        with pytest.raises(RuntimeError,
                           match=r"non-positive eigenvalue -\d"):
            solve_bielastic_eigs(b3_sq1, 1.0, LAM, MU, 3)


class TestDensityCases:
    def test_detect_standard(self, b3_sq1):
        assert detect_density_case(b3_sq1.space, 0.05, 3.0) == "standard"

    def test_detect_swapped(self, b3_sq1):
        assert detect_density_case(b3_sq1.space, 3.0, 0.05) == "swapped"

    def test_intersecting_rejected(self, b3_sq1):
        with pytest.raises(ValueError, match="ordering"):
            detect_density_case(b3_sq1.space, 0.5, 0.9)
        with pytest.raises(ValueError, match="ordering"):
            detect_density_case(
                b3_sq1.space,
                Coefficient.affine(0.5, 1.0, 0.0),
                Coefficient.constant(3.0),
            )


class TestSpectralFunction:
    def test_lambda_at_zero_positive(self, ex6_blocks):
        vals = ex6_blocks.lambda_of_tau(0.0, 6)
        assert vals[0] > 0
        assert np.all(np.diff(vals) >= -1e-10)

    def test_nonlinear_function_changes_sign_once(self, ex6_blocks):
        probes = [1.0, 4.0, 8.0, 12.0]
        f1 = [ex6_blocks.lambda_of_tau(t, 1)[0] - t for t in probes]
        signs = np.sign(f1)
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1

    def test_repeated_tau_factors_once(self, b3_sq2, monkeypatch):
        blocks = TepBlocks(b3_sq2, 0.25, 0.25, 1.0 / 20.0, 3.0)
        factors = []
        init = eigen.ConstrainedOperator.__init__

        def counting_init(self, K):
            factors.append(K.shape)
            init(self, K)

        monkeypatch.setattr(eigen.ConstrainedOperator, "__init__",
                            counting_init)
        first = blocks.lambda_of_tau(2.5, 4)
        second = blocks.lambda_of_tau(np.float64(2.5), 4)
        assert len(factors) == 1
        assert np.array_equal(first, second)

    def test_warm_start_saves_kkt_solves(self, b3_sq2, monkeypatch):
        solves = []
        solve = eigen.ConstrainedOperator.solve

        def counting_solve(self, b):
            solves.append(b.size)
            return solve(self, b)

        monkeypatch.setattr(eigen.ConstrainedOperator, "solve",
                            counting_solve)
        warm = TepBlocks(b3_sq2, 0.25, 0.25, 1.0 / 20.0, 3.0)
        warm.lambda_of_tau(2.5, SCAN_BRANCHES)
        solves.clear()
        warm_values = warm.lambda_of_tau(2.6, SCAN_BRANCHES)
        warm_solves = len(solves)
        cold = TepBlocks(b3_sq2, 0.25, 0.25, 1.0 / 20.0, 3.0)
        solves.clear()
        cold_values = cold.lambda_of_tau(2.6, SCAN_BRANCHES)
        assert warm_solves < len(solves)
        assert np.allclose(warm_values, cold_values, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("element", ["b3", "morley"])
    def test_evaluation_is_one_arpack_call_per_solve(self, monkeypatch,
                                                     element):
        """Against the level's root of KB, above ``ROOT_DENSE_ORDER``, each
        Lanczos step is one ARPACK reverse-communication call and one
        solve, the eigenvector recovery's block solve pairing with ARPACK's
        closing call, and the only KB product is the residual check's."""
        blocks = _example_blocks(6, 3, element)
        blocks.lambda_of_tau(2.5, SCAN_BRANCHES)
        products = []
        matrix = blocks._kb_root.matrix

        class Counting:
            def __matmul__(self, x):
                products.append(x.shape)
                return matrix @ x

        monkeypatch.setattr(blocks._kb_root, "matrix", Counting())
        counts = Counter()
        arpack = importlib.import_module(
            "scipy.sparse.linalg._eigen.arpack.arpack")
        for owner, name in ((arpack._SymmetricArpackParams, "iterate"),
                            (eigen.ConstrainedOperator, "solve")):
            def counting(self, *args, _orig=getattr(owner, name), _name=name):
                counts[_name] += 1
                return _orig(self, *args)
            monkeypatch.setattr(owner, name, counting)
        blocks.lambda_of_tau(2.6, SCAN_BRANCHES)
        assert blocks.eig_methods == {"arpack": 2}
        assert counts["solve"] > 1
        assert counts["iterate"] == counts["solve"]
        assert products == [(blocks.real.dofs, SCAN_BRANCHES)]

    def test_eig_methods_count_the_eigensolves(self, b3_sq2):
        blocks = TepBlocks(b3_sq2, 0.25, 0.25, 1.0 / 20.0, 3.0)
        for tau in (0.0, 1.5, 1.5, 3.0):
            blocks.lambda_of_tau(tau, 6)
        assert blocks.eig_methods == {"arpack": 3}

    def test_tau_quadratic_form_value(self, ex6_blocks):
        rng = np.random.default_rng(4)
        n = ex6_blocks.KD.shape[0]
        x = rng.standard_normal(n)
        tau = 2.5
        direct = x @ (ex6_blocks.a_tau(tau) @ x)
        parts = (
            x @ (ex6_blocks.KD @ x)
            + tau * (x @ (ex6_blocks.KF @ x))
            + tau**2 * (x @ (ex6_blocks.KM @ x))
        )
        assert direct == pytest.approx(parts, rel=1e-12)

    def test_tau_form_is_the_sparse_sum(self, ex6_blocks):
        b = ex6_blocks
        for tau in (0.0, 2.5, -7.25):
            A = b.a_tau(tau)
            ref = (b.KD + tau * b.KF + tau * tau * b.KM).tocsr()
            assert np.array_equal(A.toarray(), ref.toarray())
            assert A.nnz >= ref.nnz
            assert (A != A.T).nnz == 0


class TestTepSecant:
    def test_roots_found_and_certified(self, ex6_blocks):
        roots = find_teps_secant(ex6_blocks, k=8)
        assert len(roots) >= 2
        for root in roots:
            assert root.residual <= 1e-9 * (1 + abs(root.tau))
        taus = [r.tau for r in roots]
        assert taus == sorted(taus)

    def test_case_symmetry(self, b3_sq1, ex6_blocks):
        swapped = TepBlocks(b3_sq1, 0.25, 0.25, 3.0, 1.0 / 20.0)
        assert swapped.case == "swapped"
        r1 = find_teps_secant(ex6_blocks, k=6)
        r2 = find_teps_secant(swapped, k=6)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a.tau == pytest.approx(b.tau, rel=1e-9)

    def test_empty_scan_warns(self, ex6_blocks):
        with pytest.warns(RuntimeWarning, match="no transmission"):
            roots = find_teps_secant(
                ex6_blocks, k=2, tau_lo=0.26, tau_hi=0.40
            )
        assert roots == []


def _example_blocks(number, level, element="b3"):
    ex = EXAMPLES[number]
    mesh = generate_domain(ex.domain, level - 1 + ex.mesh_offset)
    return TepBlocks(make_realization(mesh, element), ex.lam, ex.mu,
                     ex.rho0, ex.rho1)


@pytest.mark.parametrize("number", [6, 7, 8, 9])
def test_tau_mass_is_the_sum_of_both_mass_forms(number):
    """KM = Mass(r lo hi) equals Mass(r lo^2 + lo), the tau^2 block the
    tau-form was first written with, since r lo^2 + lo = r lo hi."""
    blocks = _example_blocks(number, 1)
    ex = EXAMPLES[number]
    lo, hi = ((ex.rho0, ex.rho1) if blocks.case == "standard"
              else (ex.rho1, ex.rho0))
    r = combine("div", 1.0, combine("sub", hi, lo))
    weight = combine("add", combine("mul", r, combine("mul", lo, lo)), lo)
    ref = blocks.real.reduced(mass_matrix(blocks.real.space, weight))
    assert abs(blocks.KM - ref).max() <= 1e-13 * abs(ref).max()


class TestSecantScanOracle:
    """Every spectral-function evaluation of a full secant scan, each
    started from the previous evaluation's eigenvectors, against a dense
    ``eigh`` of the same pencil.  Orders at or below
    ``eigen.ROOT_DENSE_ORDER`` take the dense standard ``eigh`` against
    the root of KB, the level-3 cases (n = 646, 454 and Morley's 450)
    its Lanczos sweep."""

    @pytest.mark.parametrize("number, level, element", [
        *(pytest.param(number, level, "b3", id=f"{number}-{level}")
          for number, level in ((6, 1), (6, 2), (6, 3), (7, 1), (7, 2),
                                (8, 1), (8, 2), (9, 2), (9, 3))),
        pytest.param(6, 2, "morley", id="6-2-morley"),
        pytest.param(6, 3, "morley", id="6-3-morley", marks=pytest.mark.xfail(
            strict=True, reason=(
                "Lanczos from the cold start at tau = 0 misses lambda_12 "
                "and lambda_13 and returns lambda_14 in their place, as "
                "the generalized-mode run does; the scan's other 105 "
                "evaluations are right"
            ))),
    ])
    def test_every_evaluation_matches_dense_reduction(self, number, level,
                                                      element):
        blocks = _example_blocks(number, level, element)
        seen = []
        lambda_of_tau = blocks.lambda_of_tau

        def recording(tau, k):
            values = lambda_of_tau(tau, k)
            seen.append((tau, values))
            return values

        blocks.lambda_of_tau = recording
        find_teps_secant(blocks, k=SCAN_BRANCHES)
        k = min(SCAN_BRANCHES, blocks.real.dofs)
        Bz = blocks.KB.toarray()
        for tau, values in seen:
            Az = blocks.a_tau(tau).toarray()
            ref = dla.eigh(Az, Bz, subset_by_index=[0, k - 1],
                           eigvals_only=True)
            assert values == pytest.approx(ref, rel=1e-9, abs=0)


class TestTepQuadratic:
    def test_real_roots_match_secant(self, ex6_blocks):
        secant = find_teps_secant(ex6_blocks, k=8)
        quad = find_teps_quadratic(ex6_blocks, k=40)
        real_vals = np.sort(
            quad.values[np.abs(quad.values.imag) <= 1e-8].real
        )
        real_vals = real_vals[real_vals > 0]
        for root in secant[:4]:
            nearest = real_vals[np.argmin(np.abs(real_vals - root.tau))]
            assert nearest == pytest.approx(root.tau, rel=1e-8)

    def test_conjugate_pairs(self, ex6_blocks):
        quad = find_teps_quadratic(ex6_blocks, k=60)
        vals = quad.values
        cvals = vals[np.abs(vals.imag) > 1e-8]
        for v in cvals:
            assert np.min(np.abs(cvals - np.conj(v))) <= 1e-8 * (1 + abs(v))


@pytest.mark.parametrize("element", ["b3", "morley"])
def test_quadratic_path_reduces_each_form_once(monkeypatch, element):
    """TepBlocks keeps only the reduced blocks, and the companion solve
    works from them without reducing a form again, nor preparing what
    the secant scan's evaluations share."""
    blocks = _example_blocks(9, 1, element)
    assert not hasattr(blocks, "broken")
    calls = []
    monkeypatch.setattr(type(blocks.real), "reduced",
                        lambda self, A: calls.append(A.shape))
    monkeypatch.setattr(solvers, "SpdRoot", lambda B: calls.append(B.shape))
    res = find_teps_quadratic(blocks, 4)
    assert calls == []
    assert res.values.size == 4
    assert "_kb_root" not in vars(blocks) and "_terms" not in vars(blocks)


def test_b3_companion_blocks_are_exactly_symmetric(monkeypatch):
    """Rounding in the Galerkin products would break the symmetry of the
    forms and can move a multiple real eigenvalue off the real axis
    (example 9, level 1); ``reduced`` symmetrizes, on both elements."""
    handed = []
    monkeypatch.setattr(solvers, "eig_quadratic",
                        lambda *args: handed.append(args[:3]))
    for element in ("b3", "morley"):
        find_teps_quadratic(_example_blocks(9, 1, element), 10)
    assert len(handed) == 2
    for blocks in handed:
        for A in blocks:
            A = A.toarray()
            assert np.array_equal(A, A.T)


@pytest.fixture
def dense_copies(monkeypatch):
    """Record the shape of every sparse matrix made dense."""
    made_dense = []
    for cls in (sparse.csr_matrix, sparse.csc_matrix):
        def spy(self, *args, _orig=cls.toarray, **kwargs):
            made_dense.append(self.shape)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, "toarray", spy)
    return made_dense


@pytest.mark.parametrize("element", ["b3", "morley"])
def test_arnoldi_path_makes_no_dense_block(monkeypatch, dense_copies,
                                           element):
    """The companion cap bounds the dense QZ alone: a pencil over it is
    solved by shift-invert Arnoldi on its sparse reduced blocks."""
    blocks = _example_blocks(9, 2, element)
    monkeypatch.setattr(eigen, "COMPANION_CAP", 2 * blocks.real.dofs - 2)
    res = find_teps_quadratic(blocks, 10)
    assert res.method == "companion-arnoldi"
    assert res.values.size == 10
    assert dense_copies == []


@pytest.mark.parametrize("element", ["b3", "morley"])
def test_qz_over_cap_is_refused_before_any_dense_block(monkeypatch,
                                                       dense_copies,
                                                       element):
    """Every eigenvalue asks for the dense QZ; a pencil over the companion
    cap is refused while its reduced blocks are still sparse."""
    blocks = _example_blocks(9, 2, element)
    monkeypatch.setattr(eigen, "COMPANION_CAP", 2 * blocks.real.dofs - 2)
    with pytest.raises(ValueError, match="companion dimension"):
        find_teps_quadratic(blocks, None)
    assert dense_copies == []


def _dense_pencil(blocks):
    """Dense copies of the K, C, M that ``find_teps_quadratic`` hands to
    ``eig_quadratic``."""
    return (blocks.KD.toarray(), (blocks.KF - blocks.KB).toarray(),
            blocks.KM.toarray())


def _qz_values(K, C, M):
    """Every finite eigenvalue of the companion pencil by one dense QZ,
    in the order of ``eig_quadratic``."""
    n = K.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    vals = dla.eigvals(np.block([[-C, -K], [eye, zero]]),
                       np.block([[M, zero], [zero, eye]]))
    vals = vals[np.isfinite(vals)]
    return vals[np.lexsort((vals.imag, np.abs(vals)))]


@pytest.fixture(scope="module")
def tep_pencils():
    """Dense pencil and QZ eigenvalues of a built-in transmission example
    at one level, built on first use."""
    cache = {}

    def get(number, level):
        if (number, level) not in cache:
            pencil = _dense_pencil(_example_blocks(number, level))
            cache[number, level] = pencil, _qz_values(*pencil)
        return cache[number, level]

    return get


class TestTepArnoldi:
    """Shift-invert Arnoldi on the companion pencil against the dense QZ
    of the whole pencil."""

    @pytest.mark.parametrize("k", [10, 20])
    @pytest.mark.parametrize("number, level", [
        (number, level) for number in (6, 7, 8, 9) for level in (2, 3)
    ])
    def test_matches_qz(self, monkeypatch, tep_pencils, number, level, k):
        """At level 3 the companion cap sits below the pencil's companion
        order, which bounds only the QZ."""
        (K, C, M), ref = tep_pencils(number, level)
        if level == 3:
            monkeypatch.setattr(eigen, "COMPANION_CAP", 2 * K.shape[0] - 2)
        res = eig_quadratic(K, C, M, k)
        assert res.method == "companion-arnoldi"
        got = sorted_complex(res.values)
        want = sorted_complex(ref[:k])
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
        # the last value may be a pair member whose partner is cut off
        head = res.values[:-1]
        for v in head[np.abs(head.imag) > 1e-8 * np.abs(head)]:
            assert np.min(np.abs(res.values - np.conj(v))) <= 1e-8 * abs(v)

    @pytest.mark.parametrize("k", [10, 20])
    def test_duplicated_pencil_returns_every_copy(self, tep_pencils, k):
        (K, C, M), ref = tep_pencils(9, 3)
        twice = [dla.block_diag(A, A) for A in (K, C, M)]
        res = eig_quadratic(*twice, k)
        assert res.method == "companion-arnoldi"
        got = sorted_complex(res.values)
        want = sorted_complex(np.repeat(ref, 2)[:k])
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


class TestTepMorley:
    def test_pipeline_runs_with_default_alpha(self, morley_sq1):
        blocks = TepBlocks(morley_sq1, 0.25, 0.25, 1.0 / 20.0, 3.0)
        explicit = TepBlocks(morley_sq1, 0.25, 0.25, 1.0 / 20.0, 3.0,
                             alpha=0.5 / (3.0 - 1.0 / 20.0))
        assert (blocks.KD != explicit.KD).nnz == 0
        vals = blocks.lambda_of_tau(0.0, 4)
        assert vals[0] > 0

    def test_alpha_sensitivity(self, morley_sq1):
        rho_min = 1.0 / (3.0 - 1.0 / 20.0)
        b1 = TepBlocks(morley_sq1, 0.25, 0.25, 1.0 / 20.0, 3.0,
                       alpha=0.3 * rho_min)
        b2 = TepBlocks(morley_sq1, 0.25, 0.25, 1.0 / 20.0, 3.0,
                       alpha=0.9 * rho_min)
        v1 = b1.lambda_of_tau(1.0, 3)
        v2 = b2.lambda_of_tau(1.0, 3)
        assert not np.allclose(v1, v2, rtol=1e-6)
