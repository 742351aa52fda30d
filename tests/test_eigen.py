"""Eigen/linear-solver layer checks against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import bielastic.eigen as eigen
from bielastic.assembly import bielastic_matrix, load_vector, mass_matrix
from bielastic.eigen import (
    ConstrainedOperator,
    SpdRoot,
    eig_quadratic,
    eig_sym_constrained,
    norm1,
    solve_sym_constrained,
)
from bielastic.harness import EXAMPLES, run_example
from bielastic.mesh import generate_domain
from bielastic.solvers import (
    B3Realization,
    TepBlocks,
    fourth_order_block,
    make_realization,
)
from bielastic.spaces import vector_transform

from oracles import sorted_complex

LAM, MU = 0.25, 0.0625


def backward_error(K, b, x):
    """The normwise backward error of x as a solution of K x = b, in the
    1-norm."""
    return np.abs(b - K @ x).sum() / (norm1(K) * np.abs(x).sum()
                                      + np.abs(b).sum())


def random_spd(rng, n, density=0.4):
    R = sparse.random(n, n, density=density, random_state=rng, format="csr")
    A = R @ R.T + n * sparse.eye(n)
    return sparse.csr_matrix(A)


class TestSolveSym:
    """The direct solve of a symmetric positive definite matrix."""

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        x = solve_sym_constrained(sparse.eye(3, format="csr"), b)
        assert np.allclose(x, b)

    def test_diagonal(self):
        A = sparse.diags([2.0, 4.0]).tocsr()
        x = solve_sym_constrained(A, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_random_spd_residuals(self):
        rng = np.random.default_rng(11)
        for n in (5, 12, 30, 60):
            A = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = solve_sym_constrained(A, b)
            assert backward_error(A, b, x) <= eigen.BACKWARD_ERROR_BOUND
            assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("element", ["b3", "morley"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_check_rejects_a_perturbed_solution(self, monkeypatch, element,
                                                level):
        # example 1's source system; a random perturbation of x of
        # relative size 1e-10 raises the backward error far over the
        # bound, which the solution itself stays far under
        ex = EXAMPLES[1]
        mesh = generate_domain(ex.domain, level - 1 + ex.mesh_offset)
        real = make_realization(mesh, element)
        K = real.reduced(fourth_order_block(real, ex.beta, ex.lam, ex.mu))
        b = real.lift.T @ load_vector(real.space, *ex.loads)
        x = solve_sym_constrained(K, b)
        assert backward_error(K, b, x) <= 1e-2 * eigen.BACKWARD_ERROR_BOUND
        rng = np.random.default_rng(level)
        solve = ConstrainedOperator.solve

        def perturbed(self, rhs):
            y = solve(self, rhs)
            u = rng.standard_normal(y.size)
            return y + 1e-10 * np.linalg.norm(y) / np.linalg.norm(u) * u

        monkeypatch.setattr(ConstrainedOperator, "solve", perturbed)
        with pytest.raises(RuntimeError, match="backward error"):
            solve_sym_constrained(K, b)

    def test_singular_matrix_raises(self):
        A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(RuntimeError):
            solve_sym_constrained(A, np.array([1.0, 0.0]))


class TestEigSymGen:
    """The symmetric generalized eigensolver."""

    def test_diagonal_pencil(self):
        A = sparse.diags([2.0, 3.0]).tocsr()
        B = sparse.eye(2, format="csr")
        res = eig_sym_constrained(A, B, 2)
        assert res.method == "dense"
        assert np.allclose(res.values, [2.0, 3.0])

    def test_a_equals_b_gives_ones(self):
        rng = np.random.default_rng(3)
        A = random_spd(rng, 25)
        res = eig_sym_constrained(A, A.copy(), 5)
        assert np.allclose(res.values, 1.0, atol=1e-10)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(7)
        n, k = 120, 6
        A = random_spd(rng, n, density=0.05)
        B = random_spd(rng, n, density=0.05)
        dense = dla.eigh(A.toarray(), B.toarray(), subset_by_index=[0, k - 1],
                         eigvals_only=True)
        arpack = eig_sym_constrained(A, B, k)
        # 2 * 60 + 1 Lanczos vectors would span the space: dense reduction
        full = eig_sym_constrained(A, B, n // 2)
        assert arpack.method == "arpack" and full.method == "dense"
        assert np.allclose(arpack.values, dense, rtol=1e-9)
        assert np.allclose(full.values[:k], dense, rtol=1e-9)
        assert np.all(np.diff(full.values) >= -1e-12)
        for v0 in (np.zeros(n), arpack.vectors.sum(axis=1)):
            warm = eig_sym_constrained(A, B, k, v0=v0)
            assert np.allclose(warm.values, dense, rtol=1e-9)
        for res in (full, arpack):
            bn = np.einsum("ij,ij->j", res.vectors, (B @ res.vectors))
            assert np.allclose(bn, 1.0, atol=1e-8)

    @pytest.mark.parametrize("n", [16, 120])
    def test_power_of_two_weights_scale_the_result_exactly(self, n):
        # dense (n = 16) and ARPACK (n = 120) paths; the pencil is
        # divided by powers of two near its norms first, so weights of
        # 2^600 and 2^-300 give the unit pencil's result scaled exactly
        rng = np.random.default_rng(23)
        A = random_spd(rng, n, density=0.05)
        B = random_spd(rng, n, density=0.05)
        unit = eig_sym_constrained(A, B, 4)
        big = eig_sym_constrained(A * 2.0**600, B * 2.0**-300, 4)
        assert big.method == unit.method
        assert np.array_equal(big.values, np.ldexp(unit.values, 900))
        assert np.array_equal(big.vectors, np.ldexp(unit.vectors, 150))
        assert np.array_equal(big.residuals, np.ldexp(unit.residuals, 600))

    def test_residual_bound(self):
        rng = np.random.default_rng(19)
        A = random_spd(rng, 40)
        B = random_spd(rng, 40)
        res = eig_sym_constrained(A, B, 4)
        bound = 1e-8 * (norm1(A) + np.abs(res.values) * norm1(B))
        assert np.all(res.residuals <= bound)


class TestSpdRoot:
    """The root G G^T = 2^-b B that a sweep's eigensolves share."""

    @pytest.mark.parametrize("element", ["b3", "morley"])
    def test_root_reproduces_the_elastic_block(self, element):
        ex = EXAMPLES[6]
        mesh = generate_domain(ex.domain, 1 + ex.mesh_offset)
        KB = TepBlocks(make_realization(mesh, element), ex.lam, ex.mu,
                       ex.rho0, ex.rho1).KB
        root = SpdRoot(KB)
        scaled = np.ldexp(KB.toarray(), -root.exponent)
        assert np.array_equal(root.matrix.toarray(), scaled)
        assert root.norm == norm1(scaled)
        error = norm1(root.G @ root.G.T - scaled)
        assert error <= 1e-14 * root.norm
        assert np.array_equal(root.GT.toarray(), root.G.T.toarray())
        n = KB.shape[0]
        assert np.allclose(root.inverse @ root.G, np.eye(n), rtol=0,
                           atol=1e-12)

    @pytest.mark.parametrize("diagonal, match", [
        ([2.0, -1.0, 3.0], "not positive definite"),
        ([2.0, 0.0, 3.0], "singular"),
    ])
    def test_indefinite_or_singular_b_raises(self, diagonal, match):
        with pytest.raises(RuntimeError, match=match):
            SpdRoot(sparse.diags(diagonal).tocsr())

    @pytest.mark.parametrize("n, plain_method, root_method", [
        (16, "dense", "dense"),
        (120, "arpack", "dense"),
        (eigen.ROOT_DENSE_ORDER + 40, "arpack", "arpack"),
    ])
    def test_root_gives_the_plain_pencils_eigenpairs(self, n, plain_method,
                                                     root_method):
        # below, at and above ROOT_DENSE_ORDER, against a B of weight
        # 2^-300 so that its exponent is not zero
        rng = np.random.default_rng(29)
        A = random_spd(rng, n, density=0.05)
        B = random_spd(rng, n, density=0.05) * 2.0**-300
        plain = eig_sym_constrained(A, B, 4)
        rooted = eig_sym_constrained(A, SpdRoot(B), 4)
        assert (plain.method, rooted.method) == (plain_method, root_method)
        assert np.allclose(rooted.values, plain.values, rtol=1e-10, atol=0)
        assert np.allclose(np.abs(rooted.vectors.T @ (B @ plain.vectors)),
                           np.eye(4), atol=1e-8)

    def test_arpack_failure_falls_back_to_dense(self, monkeypatch):
        rng = np.random.default_rng(31)
        n = eigen.ROOT_DENSE_ORDER + 20
        A = random_spd(rng, n, density=0.02)
        B = random_spd(rng, n, density=0.02)

        def arpack_fails(*args, **kwargs):
            raise spla.ArpackError(-1)

        monkeypatch.setattr(eigen.spla, "eigsh", arpack_fails)
        res = eig_sym_constrained(A, SpdRoot(B), 4)
        assert res.method == "dense"
        ref = dla.eigh(A.toarray(), B.toarray(), subset_by_index=[0, 3],
                       eigvals_only=True)
        assert np.allclose(res.values, ref, rtol=1e-10)


@pytest.fixture(scope="module")
def small_system(b3_oracle):
    """Broken forms and load of the cubic element on the unit square at
    mesh level 1, its ``lift`` from the local basis W, W = diag(Ws, Ws)
    itself, the compatibility rows psi that W annihilates, and the dense
    oracle basis N of the space."""
    mesh = generate_domain("unit-square", 1)
    real = B3Realization(mesh)
    space = real.space
    A = bielastic_matrix(space, None, LAM, MU)
    M = mass_matrix(space)
    lift, W = real.lift, real.explicit_basis()
    psi = vector_transform(real.reduction.psi)
    N = vector_transform(b3_oracle(mesh))
    f = load_vector(
        space,
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: x * (1 - x) * y * (1 - y),
    )
    return space, A, M, lift, W, psi, N, f


class CountingFactor:
    """Stands in for ``ConstrainedOperator.lu``; records every triangular
    solve's right-hand side."""

    def __init__(self, lu):
        self.lu = lu
        self.inputs = []

    def solve(self, rhs):
        self.inputs.append(rhs)
        return self.lu.solve(rhs)


def record_factors(monkeypatch):
    """Give every ``ConstrainedOperator`` made from now on a
    ``CountingFactor``; returns the list of those operators."""
    ops = []
    init = ConstrainedOperator.__init__

    def recording(self, K):
        init(self, K)
        self.lu = CountingFactor(self.lu)
        ops.append(self)

    monkeypatch.setattr(ConstrainedOperator, "__init__", recording)
    return ops


class TestConstrained:
    """The factor, the solve and the eigensolver, on the cubic element's
    local basis against the dense oracle basis."""

    def test_eigensolver_applies_one_triangular_solve(self, monkeypatch):
        # example 3 at level 2, the first level where an operator that
        # refined took more than one triangular solve per application
        ops = record_factors(monkeypatch)
        applied = []
        solve = ConstrainedOperator.solve

        def counting_solve(self, b):
            before = len(self.lu.inputs)
            x = solve(self, b)
            applied.append(len(self.lu.inputs) - before)
            return x

        monkeypatch.setattr(ConstrainedOperator, "solve", counting_solve)
        report = run_example(3, levels=(2,))
        assert report.meta["eig_method"] == ["arpack"]
        assert len(ops) == 1 and len(applied) > 1
        assert applied == [1] * len(applied)

    def test_kkt_solve_stays_in_kernel(self, small_system):
        _, A, _, lift, W, psi, _, f = small_system
        K = (lift.T @ A @ lift).tocsr()
        op = ConstrainedOperator(K)
        g = W @ op.solve(lift.T @ f)
        assert np.linalg.norm(psi @ g) <= 1e-10 * np.linalg.norm(g)

    def test_kkt_solve_undoes_the_ordering(self, small_system):
        _, A, _, lift, _, _, _, f = small_system
        K = (lift.T @ A @ lift).tocsr()
        b = lift.T @ f
        ref = np.linalg.solve(K.toarray(), b)
        x = ConstrainedOperator(K).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_constrained_solve_matches_explicit_basis(self, small_system):
        _, A, _, lift, _, _, N, f = small_system
        K = (lift.T @ A @ lift).tocsr()
        g = solve_sym_constrained(K, lift.T @ f)
        y = np.linalg.solve((N.T @ A @ N).toarray(), N.T @ f)
        broken_local = lift @ g
        broken_dense = N @ y
        scale = np.linalg.norm(broken_dense)
        assert np.linalg.norm(broken_local - broken_dense) <= 1e-8 * scale

    def test_constrained_eigs_match_explicit_basis(self, small_system):
        _, A, M, lift, W, psi, N, _ = small_system
        KA = (lift.T @ A @ lift).tocsr()
        KB = (lift.T @ M @ lift).tocsr()
        res = eig_sym_constrained(KA, KB, 6)
        Ad = (N.T @ A @ N).toarray()
        Bd = (N.T @ M @ N).toarray()
        ref = dla.eigh(Ad, Bd, subset_by_index=[0, 5], eigvals_only=True)
        assert np.allclose(res.values, ref, rtol=1e-9)
        for j in range(6):
            x = W @ res.vectors[:, j]
            assert np.linalg.norm(psi @ x) <= 1e-8 * np.linalg.norm(x)

    def test_start_vector_and_shared_projector(self, small_system):
        _, A, M, lift, _, _, _, _ = small_system
        KA = (lift.T @ A @ lift).tocsr()
        KB = (lift.T @ M @ lift).tocsr()
        cold = eig_sym_constrained(KA, KB, 6)
        for v0 in (np.zeros(KA.shape[0]), cold.vectors.sum(axis=1)):
            res = eig_sym_constrained(KA, KB, 6, v0=v0)
            assert res.method == "arpack"
            assert np.allclose(res.values, cold.values, rtol=1e-10, atol=0)
            assert np.all(res.residuals <= 1e-8 * (
                norm1(KA) + np.abs(res.values) * norm1(KB)))

    def test_dense_fallback_refuses_large_kernel(self, small_system,
                                                 monkeypatch):
        _, A, M, lift, _, _, _, _ = small_system
        KA = (lift.T @ A @ lift).tocsr()
        KB = (lift.T @ M @ lift).tocsr()

        def arpack_fails(*args, **kwargs):
            raise spla.ArpackError(-1)

        monkeypatch.setattr(eigen.spla, "eigsh", arpack_fails)
        monkeypatch.setattr(eigen, "DENSE_SYM_CAP", 10)
        with pytest.raises(RuntimeError, match="dense cap"):
            eig_sym_constrained(KA, KB, 6)


class TestNorm1:
    def test_matches_dense_oracle_with_duplicates(self):
        rng = np.random.default_rng(7)
        rows = np.sort(rng.integers(0, 6, 40))
        cols = rng.integers(0, 5, 40)
        vals = rng.standard_normal(40)
        coo = sparse.coo_matrix((vals, (rows, cols)), shape=(6, 5))
        dense = coo.toarray()  # duplicates summed
        oracle = np.abs(dense).sum(axis=0).max()
        indptr = np.searchsorted(rows, np.arange(7))
        dup = sparse.csr_matrix((vals, cols, indptr), shape=(6, 5))
        assert not dup.has_canonical_format
        for A in (coo, dup, coo.tocsc(), dense):
            assert norm1(A) == pytest.approx(oracle, rel=1e-14)
        assert dup.nnz == 40  # the argument is not canonicalized

    def test_empty_matrices_and_no_rows(self):
        for shape in ((0, 0), (3, 4), (0, 5), (5, 0)):
            assert norm1(sparse.csr_matrix(shape)) == 0.0
            assert norm1(np.zeros(shape)) == 0.0


class TestEigQuadratic:
    def test_scalar_pure_imaginary(self):
        res = eig_quadratic(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert np.allclose(res.values, [-1j, 1j])

    def test_scalar_real_roots(self):
        res = eig_quadratic(
            2 * np.eye(1), -3 * np.eye(1), np.eye(1)
        )
        assert np.allclose(sorted(res.values.real), [1.0, 2.0])
        assert np.allclose(res.values.imag, 0.0)

    def test_companion_roundtrip(self):
        rng = np.random.default_rng(23)
        for n in (4, 9, 17):
            R = rng.standard_normal((n, n))
            M = R @ R.T + n * np.eye(n)
            C = rng.standard_normal((n, n))
            C = C + C.T
            K = rng.standard_normal((n, n))
            K = K + K.T
            res = eig_quadratic(K, C, M)
            scale = norm1(K) + norm1(C) + norm1(M)
            for tau in res.values:
                P = K + tau * C + tau**2 * M
                smin = np.linalg.svd(P, compute_uv=False)[-1]
                bound = (
                    norm1(K)
                    + abs(tau) * norm1(C)
                    + abs(tau) ** 2 * norm1(M)
                )
                assert smin <= 1e-8 * max(bound, scale)

    def test_conjugate_pairs(self):
        rng = np.random.default_rng(5)
        n = 8
        R = rng.standard_normal((n, n))
        M = R @ R.T + n * np.eye(n)
        C = rng.standard_normal((n, n))
        C = C + C.T
        K = rng.standard_normal((n, n))
        K = K + K.T
        vals = eig_quadratic(K, C, M).values
        complex_vals = vals[np.abs(vals.imag) > 1e-8]
        for v in complex_vals:
            dist = np.min(np.abs(complex_vals - np.conj(v)))
            assert dist <= 1e-8 * (1 + abs(v))

    def test_negative_imag_listed_first(self):
        res = eig_quadratic(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert res.values[0].imag < 0

    def test_dimension_cap(self):
        n = 3001
        big = sparse.eye(n, format="csr")
        with pytest.raises(ValueError, match="cap"):
            eig_quadratic(big, big, big)


def random_pencil(rng, n):
    """K and M symmetric positive definite, C symmetric."""
    R = rng.standard_normal((n, n))
    K = R @ R.T + n * np.eye(n)
    R = rng.standard_normal((n, n))
    M = R @ R.T + n * np.eye(n)
    C = rng.standard_normal((n, n))
    return K, C + C.T, M


def same_values(a, b):
    """Equal complex eigenvalue lists up to 1e-9 relative, compared in a
    rounded order."""
    return np.allclose(sorted_complex(a), sorted_complex(b), rtol=1e-9,
                       atol=0)


class TestEigQuadraticPath:
    """Shift-invert Arnoldi for a few values, the dense QZ otherwise."""

    def test_arnoldi_for_a_few_values(self):
        K, C, M = random_pencil(np.random.default_rng(29), 30)
        full = eig_quadratic(K, C, M)
        res = eig_quadratic(K, C, M, 6)
        assert full.method == "companion"
        assert res.method == "companion-arnoldi"
        assert same_values(res.values, full.values[:6])

    @pytest.mark.parametrize("k", [None, 20])
    def test_each_conjugate_pair_lists_its_negative_member_first(self, k):
        K, C, M = random_pencil(np.random.default_rng(29), 30)
        vals = eig_quadratic(K, C, M, k).values
        j = 0
        while j < vals.size:
            if vals[j].imag != 0:
                assert vals[j].imag < 0
                assert vals[j + 1] == np.conj(vals[j])
                j += 1
            j += 1

    def test_qz_when_k_is_close_to_the_companion_order(self):
        K, C, M = random_pencil(np.random.default_rng(31), 12)
        assert eig_quadratic(K, C, M, 9).method == "companion-arnoldi"
        assert eig_quadratic(K, C, M, 10).method == "companion"

    @pytest.mark.parametrize("k", [None, 6])
    def test_residuals_match_a_loop_over_the_values(self, k):
        """The residuals are one sparse product over every value; a loop
        over the values, each in its own products, is the reference."""
        K, C, M = random_pencil(np.random.default_rng(43), 30)
        res = eig_quadratic(K, C, M, k)
        for tau, x, got in zip(res.values, res.vectors.T, res.residuals):
            want = np.linalg.norm(K @ x + tau * (C @ x) + tau**2 * (M @ x))
            scale = norm1(K) + abs(tau) * norm1(C) + abs(tau)**2 * norm1(M)
            assert abs(got - want) <= 1e-14 * scale

    def test_qz_when_arpack_fails(self, monkeypatch):
        K, C, M = random_pencil(np.random.default_rng(37), 30)
        ref = eig_quadratic(K, C, M, 6)

        def arpack_fails(*args, **kwargs):
            raise spla.ArpackError(-1)

        monkeypatch.setattr(eigen.spla, "eigs", arpack_fails)
        res = eig_quadratic(K, C, M, 6)
        assert res.method == "companion"
        assert same_values(res.values, ref.values)

    def test_qz_when_k_is_singular(self):
        K, C, M = random_pencil(np.random.default_rng(41), 30)
        K[0, :] = K[:, 0] = 0.0
        res = eig_quadratic(K, C, M, 6)
        assert res.method == "companion"
        assert res.values[0] == 0.0


def symmetric_solve(n, root):
    """An eigensolve of a random pencil of order n, against a plain B or
    an ``SpdRoot`` of it."""
    def solve():
        rng = np.random.default_rng(47)
        A = random_spd(rng, n, density=0.05)
        B = random_spd(rng, n, density=0.05)
        return eig_sym_constrained(A, SpdRoot(B) if root else B, 4)
    return solve


def quadratic_solve(k):
    def solve():
        return eig_quadratic(*random_pencil(np.random.default_rng(29), 30), k)
    return solve


class TestAcceptanceCheck:
    """Every eigensolve path returns through one residual check."""

    @pytest.mark.parametrize("spoil", ["value", "nan-vector"])
    @pytest.mark.parametrize("method, solver, solve", [
        pytest.param("dense", "_eig_dense", symmetric_solve(16, False),
                     id="dense"),
        pytest.param("arpack", "_lanczos", symmetric_solve(120, False),
                     id="arpack"),
        pytest.param("dense", "_eig_dense", symmetric_solve(120, True),
                     id="dense-root"),
        pytest.param("arpack", "_lanczos",
                     symmetric_solve(eigen.ROOT_DENSE_ORDER + 40, True),
                     id="arpack-root"),
        pytest.param("companion", "_companion_qz", quadratic_solve(None),
                     id="companion"),
        pytest.param("companion-arnoldi", "_companion_arnoldi",
                     quadratic_solve(6), id="companion-arnoldi"),
    ])
    def test_a_spoiled_pair_is_refused(self, monkeypatch, spoil, method,
                                       solver, solve):
        # the raw solver returns one value off by 1e-3 relative, or one
        # eigenvector of NaN, whose residual no "greater than" test fails
        assert solve().method == method
        raw = getattr(eigen, solver)

        def spoiled(*args, **kwargs):
            vals, vecs = raw(*args, **kwargs)
            vals, vecs = vals.copy(), vecs.copy()
            if spoil == "value":
                vals[1] *= 1 + 1e-3
            else:
                vecs[:, 1] = np.nan
            return vals, vecs

        monkeypatch.setattr(eigen, solver, spoiled)
        with pytest.raises(RuntimeError,
                           match=f"exceed tolerance.*method {method},"):
            solve()
