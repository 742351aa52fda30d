"""Eigen/linear-solver layer checks against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

import bielastic.eigen as eigen
from bielastic.assembly import bielastic_matrix, load_vector, mass_matrix
from bielastic.eigen import (
    ConstrainedOperator,
    KernelProjector,
    eig_quadratic,
    eig_sym_constrained,
    norm1,
    solve_sym_constrained,
)
from bielastic.harness import EXAMPLES
from bielastic.mesh import generate_domain
from bielastic.solvers import (
    B3Realization,
    TepBlocks,
    fourth_order_block,
    make_realization,
)
from bielastic.spaces import BrokenSpace, reduce_entities, vector_transform

from oracles import sorted_complex

LAM, MU = 0.25, 0.0625


def random_spd(rng, n, density=0.4):
    R = sparse.random(n, n, density=density, random_state=rng, format="csr")
    A = R @ R.T + n * sparse.eye(n)
    return sparse.csr_matrix(A)


def no_rows(n):
    """The kernel of a constraint block with no rows: the whole space."""
    return KernelProjector(sparse.csr_matrix((0, n)))


class TestSolveSym:
    """The constrained solve with an empty constraint block."""

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        x = solve_sym_constrained(sparse.eye(3, format="csr"), no_rows(3), b)
        assert np.allclose(x, b)

    def test_diagonal(self):
        A = sparse.diags([2.0, 4.0]).tocsr()
        x = solve_sym_constrained(A, no_rows(2), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_random_spd_residuals(self):
        rng = np.random.default_rng(11)
        for n in (5, 12, 30, 60):
            A = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = solve_sym_constrained(A, no_rows(n), b, 1e-12)
            assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    def test_singular_matrix_raises(self):
        A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(RuntimeError):
            solve_sym_constrained(A, no_rows(2), np.array([1.0, 0.0]))


class TestEigSymGen:
    """The constrained eigensolver with an empty constraint block."""

    def test_diagonal_pencil(self):
        A = sparse.diags([2.0, 3.0]).tocsr()
        B = sparse.eye(2, format="csr")
        res = eig_sym_constrained(A, B, no_rows(2), 2)
        assert res.method == "dense"
        assert np.allclose(res.values, [2.0, 3.0])

    def test_a_equals_b_gives_ones(self):
        rng = np.random.default_rng(3)
        A = random_spd(rng, 25)
        res = eig_sym_constrained(A, A.copy(), no_rows(25), 5)
        assert np.allclose(res.values, 1.0, atol=1e-10)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(7)
        n, k = 120, 6
        A = random_spd(rng, n, density=0.05)
        B = random_spd(rng, n, density=0.05)
        dense = dla.eigh(A.toarray(), B.toarray(), subset_by_index=[0, k - 1],
                         eigvals_only=True)
        arpack = eig_sym_constrained(A, B, no_rows(n), k)
        # 2 * 60 + 1 Lanczos vectors would span the space: dense reduction
        full = eig_sym_constrained(A, B, no_rows(n), n // 2)
        assert arpack.method == "arpack" and full.method == "dense"
        assert np.allclose(arpack.values, dense, rtol=1e-9)
        assert np.allclose(full.values[:k], dense, rtol=1e-9)
        assert np.all(np.diff(full.values) >= -1e-12)
        for v0 in (np.zeros(n), arpack.vectors.sum(axis=1)):
            warm = eig_sym_constrained(A, B, no_rows(n), k, v0=v0)
            assert np.allclose(warm.values, dense, rtol=1e-9)
        for res in (full, arpack):
            bn = np.einsum("ij,ij->j", res.vectors, (B @ res.vectors))
            assert np.allclose(bn, 1.0, atol=1e-8)

    def test_residual_bound(self):
        rng = np.random.default_rng(19)
        A = random_spd(rng, 40)
        B = random_spd(rng, 40)
        res = eig_sym_constrained(A, B, no_rows(40), 4)
        bound = 1e-8 * (norm1(A) + np.abs(res.values) * norm1(B))
        assert np.all(res.residuals <= bound)


@pytest.fixture(scope="module")
def small_system(b3_oracle):
    mesh = generate_domain("unit-square", 1)
    space = BrokenSpace(mesh, 3)
    A = bielastic_matrix(space, None, LAM, MU)
    M = mass_matrix(space)
    red = reduce_entities(mesh)
    lift, psi = vector_transform(red.lift), vector_transform(red.psi)
    N = vector_transform(b3_oracle(mesh))
    f = load_vector(
        space,
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: x * (1 - x) * y * (1 - y),
    )
    return space, A, M, lift, psi, N, f


class CountingFactor:
    """Stands in for ``ConstrainedOperator.lu``; records every triangular
    solve's right-hand side and result."""

    def __init__(self, lu):
        self.lu = lu
        self.inputs, self.outputs = [], []

    def solve(self, rhs):
        self.inputs.append(rhs)
        self.outputs.append(self.lu.solve(rhs))
        return self.outputs[-1]


def random_kkt_parts(rng, n=40, m=10):
    """A well-conditioned K and a full-row-rank psi."""
    psi = sparse.random(m, n, density=0.2, random_state=rng) + sparse.eye(m, n)
    return random_spd(rng, n), sparse.csr_matrix(psi)


class TestConstrained:
    def test_solve_skips_refinement_when_backward_stable(self):
        rng = np.random.default_rng(3)
        K, psi = random_kkt_parts(rng)
        op = ConstrainedOperator(K, KernelProjector(psi))
        op.lu = factor = CountingFactor(op.lu)
        kkt = sparse.bmat([[K, psi.T], [psi, None]]).toarray()
        refine = eigen.REFINE_STEPS
        for _ in range(3):
            b = rng.standard_normal(K.shape[0])
            ref = np.linalg.solve(kkt, np.concatenate(
                [b, np.zeros(psi.shape[0])]))[: K.shape[0]]
            start = len(factor.inputs)
            x = op.solve(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            steps = factor.outputs[start:]
            assert 1 <= len(steps) <= refine + 1
            rhs = factor.inputs[start]
            bound = eigen.REFINE_TOL * np.linalg.norm(rhs)
            z = steps[0]
            for step in steps[1:]:
                assert np.linalg.norm(rhs - op.kkt @ z) > bound
                z = z + step
            if len(steps) <= refine:
                assert np.linalg.norm(rhs - op.kkt @ z) <= bound
            assert np.array_equal(x, z[: K.shape[0]])

    def test_solve_refines_an_inaccurate_first_solve(self):
        # the factor of a perturbed KKT matrix stands in for a first solve
        # that is not backward stable
        rng = np.random.default_rng(5)
        K, psi = random_kkt_parts(rng)
        op = ConstrainedOperator(K, KernelProjector(psi))
        shift = 1e-10 * norm1(op.kkt) * sparse.eye(op.kkt.shape[0])
        op.lu = factor = CountingFactor(
            spla.splu((op.kkt + shift).tocsc(), permc_spec="NATURAL"))
        x = op.solve(rng.standard_normal(K.shape[0]))
        assert len(factor.inputs) == 2
        rhs = factor.inputs[0]
        bound = eigen.REFINE_TOL * np.linalg.norm(rhs)
        first = factor.outputs[0]
        assert np.linalg.norm(rhs - op.kkt @ first) > 100 * bound
        z = first + factor.outputs[1]
        assert np.linalg.norm(rhs - op.kkt @ z) <= bound
        assert np.array_equal(x, z[: K.shape[0]])

    def test_projector_annihilates_constraints(self, small_system):
        _, _, _, _, psi, _, _ = small_system
        proj = KernelProjector(psi)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(psi.shape[1])
        px = proj(x)
        assert np.linalg.norm(psi @ px) <= 1e-10 * np.linalg.norm(x)
        assert np.allclose(proj(px), px, atol=1e-12)
        X = rng.standard_normal((psi.shape[1], 3))
        columns = np.column_stack([proj(X[:, j]) for j in range(3)])
        assert np.allclose(proj(X), columns, rtol=0, atol=1e-13)

    def test_kkt_solve_stays_in_kernel(self, small_system):
        _, A, _, lift, psi, _, f = small_system
        K = (lift.T @ A @ lift).tocsr()
        op = ConstrainedOperator(K, KernelProjector(psi))
        x = op.solve(lift.T @ f)
        assert np.linalg.norm(psi @ x) <= 1e-10 * np.linalg.norm(x)

    def test_kkt_solve_undoes_the_ordering(self, small_system):
        _, A, _, lift, psi, _, f = small_system
        K = (lift.T @ A @ lift).tocsr()
        b = lift.T @ f
        kkt = sparse.bmat([[K, psi.T], [psi, None]]).toarray()
        rhs = np.concatenate([b, np.zeros(psi.shape[0])])
        ref = np.linalg.solve(kkt, rhs)[: K.shape[0]]
        x = ConstrainedOperator(K, KernelProjector(psi)).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_kkt_ordering_fills_less_than_colamd(self):
        real = B3Realization(generate_domain("unit-square", 3))
        K = real.reduced(fourth_order_block(real, 1.0, LAM, MU))
        op = ConstrainedOperator(K, KernelProjector(real.psi))
        kkt = sparse.bmat([[K, real.psi.T], [real.psi, None]], format="csc")
        assert op.kkt.shape == (6910, 6910)
        assert op.lu.nnz < spla.splu(kkt).nnz

    def test_quasi_definite_factor_fills_less_than_half_the_rcm_lu(self):
        ex = EXAMPLES[6]
        mesh = generate_domain(ex.domain, 2 + ex.mesh_offset)
        blocks = TepBlocks(make_realization(mesh, "b3"), ex.lam, ex.mu,
                           ex.rho0, ex.rho1)
        K, psi = blocks.a_tau(2.0), blocks.real.psi
        op = ConstrainedOperator(K, KernelProjector(psi))
        kkt = sparse.bmat([[K, psi.T], [psi, None]], format="csr")
        perm = reverse_cuthill_mckee(kkt, symmetric_mode=True)
        rcm = spla.splu(kkt[perm][:, perm].tocsc(), permc_spec="NATURAL")
        assert op.kkt.shape == (1662, 1662)
        assert op.lu.nnz < 0.5 * rcm.nnz

    def test_constrained_solve_matches_explicit_basis(self, small_system):
        _, A, _, lift, psi, N, f = small_system
        K = (lift.T @ A @ lift).tocsr()
        g = solve_sym_constrained(K, KernelProjector(psi), lift.T @ f)
        y = np.linalg.solve((N.T @ A @ N).toarray(), N.T @ f)
        broken_kkt = lift @ g
        broken_dense = N @ y
        scale = np.linalg.norm(broken_dense)
        assert np.linalg.norm(broken_kkt - broken_dense) <= 1e-8 * scale

    def test_constrained_eigs_match_explicit_basis(self, small_system):
        _, A, M, lift, psi, N, _ = small_system
        KA = (lift.T @ A @ lift).tocsr()
        KB = (lift.T @ M @ lift).tocsr()
        res = eig_sym_constrained(KA, KB, KernelProjector(psi), 6)
        Ad = (N.T @ A @ N).toarray()
        Bd = (N.T @ M @ N).toarray()
        ref = dla.eigh(Ad, Bd, subset_by_index=[0, 5], eigvals_only=True)
        assert np.allclose(res.values, ref, rtol=1e-9)
        for j in range(6):
            x = res.vectors[:, j]
            assert np.linalg.norm(psi @ x) <= 1e-8 * np.linalg.norm(x)

    def test_start_vector_and_shared_projector(self, small_system):
        _, A, M, lift, psi, _, _ = small_system
        KA = (lift.T @ A @ lift).tocsr()
        KB = (lift.T @ M @ lift).tocsr()
        kernel = KernelProjector(psi)
        cold = eig_sym_constrained(KA, KB, kernel, 6)
        for v0 in (np.zeros(KA.shape[0]), cold.vectors.sum(axis=1)):
            res = eig_sym_constrained(KA, KB, kernel, 6, v0=v0)
            assert res.method == "kkt-arpack"
            assert np.allclose(res.values, cold.values, rtol=1e-10, atol=0)
            assert np.all(res.residuals <= 1e-8 * (
                norm1(KA) + np.abs(res.values) * norm1(KB)))

    def test_dense_fallback_refuses_large_kernel(self, small_system,
                                                 monkeypatch):
        _, A, M, lift, psi, _, _ = small_system
        KA = (lift.T @ A @ lift).tocsr()
        KB = (lift.T @ M @ lift).tocsr()

        def arpack_fails(*args, **kwargs):
            raise spla.ArpackError(-1)

        monkeypatch.setattr(eigen.spla, "eigsh", arpack_fails)
        monkeypatch.setattr(eigen, "DENSE_SYM_CAP", 10)
        with pytest.raises(RuntimeError, match="dense cap"):
            eig_sym_constrained(KA, KB, KernelProjector(psi), 6)


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
        kernel = no_rows(5)
        assert kernel.psi_norm == 0.0 and kernel.ptp_norm == 0.0


def ex6_level(level):
    """The transmission blocks of example 6 at this benchmark level."""
    ex = EXAMPLES[6]
    mesh = generate_domain(ex.domain, level - 1 + ex.mesh_offset)
    return TepBlocks(make_realization(mesh, "b3"), ex.lam, ex.mu, ex.rho0,
                     ex.rho1)


def record_orderings(monkeypatch):
    """Record the ordering of every KKT factorization: MMD_AT_PLUS_A for
    a pattern ordered afresh, NATURAL for one factored in a kept order."""
    specs = []
    splu = eigen._splu_diagonal

    def recording(A, permc_spec):
        specs.append(permc_spec)
        return splu(A, permc_spec)

    monkeypatch.setattr(eigen, "_splu_diagonal", recording)
    return specs


class TestKktOrder:
    def test_scan_orders_each_pattern_once(self, monkeypatch):
        blocks = ex6_level(2)
        specs = record_orderings(monkeypatch)
        for tau in (0.5, 1.0, 1.5, 2.0, 2.5):
            blocks.lambda_of_tau(tau, 6)
        assert blocks.eig_methods == {"kkt-arpack": 5}
        assert specs == ["MMD_AT_PLUS_A"] + 4 * ["NATURAL"]
        blocks.lambda_of_tau(0.0, 6)  # a_tau(0) = KD has its own pattern
        blocks.lambda_of_tau(3.0, 6)  # only the last pattern is kept
        assert specs[5:] == 2 * ["MMD_AT_PLUS_A"]

    @pytest.mark.parametrize("level", [2, 3])
    def test_kept_order_gives_the_fresh_fill_and_solves(self, level):
        blocks = ex6_level(level)
        kernel = KernelProjector(blocks.real.psi)
        ConstrainedOperator(blocks.a_tau(2.0), kernel)
        op = ConstrainedOperator(blocks.a_tau(3.0), kernel)
        fresh = ConstrainedOperator(blocks.a_tau(3.0),
                                    KernelProjector(blocks.real.psi))
        assert isinstance(op.lu, eigen._OrderedFactor)
        assert isinstance(fresh.lu, spla.SuperLU)
        assert op.lu.nnz == fresh.lu.nnz == {2: 16506, 3: 123586}[level]
        rng = np.random.default_rng(level)
        for _ in range(3):
            b = rng.standard_normal(op.n)
            x, ref = op.solve(b), fresh.solve(b)
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_zero_tau_after_nonzero_is_ordered_afresh(self, monkeypatch):
        blocks = ex6_level(2)
        kernel = KernelProjector(blocks.real.psi)
        ConstrainedOperator(blocks.a_tau(2.0), kernel)
        specs = record_orderings(monkeypatch)
        op = ConstrainedOperator(blocks.a_tau(0.0), kernel)
        assert specs == ["MMD_AT_PLUS_A"]
        op.lu = factor = CountingFactor(op.lu)
        b = np.random.default_rng(4).standard_normal(op.n)
        x = op.solve(b)
        rhs, z = factor.inputs[0], factor.outputs[0]
        for step in factor.outputs[1:]:
            z = z + step
        r = rhs - op.kkt @ z
        assert np.linalg.norm(r) <= eigen.REFINE_TOL * np.linalg.norm(rhs)
        assert np.array_equal(x, z[: op.n])

    def test_dense_path_reduces_on_one_kernel_basis(self, monkeypatch):
        blocks = ex6_level(1)
        bases = []
        basis = eigen.kernel_basis

        def counting(psi):
            bases.append(psi.shape)
            return basis(psi)

        monkeypatch.setattr(eigen, "kernel_basis", counting)
        for tau in (0.0, 1.0, 2.0):
            blocks.lambda_of_tau(tau, 12)
        assert blocks.eig_methods == {"kkt-dense": 3}
        assert len(bases) == 1


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
