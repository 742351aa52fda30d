"""Assembly checks: exact symbolic oracles on single triangles, broken
matrix identities, conforming-space identities, loads, and error norms."""

import math

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

import bielastic.assembly as assembly
from bielastic.assembly import (
    bielastic_matrix,
    elastic_matrix,
    error_norms,
    graddiv_matrix,
    hessian_matrix,
    load_vector,
    mass_matrix,
    mixed_divsigma_matrix,
)
from bielastic.coefficients import Coefficient
from bielastic.mesh import TriMesh, generate_domain, refine_uniform
from bielastic.polybasis import QUAD_DEGREES
from bielastic.solvers import fourth_order_block, make_realization
from bielastic.spaces import BrokenSpace, build_morley, vector_transform

from oracles import (
    curlrot_matrix,
    error_norms_tables,
    laplace_matrix,
    load_vector_tables,
    mixed_graddiv_curlrot_matrix,
)

LAM, MU = 0.25, 0.0625


def one_triangle(verts):
    verts = np.asarray(verts, float)
    tris = np.array([[0, 1, 2]])
    return TriMesh(verts, tris, domain="unit-triangle", level=0, h=1.0)


def square_mesh(level):
    return generate_domain("unit-square", level)


def simplex_integral(expr, u, v):
    """Exact integral over the reference triangle u, v >= 0, u + v <= 1."""
    poly = sp.Poly(sp.expand(expr), u, v)
    total = sp.Integer(0)
    for (a, b), c in zip(poly.monoms(), poly.coeffs()):
        total += c * sp.Rational(
            math.factorial(a) * math.factorial(b),
            math.factorial(a + b + 2),
        )
    return total


class SymTriangle:
    """Exact symbolic shape tables for one physical triangle.

    Everything lives in reference coordinates; physical derivatives come
    from the chain rule with the exact inverse Jacobian, and integrals use
    simplex monomial moments, so no symbolic quadrature is needed.
    """

    def __init__(self, verts, degree=3):
        self.u, self.v = sp.symbols("u v")
        V = [[sp.nsimplify(x, rational=True) for x in p] for p in verts]
        self.B = sp.Matrix(
            [
                [V[1][0] - V[0][0], V[2][0] - V[0][0]],
                [V[1][1] - V[0][1], V[2][1] - V[0][1]],
            ]
        )
        self.detB = self.B.det()
        self.Binv = self.B.inv()
        self.x = V[0][0] + self.B[0, 0] * self.u + self.B[0, 1] * self.v
        self.y = V[0][1] + self.B[1, 0] * self.u + self.B[1, 1] * self.v
        space = BrokenSpace(one_triangle(verts), degree)
        coeffs = space.shapes.coeffs
        expo = space.shapes.exponents
        shapes = []
        for j in range(space.nloc):
            p = sp.Integer(0)
            for m, (a, b) in enumerate(expo):
                c = sp.nsimplify(coeffs[m, j], rational=True)
                if c != 0:
                    p += c * self.u**a * self.v**b
            shapes.append(sp.expand(p))
        J = self.Binv

        def dx(p):
            return sp.expand(
                J[0, 0] * sp.diff(p, self.u) + J[1, 0] * sp.diff(p, self.v)
            )

        def dy(p):
            return sp.expand(
                J[0, 1] * sp.diff(p, self.u) + J[1, 1] * sp.diff(p, self.v)
            )

        self.val = shapes
        self.gx = [dx(p) for p in shapes]
        self.gy = [dy(p) for p in shapes]
        self.hxx = [dx(p) for p in self.gx]
        self.hxy = [dy(p) for p in self.gx]
        self.hyy = [dy(p) for p in self.gy]

    def integral(self, expr):
        return float(
            sp.Abs(self.detB) * simplex_integral(expr, self.u, self.v)
        )

    def divsigma(self, comp, j, lam, mu):
        """div sigma of the field e_comp * shape_j, as a symbolic 2-vector."""
        lam, mu = sp.nsimplify(lam), sp.nsimplify(mu)
        if comp == 0:
            return (
                (lam + 2 * mu) * self.hxx[j] + mu * self.hyy[j],
                (lam + mu) * self.hxy[j],
            )
        return (
            (lam + mu) * self.hxy[j],
            mu * self.hxx[j] + (lam + 2 * mu) * self.hyy[j],
        )

    def graddiv(self, comp, j):
        if comp == 0:
            return (self.hxx[j], self.hxy[j])
        return (self.hxy[j], self.hyy[j])

    def curlrot(self, comp, j):
        if comp == 0:
            return (-self.hyy[j], self.hxy[j])
        return (self.hxy[j], -self.hxx[j])


REFERENCE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
SKEW = [[0.2, 0.1], [1.1, 0.3], [0.4, 1.2]]


@pytest.fixture(scope="module")
def ref_tri():
    return SymTriangle(REFERENCE)


@pytest.fixture(scope="module")
def skew_tri():
    return SymTriangle(SKEW)


@pytest.fixture(scope="module")
def skew_space():
    return BrokenSpace(one_triangle(SKEW), 3)


PAIRS = [(0, 0), (2, 7), (5, 5), (9, 3)]
VPAIRS = [(0, 0, 0, 0), (0, 2, 1, 7), (1, 5, 1, 5), (1, 9, 0, 3)]


class TestSingleTriangleOracles:
    def test_mass_with_affine_coefficient(self, skew_tri, skew_space):
        coeff = Coefficient.affine(8.0, 1.0, -1.0)
        n = skew_space.ndof
        A = mass_matrix(skew_space, coeff)[:n, :n].toarray()
        c_sym = 8 + skew_tri.x - skew_tri.y
        for i, j in PAIRS:
            exact = skew_tri.integral(
                c_sym * skew_tri.val[i] * skew_tri.val[j]
            )
            assert A[i, j] == pytest.approx(exact, rel=1e-12, abs=1e-14)

    def test_laplace_entries(self, skew_tri, skew_space):
        n = skew_space.ndof
        A = laplace_matrix(skew_space)[:n, :n].toarray()
        lap = [
            skew_tri.hxx[k] + skew_tri.hyy[k]
            for k in range(len(skew_tri.val))
        ]
        for i, j in PAIRS:
            exact = skew_tri.integral(lap[i] * lap[j])
            assert A[i, j] == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_hessian_entries(self, skew_tri, skew_space):
        n = skew_space.ndof
        A = hessian_matrix(skew_space)[:n, :n].toarray()
        for i, j in PAIRS:
            exact = skew_tri.integral(
                skew_tri.hxx[i] * skew_tri.hxx[j]
                + 2 * skew_tri.hxy[i] * skew_tri.hxy[j]
                + skew_tri.hyy[i] * skew_tri.hyy[j]
            )
            assert A[i, j] == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_bielastic_kernel_reference_triangle(self, ref_tri):
        space = BrokenSpace(one_triangle(REFERENCE), 3)
        A = bielastic_matrix(space, None, LAM, MU).toarray()
        n = space.nloc
        exact = np.zeros((2 * n, 2 * n))
        fields = [
            [ref_tri.divsigma(c, j, LAM, MU) for j in range(n)]
            for c in range(2)
        ]
        for a in range(2):
            for b in range(2):
                for i in range(n):
                    for j in range(n):
                        da, db = fields[a][i], fields[b][j]
                        exact[a * n + i, b * n + j] = ref_tri.integral(
                            da[0] * db[0] + da[1] * db[1]
                        )
        scale = np.abs(exact).max()
        assert np.abs(A - exact).max() <= 1e-12 * scale

    def test_bielastic_entries_skew_affine(self, skew_tri, skew_space):
        coeff = Coefficient.affine(8.0, 1.0, -1.0)
        A = bielastic_matrix(skew_space, coeff, LAM, MU).toarray()
        c_sym = 8 + skew_tri.x - skew_tri.y
        n = skew_space.nloc
        for a, i, b, j in VPAIRS:
            da = skew_tri.divsigma(a, i, LAM, MU)
            db = skew_tri.divsigma(b, j, LAM, MU)
            exact = skew_tri.integral(c_sym * (da[0] * db[0] + da[1] * db[1]))
            assert A[a * n + i, b * n + j] == pytest.approx(
                exact, rel=1e-12, abs=1e-12
            )

    def test_elastic_entries(self, skew_tri, skew_space):
        A = elastic_matrix(skew_space, LAM, MU).toarray()
        n = skew_space.nloc
        lam, mu = sp.nsimplify(LAM), sp.nsimplify(MU)

        def eps(c, j):
            gx, gy = skew_tri.gx[j], skew_tri.gy[j]
            if c == 0:
                return sp.Matrix([[gx, gy / 2], [gy / 2, 0]])
            return sp.Matrix([[0, gx / 2], [gx / 2, gy]])

        def div(c, j):
            return skew_tri.gx[j] if c == 0 else skew_tri.gy[j]

        for a, i, b, j in VPAIRS:
            ea, eb = eps(a, i), eps(b, j)
            dot = sum(ea[r, c] * eb[r, c] for r in range(2) for c in range(2))
            exact = skew_tri.integral(
                2 * mu * dot + lam * div(a, i) * div(b, j)
            )
            assert A[a * n + i, b * n + j] == pytest.approx(
                exact, rel=1e-12, abs=1e-13
            )

    def test_mixed_divsigma_entries(self, skew_tri, skew_space):
        coeff = Coefficient.affine(2.0, 0.5, 0.0)
        A = mixed_divsigma_matrix(skew_space, coeff, LAM, MU).toarray()
        c_sym = 2 + skew_tri.x / 2
        n = skew_space.nloc
        for a, i, b, j in VPAIRS:
            da = skew_tri.divsigma(a, i, LAM, MU)
            exact = skew_tri.integral(c_sym * da[b] * skew_tri.val[j])
            assert A[a * n + i, b * n + j] == pytest.approx(
                exact, rel=1e-12, abs=1e-13
            )

    def test_graddiv_and_curlrot_entries(self, skew_tri, skew_space):
        GD = graddiv_matrix(skew_space).toarray()
        CR = curlrot_matrix(skew_space).toarray()
        n = skew_space.nloc
        for a, i, b, j in VPAIRS:
            ga, gb = skew_tri.graddiv(a, i), skew_tri.graddiv(b, j)
            ca, cb = skew_tri.curlrot(a, i), skew_tri.curlrot(b, j)
            gd = skew_tri.integral(ga[0] * gb[0] + ga[1] * gb[1])
            cr = skew_tri.integral(ca[0] * cb[0] + ca[1] * cb[1])
            assert GD[a * n + i, b * n + j] == pytest.approx(
                gd, rel=1e-12, abs=1e-12
            )
            assert CR[a * n + i, b * n + j] == pytest.approx(
                cr, rel=1e-12, abs=1e-12
            )

    def test_mixed_graddiv_curlrot_entries(self, skew_tri, skew_space):
        A = mixed_graddiv_curlrot_matrix(skew_space).toarray()
        n = skew_space.nloc
        for a, i, b, j in VPAIRS:
            ca = skew_tri.curlrot(a, i)
            gb = skew_tri.graddiv(b, j)
            exact = skew_tri.integral(ca[0] * gb[0] + ca[1] * gb[1])
            assert A[a * n + i, b * n + j] == pytest.approx(
                exact, rel=1e-12, abs=1e-12
            )

    def test_load_vector_entries(self, skew_tri, skew_space):
        f1 = lambda x, y: x**2 * y
        f2 = lambda x, y: x * y**2
        rhs = load_vector(skew_space, f1, f2)
        f_sym = (skew_tri.x**2 * skew_tri.y, skew_tri.x * skew_tri.y**2)
        n = skew_space.nloc
        for c in range(2):
            for i in (0, 4, 9):
                exact = skew_tri.integral(f_sym[c] * skew_tri.val[i])
                assert rhs[c * n + i] == pytest.approx(
                    exact, rel=1e-12, abs=1e-15
                )


@pytest.fixture(scope="module")
def sq1():
    return square_mesh(1)


@pytest.fixture(scope="module")
def sq1_space(sq1):
    return BrokenSpace(sq1, 3)


def interpolate(space, f1, f2):
    """Broken coefficients matching a smooth pair at the Lagrange nodes."""
    nodes = space.shapes.nodes
    phys = space.physical_points(nodes)
    out = np.empty((2, space.mesh.nt, space.nloc))
    for c, f in enumerate((f1, f2)):
        out[c] = f(phys[..., 0], phys[..., 1])
    return out.reshape(-1)


class TestBrokenIdentities:
    def test_divsigma_decomposition(self, sq1_space):
        K = bielastic_matrix(sq1_space, None, LAM, MU)
        GD = graddiv_matrix(sq1_space)
        CR = curlrot_matrix(sq1_space)
        X = mixed_graddiv_curlrot_matrix(sq1_space)
        s = LAM + 2 * MU
        combo = s**2 * GD + MU**2 * CR - s * MU * (X + X.T)
        diff = (K - combo).toarray()
        assert np.abs(diff).max() <= 1e-12 * np.abs(K.toarray()).max()

    def test_laplacian_decomposition(self, sq1_space):
        L = laplace_matrix(sq1_space)
        GD = graddiv_matrix(sq1_space)
        CR = curlrot_matrix(sq1_space)
        X = mixed_graddiv_curlrot_matrix(sq1_space)
        diff = (L - (GD + CR - X - X.T)).toarray()
        assert np.abs(diff).max() <= 1e-12 * np.abs(L.toarray()).max()

    def test_rigid_and_linear_fields_have_zero_stress_divergence(
        self, sq1_space
    ):
        K = bielastic_matrix(sq1_space, None, LAM, MU)
        scale = np.abs(K.toarray()).max()
        fields = [
            (lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x)),
            (lambda x, y: x, lambda x, y: y),
            (lambda x, y: -y, lambda x, y: x),
            (lambda x, y: x + 2 * y, lambda x, y: 3 * x - y),
        ]
        for f1, f2 in fields:
            w = interpolate(sq1_space, f1, f2)
            assert np.abs(K @ w).max() <= 1e-12 * scale * np.abs(w).max()

    def test_symmetric_kinds_are_symmetric(self, sq1_space):
        coeff = Coefficient.affine(8.0, 1.0, -1.0)
        mats = [
            mass_matrix(sq1_space, coeff),
            laplace_matrix(sq1_space, coeff),
            hessian_matrix(sq1_space, coeff),
            bielastic_matrix(sq1_space, coeff, LAM, MU),
            elastic_matrix(sq1_space, LAM, MU, coeff),
            graddiv_matrix(sq1_space, coeff),
            curlrot_matrix(sq1_space, coeff),
        ]
        for A in mats:
            gap = np.abs((A - A.T).toarray()).max()
            assert gap <= 1e-12 * np.abs(A.toarray()).max()

    def test_partition_of_unity_mass_sum(self):
        for name in ("unit-square", "right-triangle"):
            mesh = generate_domain(name, 1)
            space = BrokenSpace(mesh, 3)
            coeff = Coefficient.affine(8.0, 1.0, -1.0)
            M = mass_matrix(space, coeff)[:space.ndof, :space.ndof]
            cent = mesh.vertices[mesh.triangles].mean(axis=1)
            areas = mesh.signed_areas()
            expected = float(
                np.sum(areas * coeff(cent[:, 0], cent[:, 1]))
            )
            assert float(M.sum()) == pytest.approx(expected, rel=1e-12)
            M1 = mass_matrix(space, None)[:space.ndof, :space.ndof]
            assert float(M1.sum()) == pytest.approx(
                float(areas.sum()), rel=1e-12
            )

    def test_block_pattern_is_element_local(self, sq1, sq1_space):
        nloc = sq1_space.nloc
        nb = sq1.nt * nloc
        A = bielastic_matrix(sq1_space, None, LAM, MU)
        coo = A.tocoo()
        ti = (coo.row % nb) // nloc
        tj = (coo.col % nb) // nloc
        assert np.all(ti == tj)

    def test_assembly_is_deterministic(self, sq1_space):
        coeff = Coefficient.radial_quadratic(4.0)
        A = bielastic_matrix(sq1_space, coeff, LAM, MU)
        B = bielastic_matrix(sq1_space, coeff, LAM, MU)
        assert np.array_equal(A.data, B.data)
        assert np.array_equal(A.indices, B.indices)

    def test_positive_coefficient_check(self, sq1, sq1_space):
        """A form assembles any finite weight; the fourth-order block
        refuses a weight that is not positive, on both elements."""
        dips = Coefficient.affine(0.1, -1.0, 0.0)
        mass_matrix(sq1_space, dips)  # unchecked assembly is allowed
        ok = Coefficient.affine(8.0, 1.0, -1.0)
        for element in ("b3", "morley"):
            real = make_realization(sq1, element)
            with pytest.raises(ValueError,
                               match="weight must be positive.*minimum"):
                fourth_order_block(real, dips, LAM, MU)
            fourth_order_block(real, ok, LAM, MU)

    def test_quadrature_degree_tracks_coefficient(self, sq1_space,
                                                  monkeypatch):
        affine = Coefficient.affine(8.0, 1.0, -1.0)
        quad = Coefficient.radial_quadratic(4.0)
        forms = (lambda: mass_matrix(sq1_space, affine),
                 lambda: bielastic_matrix(sq1_space, quad, LAM, MU))
        auto = [form().toarray() for form in forms]
        monkeypatch.setattr(assembly, "_pick_degree",
                            lambda base, coeff: QUAD_DEGREES[-1])
        for form, low in zip(forms, auto):
            full = form().toarray()
            assert np.abs(low - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_form_is_refused(self, sq1_space):
        """A finite weight whose products overflow gives no inf or NaN
        entries: the form is refused."""
        huge = Coefficient.expression("1e308*x1*x1+1")
        assert np.isfinite(huge(sq1_space.p0[:, 0], sq1_space.p0[:, 1])).all()
        with pytest.raises(ValueError, match="assembled form is not finite"):
            bielastic_matrix(sq1_space, huge, LAM, MU)


@pytest.fixture(scope="module")
def sq1_basis(sq1, b3_oracle):
    return b3_oracle(sq1)


@pytest.fixture(scope="module")
def sq1_vector_n(sq1_basis):
    return vector_transform(sq1_basis)


def max_abs(A):
    A = sparse.csr_matrix(A)
    return np.abs(A.data).max() if A.nnz else 0.0


class TestConformingIdentities:
    def test_scalar_laplace_equals_hessian(self, sq1_space, sq1_basis):
        N = sq1_basis
        n = sq1_space.ndof
        L = N.T @ laplace_matrix(sq1_space)[:n, :n] @ N
        H = N.T @ hessian_matrix(sq1_space)[:n, :n] @ N
        assert max_abs(L - H) <= 1e-10 * max_abs(L)

    def test_vector_laplace_equals_hessian(self, sq1_space, sq1_vector_n):
        N = sq1_vector_n
        L = N.T @ laplace_matrix(sq1_space) @ N
        H = N.T @ hessian_matrix(sq1_space) @ N
        assert max_abs(L - H) <= 1e-10 * max_abs(L)

    def test_mixed_graddiv_curlrot_vanishes(self, sq1_space, sq1_vector_n):
        N = sq1_vector_n
        X = N.T @ mixed_graddiv_curlrot_matrix(sq1_space) @ N
        GD = N.T @ graddiv_matrix(sq1_space) @ N
        assert max_abs(X) <= 1e-10 * max_abs(GD)

    def test_laplacian_split(self, sq1_space, sq1_vector_n):
        N = sq1_vector_n
        L = N.T @ laplace_matrix(sq1_space) @ N
        GD = N.T @ graddiv_matrix(sq1_space) @ N
        CR = N.T @ curlrot_matrix(sq1_space) @ N
        assert max_abs(L - GD - CR) <= 1e-10 * max_abs(L)

    def test_bielastic_norm_decomposition(self, sq1_space, sq1_vector_n):
        N = sq1_vector_n
        K = N.T @ bielastic_matrix(sq1_space, None, LAM, MU) @ N
        L = N.T @ laplace_matrix(sq1_space) @ N
        GD = N.T @ graddiv_matrix(sq1_space) @ N
        CR = N.T @ curlrot_matrix(sq1_space) @ N
        s = LAM + 2 * MU
        assert max_abs(K - s**2 * GD - MU**2 * CR) <= 1e-10 * max_abs(K)
        assert max_abs(
            K - MU**2 * L - (s**2 - MU**2) * GD
        ) <= 1e-10 * max_abs(K)

    def test_bielastic_dominates_scaled_laplacian(
        self, sq1_space, sq1_vector_n
    ):
        N = sq1_vector_n
        K = (N.T @ bielastic_matrix(sq1_space, None, LAM, MU) @ N).toarray()
        L = (N.T @ laplace_matrix(sq1_space) @ N).toarray()
        gap = np.linalg.eigvalsh(K - MU**2 * L)
        assert gap.min() >= -1e-9 * np.abs(K).max()

    def test_elastic_energy_positive_definite(self, sq1_space, sq1_vector_n):
        N = sq1_vector_n
        B = (N.T @ elastic_matrix(sq1_space, LAM, MU) @ N).toarray()
        ev = np.linalg.eigvalsh(B)
        assert ev.min() > 0

    def test_morley_elastic_energy_positive_definite(self, sq1):
        morley = build_morley(sq1)
        space = BrokenSpace(sq1, 2)
        N = vector_transform(morley)
        B = (N.T @ elastic_matrix(space, LAM, MU) @ N).toarray()
        ev = np.linalg.eigvalsh(B)
        assert ev.min() > 0


class TestErrorNorms:
    def test_representable_pair_has_zero_error(self, sq1_space):
        f1 = lambda x, y: x**3 - 2 * x * y + 1
        f2 = lambda x, y: y**2 * (x + 1)
        u = interpolate(sq1_space, f1, f2)
        exact = {
            "v": (f1, f2),
            "gx": (lambda x, y: 3 * x**2 - 2 * y, lambda x, y: y**2),
            "gy": (lambda x, y: -2 * x, lambda x, y: 2 * y * (x + 1)),
            "hxx": (lambda x, y: 6 * x, lambda x, y: 0 * x),
            "hxy": (lambda x, y: -2 + 0 * x, lambda x, y: 2 * y),
            "hyy": (lambda x, y: 0 * x, lambda x, y: 2 * (x + 1)),
        }
        norms = error_norms(sq1_space, u, exact)
        for key in ("l2", "h1", "h2"):
            assert norms[key] <= 1e-12

    def test_norms_of_polynomial_field(self, sq1_space):
        u = interpolate(
            sq1_space, lambda x, y: x**2 * y, lambda x, y: 0 * x
        )
        zero = lambda x, y: 0 * x
        exact = {k: (zero, zero) for k in
                 ("v", "gx", "gy", "hxx", "hxy", "hyy")}
        norms = error_norms(sq1_space, u, exact)
        x, y = sp.symbols("x y")
        p = x**2 * y

        def over_square(e):
            return float(sp.integrate(sp.integrate(e, (x, 0, 1)), (y, 0, 1)))

        l2 = math.sqrt(over_square(p**2))
        h1 = math.sqrt(over_square(sp.diff(p, x) ** 2 + sp.diff(p, y) ** 2))
        h2 = math.sqrt(
            over_square(
                sp.diff(p, x, 2) ** 2
                + 2 * sp.diff(p, x, y) ** 2
                + sp.diff(p, y, 2) ** 2
            )
        )
        assert norms["l2"] == pytest.approx(l2, rel=1e-12)
        assert norms["h1"] == pytest.approx(h1, rel=1e-12)
        assert norms["h2"] == pytest.approx(h2, rel=1e-12)

    def test_trig_l2_against_closed_form(self):
        mesh = square_mesh(3)
        space = BrokenSpace(mesh, 3)
        w1 = lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 3
        w2 = lambda x, y: np.sin(np.pi * x) ** 3 * np.sin(np.pi * y) ** 2
        u = np.zeros(2 * mesh.nt * space.nloc)
        norms = error_norms(space, u, {"v": (w1, w2)})
        # int sin^4 = 3/8 and int sin^6 = 5/16 on [0, 1]
        exact = math.sqrt(2 * (3 / 8) * (5 / 16))
        assert norms["l2"] == pytest.approx(exact, abs=1e-9)

    def test_load_sum_equals_integral(self):
        mesh = square_mesh(1)
        space = BrokenSpace(mesh, 3)
        rhs = load_vector(
            space, lambda x, y: 2 + x - y, lambda x, y: np.ones_like(x)
        )
        nb = mesh.nt * space.nloc
        # partition of unity per component
        assert rhs[:nb].sum() == pytest.approx(2.0, rel=1e-12)
        assert rhs[nb:].sum() == pytest.approx(1.0, rel=1e-12)


def smooth_exact():
    """Exact table of a non-polynomial two-component field, from sympy."""
    x, y = sp.symbols("x y")
    fields = (sp.exp(x - y / 2) * sp.sin(2 * x + y), sp.cos(x * y) + x)
    derivs = {"v": lambda w: w, "gx": lambda w: sp.diff(w, x),
              "gy": lambda w: sp.diff(w, y), "hxx": lambda w: sp.diff(w, x, 2),
              "hxy": lambda w: sp.diff(w, x, y),
              "hyy": lambda w: sp.diff(w, y, 2)}
    return {key: tuple(sp.lambdify((x, y), d(w), "numpy") for w in fields)
            for key, d in derivs.items()}


class TestReferenceContractedPath:
    """error_norms and load_vector against the per-basis table route of
    ``oracles``, on meshes whose inverse Jacobians have nonzero
    off-diagonal entries."""

    @pytest.fixture(scope="class", params=["b3", "morley"])
    def spaces(self, request):
        degree = 3 if request.param == "b3" else 2
        return [BrokenSpace(generate_domain(d, 2), degree)
                for d in ("equilateral-triangle", "l-shape")]

    def test_meshes_have_off_diagonal_jacobians(self, spaces):
        for space in spaces:
            J = space.Binv
            assert np.abs(J[:, 0, 1] - J[:, 1, 0]).max() > 1.0

    @pytest.mark.parametrize("keys", [
        ("v", "gx", "gy", "hxx", "hxy", "hyy"), ("v",),
        ("hxx", "hxy", "hyy"),
    ])
    def test_norms_match_tables(self, spaces, keys):
        exact = {k: v for k, v in smooth_exact().items() if k in keys}
        rng = np.random.default_rng(3)
        for space in spaces:
            u = rng.standard_normal(2 * space.ndof)
            got = error_norms(space, u, exact)
            want = error_norms_tables(space, u, exact)
            for norm in ("l2", "h1", "h2"):
                assert abs(got[norm] - want[norm]) <= 1e-13 * want[norm]
            assert (got["l2"] > 0) == ("v" in keys)
            assert (got["h2"] > 0) == ("hxx" in keys)

    def test_load_matches_tables(self, spaces):
        f1 = lambda x, y: np.exp(x - y / 2) * np.sin(2 * x + y)
        f2 = lambda x, y: np.cos(x * y) + x
        for space in spaces:
            got = load_vector(space, f1, f2)
            want = load_vector_tables(space, f1, f2)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_no_per_basis_tables(self, spaces, monkeypatch):
        """Neither routine falls back to BrokenSpace.tabulate."""
        def refuse(*args, **kwargs):
            raise AssertionError("per-basis physical tables were built")
        monkeypatch.setattr(BrokenSpace, "tabulate", refuse)
        space = spaces[0]
        u = np.ones(2 * space.ndof)
        norms = error_norms(space, u, smooth_exact())
        assert all(np.isfinite(v) for v in norms.values())
        one = lambda x, y: np.ones_like(x)
        assert np.isfinite(load_vector(space, one, one)).all()
