"""Constrained cubic space and Morley element.

The entity reduction is cross-checked against a dense SVD of the explicit
constraint matrix on small meshes (dimension and span equality), its row
rank is certified on every domain, and conforming functions are verified
against independent sympy edge integrals of the trace jumps.
"""

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from bielastic.mesh import DOMAINS, TriMesh, generate_domain
from bielastic.polybasis import edge_gauss, p3_shapes, triangle_quadrature
from bielastic.spaces import (
    BrokenSpace,
    _entity_variables,
    _phi_matrices,
    _slot_vars,
    build_morley,
    local_basis,
    reduce_entities,
    vector_transform,
)

from oracles import build_b3_constraints, kernel_basis


def single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return TriMesh(verts, tris, domain="unit-triangle", level=0, h=1.0)


class TestConstraintRows:
    def test_single_triangle_counts(self):
        cs = build_b3_constraints(single_triangle())
        assert cs.matrix.shape == (12, 10)
        kinds, counts = np.unique(cs.kinds, return_counts=True)
        table = dict(zip(kinds.tolist(), counts.tolist()))
        assert table == {
            "vertex-bdry": 3,
            "bdry-mean": 3,
            "bdry-n0": 3,
            "bdry-n1": 3,
        }

    def test_square_level0_counts(self):
        mesh = generate_domain("unit-square", 0)
        cs = build_b3_constraints(mesh)
        kinds, counts = np.unique(cs.kinds, return_counts=True)
        table = dict(zip(kinds.tolist(), counts.tolist()))
        assert table["vertex-int"] == 5
        assert table["vertex-bdry"] == 18
        assert table["jump-mean"] == 8
        assert table["jump-n0"] == 8
        assert table["jump-n1"] == 8
        assert table["bdry-mean"] == 8
        assert cs.nrows == 71
        assert cs.matrix.shape[1] == 80

    def test_row_support_is_local(self):
        mesh = generate_domain("l-shape", 1)
        cs = build_b3_constraints(mesh)
        per_row = np.diff(cs.matrix.tocsr().indptr)
        assert per_row.max() <= 20


class TestNullspaceOracle:
    """Dimension and span agreement of ``lift @ Z`` (Z a kernel basis of
    psi) with the dense SVD null space of the explicit constraint rows."""

    CASES = [
        ("unit-square", 0),
        ("unit-square", 1),
        ("right-triangle", 0),
        ("right-triangle", 1),
        ("equilateral-triangle", 0),
        ("l-shape", 0),
    ]

    @staticmethod
    def assert_same_space(mesh, b3_oracle):
        red = reduce_entities(mesh)
        ref = b3_oracle(mesh).toarray()
        assert red.dim == ref.shape[1]
        if red.dim == 0:
            return
        mine = red.lift @ kernel_basis(red.psi)
        stacked = np.hstack([ref, mine])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == red.dim
        # the lifted columns are independent
        assert np.linalg.matrix_rank(mine, tol=1e-8) == red.dim

    @pytest.mark.parametrize("domain,level", CASES)
    def test_matches_dense_svd(self, domain, level, b3_oracle):
        self.assert_same_space(generate_domain(domain, level), b3_oracle)

    def test_single_triangle_dim_zero(self, b3_oracle):
        mesh = single_triangle()
        red = reduce_entities(mesh)
        assert red.dim == 0
        assert red.lift.shape == (10, 0)
        assert b3_oracle(mesh).shape == (10, 0)

    def test_constraint_residual_small(self):
        mesh = generate_domain("unit-square", 2)
        C = build_b3_constraints(mesh).matrix
        red = reduce_entities(mesh)
        N = red.lift @ kernel_basis(red.psi)
        resid = C @ N
        assert np.abs(resid).max() <= 1e-10 * np.abs(N).max()

    def test_dimension_formulas(self, b3_oracle):
        """Scalar dims on these meshes: 4*Vi + T - 1 (the compatibility
        system has exactly two redundant rows)."""
        for domain, level in [("unit-square", 2), ("right-triangle", 2),
                              ("l-shape", 1), ("equilateral-triangle", 2)]:
            mesh = generate_domain(domain, level)
            vi = int(np.sum(~mesh.boundary_vertex))
            constrained = 4 * vi + mesh.nt - 1
            assert b3_oracle(mesh).shape[1] == constrained
            assert reduce_entities(mesh).dim == constrained


def full_compatibility_system(mesh):
    """All 2*nt compatibility rows over entity variables, triangle-major,
    each pair an orthonormal basis of the left null space of the
    triangle's entity-functional matrix; also the sweep order."""
    phi = _phi_matrices(mesh)
    vert_var, edge_var, nvars = _entity_variables(mesh)
    slot_vars = _slot_vars(mesh, vert_var, edge_var)
    G = np.zeros((2 * mesh.nt, nvars))
    for t in range(mesh.nt):
        pair = scipy.linalg.null_space(phi[t].T).T  # (2, 12)
        mask = slot_vars[t] >= 0
        G[2 * t:2 * t + 2, slot_vars[t][mask]] = pair[:, mask]
    cx = mesh.vertices[mesh.triangles, 0].mean(axis=1)
    cy = mesh.vertices[mesh.triangles, 1].mean(axis=1)
    return G, np.lexsort((cx, cy))


class TestCompatibilityRank:
    """Certifies the fixed row rule of ``reduce_entities``: the full
    system has exactly two dependencies, the last triangle's pair in sweep
    order carries both, and the returned ``psi`` has full row rank."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("domain", [
        "unit-square", "right-triangle", "equilateral-triangle", "l-shape",
    ])
    def test_dependencies_and_dropped_pair(self, domain, level):
        mesh = generate_domain(domain, level)
        G, order = full_compatibility_system(mesh)
        left = scipy.linalg.null_space(G.T)
        assert left.shape[1] == 2
        psi = reduce_entities(mesh).psi.toarray()
        assert psi.shape[0] == 2 * mesh.nt - 2
        assert np.linalg.matrix_rank(psi) == psi.shape[0]
        # both dependencies weight every triangle's pair equally, so the
        # dropped (last) pair's block is nonsingular
        dets = np.abs(np.linalg.det(left.reshape(mesh.nt, 2, 2)))
        assert np.allclose(mesh.nt * dets, 1.0, rtol=1e-8)
        assert mesh.nt * dets[order[-1]] > 0.5


class TestEntityReduction:
    """Structure of the entity reduction."""

    def test_dim_and_kernel_match(self, b3_oracle):
        mesh = generate_domain("unit-square", 1)
        basis = b3_oracle(mesh).toarray()
        red = reduce_entities(mesh)
        assert red.dim == basis.shape[1]
        # psi has full row rank and its kernel lifts onto the same space
        psi = red.psi.toarray()
        assert np.linalg.matrix_rank(psi, tol=1e-8) == psi.shape[0]
        _, _, vt = np.linalg.svd(psi)
        kern = vt[psi.shape[0]:].T
        lifted = red.lift @ kern
        stacked = np.hstack([basis, lifted])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == red.dim

    def test_lift_rows_are_local(self):
        red = reduce_entities(generate_domain("l-shape", 1))
        per_row = np.diff(red.lift.indptr)
        assert per_row.max() <= 12
        per_psi_row = np.diff(red.psi.indptr)
        assert per_psi_row.max() <= 12

    def test_vector_blocks(self):
        mesh = generate_domain("unit-square", 0)
        red = reduce_entities(mesh)
        lift_v = vector_transform(red.lift)
        psi_v = vector_transform(red.psi)
        assert lift_v.shape == (2 * red.lift.shape[0], 2 * red.nvars)
        assert psi_v.shape == (2 * red.psi.shape[0], 2 * red.nvars)


class TestLocalBasis:
    """The local basis W of ker(psi) that the cubic element solves in:
    one function per interior edge on the edge's three variables, three
    per interior vertex on its star."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_annihilates_psi_with_full_rank(self, domain, level):
        red = reduce_entities(generate_domain(domain, level))
        W = local_basis(red)
        assert W.shape == (red.nvars, red.dim)
        assert abs(red.psi @ W).max() <= 1e-13
        assert np.linalg.matrix_rank(W.toarray()) == red.dim

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_columns_live_on_one_edge_or_one_vertex_star(self, domain,
                                                         level):
        mesh = generate_domain(domain, level)
        red = reduce_entities(mesh)
        W = local_basis(red).tocsc()
        vert_var, edge_var, nvars = _entity_variables(mesh)
        edge_of = np.full(nvars, -1)
        vertex_of = np.full(nvars, -1)
        for e in np.flatnonzero(edge_var >= 0):
            edge_of[edge_var[e] + np.arange(3)] = e
        inner = np.flatnonzero(vert_var >= 0)
        vertex_of[vert_var[inner]] = inner
        stars = 0
        for j in range(W.shape[1]):
            rows = W.indices[W.indptr[j]:W.indptr[j + 1]]
            edges = set(edge_of[rows]) - {-1}
            verts = set(vertex_of[rows]) - {-1}
            if not verts and len(edges) == 1:
                continue  # one edge's three variables
            # one interior vertex: its value and its edges' variables
            centres = verts or set.intersection(
                *(set(mesh.edges[e]) for e in edges))
            assert len(centres) == 1
            (c,) = centres
            assert not mesh.boundary_vertex[c]
            assert all(c in mesh.edges[e] for e in edges)
            stars += 1
        assert stars == 3 * inner.size

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_spans_the_dense_kernel_of_psi(self, domain):
        red = reduce_entities(generate_domain(domain, 2))
        Z = kernel_basis(red.psi)
        W = local_basis(red).toarray()
        assert Z.shape[1] == red.dim
        assert np.linalg.matrix_rank(np.hstack([Z, W]), tol=1e-8) == red.dim


class TestConformingFunctions:
    """Random members of the space satisfy the defining continuity
    conditions, checked by independent integration."""

    def conforming_field(self, mesh, seed):
        red = reduce_entities(mesh)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(red.dim)
        g = kernel_basis(red.psi) @ u
        return red, (red.lift @ g).reshape(mesh.nt, 10)

    def test_vertex_values_agree(self):
        mesh = generate_domain("unit-square", 1)
        _, coeffs = self.conforming_field(mesh, 7)
        # Lagrange coefficient 0..2 is the vertex value
        values = {}
        for t in range(mesh.nt):
            for i in range(3):
                v = mesh.triangles[t, i]
                values.setdefault(v, []).append(coeffs[t, i])
        for v, vals in values.items():
            vals = np.array(vals)
            if mesh.boundary_vertex[v]:
                assert np.abs(vals).max() < 1e-10
            else:
                assert np.abs(vals - vals[0]).max() < 1e-10

    def test_edge_jumps_vanish_quadrature(self):
        """Five-point Gauss (finer than construction) on every edge."""
        mesh = generate_domain("l-shape", 1)
        _, coeffs = self.conforming_field(mesh, 11)
        shapes = p3_shapes()
        space = BrokenSpace(mesh, 3)
        s, w = edge_gauss(5)
        normals = mesh.edge_normals()
        lengths = mesh.edge_lengths()
        verts = mesh.vertices
        for e in range(mesh.ne):
            a, b = mesh.edges[e]
            pts = verts[a][None, :] + s[:, None] * (verts[b] - verts[a])
            sides = []
            for t in mesh.edge_tris[e]:
                if t < 0:
                    continue
                ref = (pts - space.p0[t]) @ space.Binv[t].T
                tab = shapes.tabulate(ref)
                val = tab["v"] @ coeffs[t]
                gref = np.stack([tab["gx"] @ coeffs[t],
                                 tab["gy"] @ coeffs[t]], axis=1)
                gphys = gref @ space.Binv[t]
                dn = gphys @ normals[e]
                sides.append((val, dn))
            if len(sides) == 2:
                dval = sides[0][0] - sides[1][0]
                ddn = sides[0][1] - sides[1][1]
            else:
                dval, ddn = sides[0]
            le = lengths[e]
            mean_jump = le * np.dot(w, dval)
            mom0 = le * np.dot(w, ddn)
            mom1 = le * np.dot(w, (s - 0.5) * ddn)
            assert abs(mean_jump) < 1e-10
            assert abs(mom0) < 1e-10
            assert abs(mom1) < 1e-10

    def test_edge_jumps_vanish_sympy(self):
        """Exact symbolic edge integrals on the coarse square mesh."""
        mesh = generate_domain("unit-square", 0)
        _, coeffs = self.conforming_field(mesh, 3)
        x1, x2, s = sp.symbols("x1 x2 s")
        shapes = p3_shapes()
        # per-triangle polynomial in physical coordinates
        tri_polys = []
        space = BrokenSpace(mesh, 3)
        for t in range(mesh.nt):
            Binv = sp.Matrix(space.Binv[t])
            p0 = sp.Matrix(space.p0[t])
            ref = Binv * (sp.Matrix([x1, x2]) - p0)
            mono = sp.Matrix(
                [ref[0] ** a * ref[1] ** b
                 for a, b in shapes.exponents]
            )
            poly = (sp.Matrix(shapes.coeffs.T) * mono).T * sp.Matrix(
                coeffs[t]
            )
            tri_polys.append(sp.expand(poly[0]))
        for e in range(mesh.ne):
            a, b = mesh.edges[e]
            va, vb = mesh.vertices[a], mesh.vertices[b]
            xs = va[0] + s * (vb[0] - va[0])
            ys = va[1] + s * (vb[1] - va[1])
            n = mesh.edge_normals()[e]
            terms = []
            for t in mesh.edge_tris[e]:
                if t < 0:
                    continue
                p = tri_polys[t]
                dn = n[0] * sp.diff(p, x1) + n[1] * sp.diff(p, x2)
                terms.append((
                    p.subs({x1: xs, x2: ys}),
                    dn.subs({x1: xs, x2: ys}),
                ))
            if len(terms) == 2:
                jv = terms[0][0] - terms[1][0]
                jd = terms[0][1] - terms[1][1]
            else:
                jv, jd = terms[0]
            for integrand in (jv, jd, (s - sp.Rational(1, 2)) * jd):
                val = float(sp.integrate(integrand, (s, 0, 1)))
                assert abs(val) < 1e-10


class TestBrokenSpace:
    def test_geometry_inverse(self):
        mesh = generate_domain("equilateral-triangle", 1)
        space = BrokenSpace(mesh, 3)
        prod = np.einsum("tij,tjk->tik", space.Binv, space.B)
        eye = np.broadcast_to(np.eye(2), prod.shape)
        assert np.abs(prod - eye).max() < 1e-13
        assert np.abs(space.detB - 2 * mesh.signed_areas()).max() < 1e-15

    def test_physical_points_affine_map(self):
        """p0 + B xi per triangle, on a sheared and jittered mesh and on a
        triangle range."""
        base = generate_domain("unit-square", 2)
        rng = np.random.default_rng(11)
        jitter = 0.2 * base.h * rng.uniform(-1, 1, base.vertices.shape)
        jitter[base.boundary_vertex] = 0.0
        verts = (base.vertices + jitter) @ np.array([[1.0, 0.3], [0.5, 1.2]])
        mesh = TriMesh(verts, base.triangles, domain="skewed", level=2,
                       h=base.h)
        space = BrokenSpace(mesh, 3)
        xi = triangle_quadrature(10).points
        got = space.physical_points(xi)
        want = np.stack([space.p0[t] + xi @ space.B[t].T
                         for t in range(mesh.nt)])
        assert got.shape == (mesh.nt, len(xi), 2)
        assert np.abs(got - want).max() <= 1e-15
        part = space.physical_points(xi, slice(5, 9))
        assert np.abs(part - want[5:9]).max() <= 1e-15

    def test_physical_derivatives_sympy(self):
        """Push-forward of gradients and Hessians on a skewed triangle."""
        verts = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]])
        tris = np.array([[0, 1, 2]])
        mesh = TriMesh(verts, tris, domain="unit-triangle", level=0, h=1.0)
        space = BrokenSpace(mesh, 3)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(10)
        x1, x2 = sp.symbols("x1 x2")
        Binv = sp.Matrix(space.Binv[0])
        p0 = sp.Matrix(space.p0[0])
        ref = Binv * (sp.Matrix([x1, x2]) - p0)
        shapes = space.shapes
        mono = sp.Matrix(
            [ref[0] ** a * ref[1] ** b for a, b in shapes.exponents]
        )
        poly = ((sp.Matrix(shapes.coeffs.T) * mono).T * sp.Matrix(c))[0]
        pts_ref = np.array([[0.25, 0.25], [0.1, 0.6], [0.3, 0.3]])
        tab = space.tabulate(pts_ref)
        pts_phys = space.physical_points(pts_ref)[0]
        for q, (px, py) in enumerate(pts_phys):
            subs = {x1: px, x2: py}
            assert float(poly.subs(subs)) == pytest.approx(
                float(tab["v"][0, q] @ c), abs=1e-10
            )
            assert float(sp.diff(poly, x1).subs(subs)) == pytest.approx(
                float(tab["gx"][0, q] @ c), abs=1e-9
            )
            assert float(sp.diff(poly, x2).subs(subs)) == pytest.approx(
                float(tab["gy"][0, q] @ c), abs=1e-9
            )
            assert float(sp.diff(poly, x1, 2).subs(subs)) == pytest.approx(
                float(tab["hxx"][0, q] @ c), abs=1e-8
            )
            assert float(sp.diff(poly, x1, x2).subs(subs)) == pytest.approx(
                float(tab["hxy"][0, q] @ c), abs=1e-8
            )
            assert float(sp.diff(poly, x2, 2).subs(subs)) == pytest.approx(
                float(tab["hyy"][0, q] @ c), abs=1e-8
            )


class TestMorley:
    def test_dimension_square_level0(self):
        mesh = generate_domain("unit-square", 0)
        morley = build_morley(mesh)
        assert morley.shape[1] == 9  # one interior vertex, eight interior edges

    def test_dimension_formula(self):
        for domain, level in [("unit-square", 2), ("l-shape", 1),
                              ("right-triangle", 2)]:
            mesh = generate_domain(domain, level)
            morley = build_morley(mesh)
            vi = int(np.sum(~mesh.boundary_vertex))
            ei = int(np.sum(~mesh.boundary_edge))
            assert morley.shape[1] == vi + ei

    def test_shared_functionals_agree(self):
        mesh = generate_domain("unit-square", 1)
        morley = build_morley(mesh)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(morley.shape[1])
        coeffs = (morley @ u).reshape(mesh.nt, 6)
        space = BrokenSpace(mesh, 2)
        mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        tab = space.tabulate(mids)
        normals = mesh.edge_normals()
        # vertex values agree (Lagrange coefficients at vertices)
        for v in range(mesh.nv):
            vals = [
                coeffs[t, i]
                for t in range(mesh.nt)
                for i in range(3)
                if mesh.triangles[t, i] == v
            ]
            vals = np.array(vals)
            if mesh.boundary_vertex[v]:
                assert np.abs(vals).max() < 1e-11
            else:
                assert np.abs(vals - vals[0]).max() < 1e-11
        # midpoint normal derivative agrees across every interior edge
        for e in range(mesh.ne):
            sides = []
            for t in mesh.edge_tris[e]:
                if t < 0:
                    continue
                k = int(np.where(mesh.tri_edges[t] == e)[0][0])
                g = np.array([
                    tab["gx"][t, k] @ coeffs[t],
                    tab["gy"][t, k] @ coeffs[t],
                ])
                sides.append(float(g @ normals[e]))
            if len(sides) == 2:
                assert abs(sides[0] - sides[1]) < 1e-11
            else:
                assert abs(sides[0]) < 1e-11

    def test_reproduces_quadratic_locally(self):
        """Setting the six functionals of q on one triangle recovers q."""
        verts = np.array([[0.0, 0.0], [1.1, 0.2], [0.3, 0.9]])
        tris = np.array([[0, 1, 2]])
        mesh = TriMesh(verts, tris, domain="unit-triangle", level=0, h=1.0)
        space = BrokenSpace(mesh, 2)

        def q(x, y):
            return 1.0 + 2.0 * x - y + 0.5 * x * x + x * y - 0.25 * y * y

        def gq(x, y):
            return np.array([2.0 + x + y, -1.0 + x - 0.5 * y])

        mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        tabm = space.tabulate(mids)
        normals = mesh.edge_normals()
        # functional values of q
        fvals = np.empty(6)
        for i in range(3):
            fvals[i] = q(*verts[i])
        for k in range(3):
            e = mesh.tri_edges[0, k]
            a, b = mesh.edges[e]
            mid = 0.5 * (verts[a] + verts[b])
            fvals[3 + k] = gq(*mid) @ normals[e]
        dual = np.zeros((6, 6))
        dual[:3, :3] = np.eye(3)
        for k in range(3):
            e = mesh.tri_edges[0, k]
            g = np.stack([tabm["gx"][0, k], tabm["gy"][0, k]], axis=1)
            dual[3 + k] = g @ normals[e]
        coeffs = np.linalg.solve(dual, fvals)
        pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.1, 0.7], [1 / 3, 1 / 3]])
        tab = space.tabulate(pts)
        phys = space.physical_points(pts)[0]
        vals = tab["v"][0] @ coeffs
        expect = np.array([q(px, py) for px, py in phys])
        assert np.abs(vals - expect).max() < 1e-12


class TestVectorTransform:
    def test_block_structure(self, b3_oracle):
        N = b3_oracle(generate_domain("unit-square", 0))
        NV = vector_transform(N)
        n_broken, ndof = N.shape
        assert NV.shape == (2 * n_broken, 2 * ndof)
        diff = NV[:n_broken, :ndof] - N
        assert np.abs(diff.toarray()).max() == 0.0
        assert NV[:n_broken, ndof:].nnz == 0
