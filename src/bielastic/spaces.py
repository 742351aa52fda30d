"""Finite element spaces over broken per-triangle Lagrange bases.

Three layers live here:

* ``BrokenSpace``: discontinuous piecewise P2/P3 with per-triangle Lagrange
  coefficients and affine push-forward (``push_forward``) of
  values/gradients/Hessians, for every basis function (``tabulate``) or
  for one broken field (``field``).

* The constrained cubic space (element id ``b3``): piecewise cubics that are
  continuous at vertices, have edge-mean continuity of the value, and
  edge-moment continuity of the normal derivative against linears; boundary
  analogues vanish.  The broken constraints are reduced exactly to shared
  entity variables (vertex values plus three per-edge trace functionals)
  subject to two compatibility rows per triangle (``reduce_entities``),
  and ``local_basis`` gives the kernel of those rows a sparse basis with
  local support: one function per interior edge, three per interior
  vertex.

* The Morley element (``build_morley``): the quadratic element with vertex
  values and edge mean normal derivatives, built from per-triangle
  dual-basis inversion and numbered like the ``b3`` entity variables with
  one variable per edge.

Both conforming spaces come as a sparse map to broken coefficients (one
scalar component): ``lift`` from entity variables times the local basis
for ``b3`` and the map ``build_morley`` returns from the degrees of
freedom for Morley.
"""

import numpy as np
import scipy.sparse as sparse

from .polybasis import edge_gauss, p2_shapes, p3_shapes

# slot layout of the twelve entity functionals of a cubic on one triangle
SLOT_NAMES = (
    "v0", "v1", "v2",
    "m0", "n00", "n01",
    "m1", "n10", "n11",
    "m2", "n20", "n21",
)


class BrokenSpace:
    """Discontinuous piecewise polynomials, per-triangle Lagrange basis."""

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = degree
        self.shapes = p3_shapes() if degree == 3 else p2_shapes()
        self.nloc = self.shapes.ndof
        p = mesh.vertices[mesh.triangles]
        self.p0 = p[:, 0, :]
        self.B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        self.detB = (
            self.B[:, 0, 0] * self.B[:, 1, 1]
            - self.B[:, 0, 1] * self.B[:, 1, 0]
        )
        self.Binv = (
            np.stack(
                [
                    np.stack([self.B[:, 1, 1], -self.B[:, 0, 1]], axis=1),
                    np.stack([-self.B[:, 1, 0], self.B[:, 0, 0]], axis=1),
                ],
                axis=1,
            )
            / self.detB[:, None, None]
        )
        self._ref_cache = {}

    @property
    def ndof(self):
        """Scalar broken dimension."""
        return self.mesh.nt * self.nloc

    def ref_tables(self, points):
        """Reference basis tables (npoints, nloc) per key, cached."""
        key = points.tobytes()
        if key not in self._ref_cache:
            self._ref_cache[key] = self.shapes.tabulate(points)
        return self._ref_cache[key]

    def physical_points(self, ref_points, sel=slice(None)):
        """Physical points p0 + B xi, shape (ntriangles, npoints, 2)."""
        return self.p0[sel, None, :] + ref_points @ self.B[sel].transpose(
            0, 2, 1)

    def tabulate(self, ref_points, sel=slice(None)):
        """Physical values/derivatives of every basis function on a
        triangle range.

        Returns a mapping with keys v, gx, gy, hxx, hxy, hyy of shape
        (ntriangles, npoints, nloc); each table is built when it is
        first read.
        """
        return push_forward(self.Binv[sel, :, :, None, None],
                            self.ref_tables(ref_points))

    def field(self, coeffs, ref_points, sel=slice(None)):
        """Physical values/derivatives of one broken scalar field with
        coefficients ``coeffs`` (nt, nloc): the reference tables are
        contracted with the coefficients first, then pushed forward.  Keys
        as ``tabulate``, shape (ntriangles, npoints), built on first read.
        """
        ref = self.ref_tables(ref_points)
        c = coeffs[sel]
        contracted = _Tables({key: (lambda key=key: c @ ref[key].T)
                              for key in ref})
        return push_forward(self.Binv[sel, :, :, None], contracted)


def push_forward(J, ref):
    """Physical values and derivatives from reference ones under the
    affine map x = p0 + B xi: gradients by J^T, Hessians by J^T H J, with
    J = B^-1.  ``J`` carries trailing axes so that ``J[:, a, b]``
    broadcasts against the arrays of ``ref``, per-basis tables
    (npoints, nloc) or fields (ntriangles, npoints).  Each key is built on
    first read, from the reference arrays it needs."""
    j00, j01, j10, j11 = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    return _Tables({
        "v": lambda: np.broadcast_to(
            ref["v"], np.broadcast_shapes(j00.shape, ref["v"].shape)),
        "gx": lambda: j00 * ref["gx"] + j10 * ref["gy"],
        "gy": lambda: j01 * ref["gx"] + j11 * ref["gy"],
        "hxx": lambda: j00**2 * ref["hxx"] + 2 * j00 * j10 * ref["hxy"]
        + j10**2 * ref["hyy"],
        "hxy": lambda: j00 * j01 * ref["hxx"]
        + (j00 * j11 + j10 * j01) * ref["hxy"] + j10 * j11 * ref["hyy"],
        "hyy": lambda: j01**2 * ref["hxx"] + 2 * j01 * j11 * ref["hxy"]
        + j11**2 * ref["hyy"],
    })


class _Tables(dict):
    """Tables computed on first read, each by its builder."""

    def __init__(self, builders):
        super().__init__()
        self._builders = builders

    def __missing__(self, key):
        value = self[key] = self._builders[key]()
        return value


EDGE_POINTS = 3  # Gauss points per edge of the trace functionals


def _edge_functional_tables(mesh):
    """Per-triangle edge-functional rows of the local P3 basis.

    For triangle t and local edge k (opposite local vertex k) returns the
    rows of the three trace functionals, taken in the global orientation of
    the edge (lower to higher vertex index):

      mean value   (1/|e|) int_e v ds
      n-moment 0   int_e p0 dv/dn ds,   p0 = |e|**-1/2
      n-moment 1   int_e p1 dv/dn ds,   p1 = sqrt(12/|e|) * (s/|e| - 1/2)

    Shapes: (nt, 3, 10) each.
    """
    s, w = edge_gauss(EDGE_POINTS)
    refv = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # reference Gauss points for each (local edge, direction) pair
    ref_pts = np.empty((3, 2, EDGE_POINTS, 2))
    for k in range(3):
        a, b = refv[(k + 1) % 3], refv[(k + 2) % 3]
        ref_pts[k, 0] = a[None, :] + s[:, None] * (b - a)[None, :]
        ref_pts[k, 1] = b[None, :] + s[:, None] * (a - b)[None, :]
    nt = mesh.nt
    tab = BrokenSpace(mesh, 3).tabulate(ref_pts.reshape(-1, 2))
    val, gx, gy = (tab[key].reshape(nt, 3, 2, EDGE_POINTS, 10)
                   for key in ("v", "gx", "gy"))
    tri = mesh.triangles
    lengths = mesh.edge_lengths()
    normals = mesh.edge_normals()
    mean = np.empty((nt, 3, 10))
    mom0 = np.empty((nt, 3, 10))
    mom1 = np.empty((nt, 3, 10))
    shat = s - 0.5
    for k in range(3):
        e = mesh.tri_edges[:, k]
        # direction 0 if the global edge start is local vertex k+1
        fwd = (mesh.edges[e, 0] == tri[:, (k + 1) % 3]).astype(int)
        at = np.arange(nt), k, 1 - fwd
        v = val[at]                            # (nt, EDGE_POINTS, 10)
        dn = (gx[at] * normals[e, 0, None, None]
              + gy[at] * normals[e, 1, None, None])
        le = lengths[e][:, None]
        mean[:, k, :] = np.einsum("q,tql->tl", w, v)
        mom0[:, k, :] = np.sqrt(le) * np.einsum("q,tql->tl", w, dn)
        mom1[:, k, :] = (
            np.sqrt(12.0 * le) * np.einsum("q,q,tql->tl", w, shat, dn)
        )
    return mean, mom0, mom1


def _phi_matrices(mesh):
    """Entity-functional matrices Phi (nt, 12, 10) in SLOT_NAMES order."""
    mean, mom0, mom1 = _edge_functional_tables(mesh)
    nt = mesh.nt
    phi = np.zeros((nt, 12, 10))
    phi[:, 0, 0] = 1.0  # vertex values are Lagrange coefficients
    phi[:, 1, 1] = 1.0
    phi[:, 2, 2] = 1.0
    for k in range(3):
        phi[:, 3 + 3 * k + 0, :] = mean[:, k, :]
        phi[:, 3 + 3 * k + 1, :] = mom0[:, k, :]
        phi[:, 3 + 3 * k + 2, :] = mom1[:, k, :]
    return phi


def _entity_variables(mesh, per_edge=3):
    """Number the entity variables: vertex values first, then the
    ``per_edge`` functionals of every edge (the (mean, n-moment0,
    n-moment1) triple for ``b3``, the mean normal derivative for Morley).
    Boundary entities are fixed to zero and carry no variable."""
    vert_var = np.full(mesh.nv, -1, np.int64)
    edge_var = np.full(mesh.ne, -1, np.int64)
    keep_v = np.flatnonzero(~mesh.boundary_vertex)
    keep_e = np.flatnonzero(~mesh.boundary_edge)
    vert_var[keep_v] = np.arange(len(keep_v))
    edge_var[keep_e] = len(keep_v) + per_edge * np.arange(len(keep_e))
    nvars = len(keep_v) + per_edge * len(keep_e)
    return vert_var, edge_var, nvars


def _slot_vars(mesh, vert_var, edge_var, per_edge=3):
    """Entity variable id for every (triangle, slot): the three vertices,
    then ``per_edge`` slots per local edge; -1 on the boundary."""
    sv = np.full((mesh.nt, 3 + 3 * per_edge), -1, np.int64)
    for i in range(3):
        sv[:, i] = vert_var[mesh.triangles[:, i]]
    for k in range(3):
        base = edge_var[mesh.tri_edges[:, k]]
        ok = base >= 0
        for j in range(per_edge):
            sv[ok, 3 + per_edge * k + j] = base[ok] + j
    return sv


def _local_map(blocks, slot_vars, nvars):
    """Sparse map from entity variables to broken coefficients: row
    ``t * nloc + i`` takes ``blocks[t, i, s]`` from variable
    ``slot_vars[t, s]``, for every slot that carries a variable."""
    nt, nloc = blocks.shape[:2]
    t, i, s = np.nonzero((blocks != 0.0) & (slot_vars >= 0)[:, None, :])
    return sparse.csr_matrix(
        (blocks[t, i, s], (t * nloc + i, slot_vars[t, s])),
        shape=(nt * nloc, nvars),
    )


class EntityReduction:
    """The constrained cubic space in entity variables.

    The space is parameterized by entity variables g (vertex values and
    three trace functionals per edge) subject to the full-row-rank
    compatibility system ``psi @ g = 0``; broken-P3 coefficients are
    recovered locally as ``lift @ g``.  ``rows`` (nt, 2, 12) holds each
    triangle's two orthonormal compatibility rows over its slots, from
    which ``local_basis`` builds a basis of ker(psi).

    ``dim`` is the scalar dimension of the space (number of independent
    entity variables).
    """

    def __init__(self, mesh, nvars, psi, lift, rows):
        self.mesh = mesh
        self.nvars = nvars
        self.psi = psi
        self.lift = lift
        self.rows = rows

    @property
    def dim(self):
        return self.nvars - self.psi.shape[0]


def reduce_entities(mesh):
    """Exact reduction of the broken constraints to entity variables.

    The twelve entity functionals of a cubic on one triangle satisfy two
    linear relations (the left null space of its 12x10 functional
    matrix), giving two orthonormal compatibility rows per triangle (the
    SVD's left null vectors) over the entity variables; ``lift`` is the
    local reconstruction of broken coefficients from entity values (exact
    on compatible data).  Rows are swept in geometric strips (centroid y,
    then x).

    Boundary entities carry no variable.  With these boundary conditions
    the full system has exactly two dependencies, and both weight every
    triangle's pair of rows, so dropping the last triangle's pair leaves
    ``psi`` with full row rank.  The test suite certifies this rank
    against a dense SVD of the explicit constraint rows.  No solver uses
    ``psi``, which ``local_basis`` annihilates; it stays on the result as
    the tests' oracle, and the benchmark's tracer, which wraps this
    function by name, counts its rows.
    """
    phi = _phi_matrices(mesh)
    U, S, _ = np.linalg.svd(phi)
    if np.any(S[:, 9] <= 1e-8 * S[:, 0]):
        raise RuntimeError("degenerate triangle: trace functionals lost rank")
    local = U[:, :, 10:].transpose(0, 2, 1)  # (nt, 2, 12), orthonormal
    recon = np.linalg.pinv(phi)  # (nt, 10, 12)

    vert_var, edge_var, nvars = _entity_variables(mesh)
    slot_vars = _slot_vars(mesh, vert_var, edge_var)

    cx = mesh.vertices[mesh.triangles, 0].mean(axis=1)
    cy = mesh.vertices[mesh.triangles, 1].mean(axis=1)
    order = np.lexsort((cx, cy))[:-1]
    vals = local[order]
    cols = np.broadcast_to(slot_vars[order][:, None, :], vals.shape)
    row_ids = np.broadcast_to(
        np.arange(2 * order.size).reshape(-1, 2, 1), vals.shape
    )
    keep = (cols >= 0) & (vals != 0.0)
    psi = sparse.csr_matrix(
        (vals[keep], (row_ids[keep], cols[keep])),
        shape=(2 * order.size, nvars),
    )

    lift = _local_map(recon, slot_vars, nvars)
    return EntityReduction(mesh, nvars, psi, lift, local)


def local_basis(reduction):
    """Sparse basis W (nvars, dim) of ker(psi) with local support.

    psi W = 0 holds when each triangle's two rows vanish on W's columns.
    One function per interior edge: the null vector of the two adjacent
    triangles' rows (4x3) on the edge's three variables.  Three per
    interior vertex of degree d: the star's rows on the vertex value and
    the three variables of each of its d edges form a 2d x (1 + 3d) block
    of rank 2d - 2, whose kernel (dimension 3 + d) holds the star's d edge
    functions; with those stacked under the block, the null space is the
    three-dimensional rest.  By Euler's formula, ne_int + 3 nvi equals
    dim ker(psi).  Edge functions come first, then three columns per
    interior vertex in vertex order; vertices are batched by degree.
    """
    mesh, rows = reduction.mesh, reduction.rows
    vert_var, edge_var, nvars = _entity_variables(mesh)
    slot_vars = _slot_vars(mesh, vert_var, edge_var)

    edges = np.flatnonzero(~mesh.boundary_edge)
    tris = mesh.edge_tris[edges]                            # (ne_int, 2)
    k = np.argmax(mesh.tri_edges[tris] == edges[:, None, None], axis=2)
    slots = 3 + 3 * k[:, :, None, None] + np.arange(3)
    block = np.take_along_axis(rows[tris], slots, axis=3)   # (ne_int, 2, 2, 3)
    edge_fn = np.zeros((mesh.ne, 3))
    edge_fn[edges] = np.linalg.svd(block.reshape(-1, 4, 3))[2][:, -1]
    vals = [edge_fn[edges]]
    ids = [edge_var[edges][:, None] + np.arange(3)]
    cols = [np.repeat(np.arange(edges.size), 3)]

    # corners and edge ends of every vertex, grouped by vertex; an
    # interior vertex has as many edges as triangles
    verts = np.flatnonzero(~mesh.boundary_vertex)
    degree = np.bincount(mesh.triangles.ravel(), minlength=mesh.nv)
    first = np.cumsum(degree) - degree
    corners = np.argsort(mesh.triangles.ravel(), kind="stable")
    ends = np.argsort(mesh.edges.ravel(), kind="stable")
    ends_first = np.cumsum(np.bincount(mesh.edges.ravel(), minlength=mesh.nv))
    for d in np.unique(degree[verts]):
        v = verts[degree[verts] == d]
        at = np.arange(d)
        star = corners[first[v][:, None] + at] // 3               # (g, d)
        spokes = ends[ends_first[v][:, None] - d + at] // 2       # (g, d)
        var = np.concatenate([vert_var[v][:, None],
                              (edge_var[spokes][:, :, None]
                               + np.arange(3)).reshape(-1, 3 * d)], axis=1)
        match = slot_vars[star][..., None] == var[:, None, None, :]
        block = np.einsum("gjrs,gjsc->gjrc", rows[star], match)
        spread = np.zeros((v.size, d, 1 + 3 * d))  # the star's edge functions
        for j in range(d):
            spread[:, j, 1 + 3 * j:4 + 3 * j] = edge_fn[spokes[:, j]]
        stacked = np.concatenate(
            [block.reshape(v.size, 2 * d, 1 + 3 * d), spread], axis=1)
        rest = np.linalg.svd(stacked)[2][:, -3:]           # (g, 3, 1 + 3d)
        vals.append(rest)
        ids.append(np.broadcast_to(var[:, None, :], rest.shape))
        col = edges.size + 3 * vert_var[v][:, None] + np.arange(3)
        cols.append(np.repeat(col.ravel(), 1 + 3 * d))

    vals, ids, cols = (np.concatenate([a.ravel() for a in arrays])
                       for arrays in (vals, ids, cols))
    keep = vals != 0.0
    return sparse.csr_matrix((vals[keep], (ids[keep], cols[keep])),
                             shape=(nvars, edges.size + 3 * verts.size))


def build_morley(mesh):
    """Map from the Morley degrees of freedom (vertex values and edge mean
    normal derivatives in the global edge orientation, boundary ones
    removed) to broken P2 coefficients of one scalar component."""
    # mean normal derivative of a quadratic equals its midpoint value
    mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
    tab = BrokenSpace(mesh, 2).tabulate(mids)
    normals = mesh.edge_normals()
    nt = mesh.nt
    dual = np.zeros((nt, 6, 6))
    dual[:, 0, 0] = dual[:, 1, 1] = dual[:, 2, 2] = 1.0
    for k in range(3):
        e = mesh.tri_edges[:, k]
        dual[:, 3 + k, :] = (
            tab["gx"][:, k] * normals[e, 0, None]
            + tab["gy"][:, k] * normals[e, 1, None]
        )
    blocks = np.linalg.inv(dual)  # coefficients from functional values
    vert_var, edge_var, ndof = _entity_variables(mesh, per_edge=1)
    slot_vars = _slot_vars(mesh, vert_var, edge_var, per_edge=1)
    return _local_map(blocks, slot_vars, ndof)


def vector_transform(transform):
    """Two-component transform (component-major block layout)."""
    return sparse.block_diag((transform, transform), format="csr")
