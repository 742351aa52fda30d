"""Structured triangular meshes on the built-in polygonal domains.

Every domain is meshed the same way: a literal coarse mesh followed by
uniform red refinements.  The unit square's coarse mesh is the 2 x 2 criss
pattern (each cell split along its lower-left to upper-right diagonal); the
l-shape's is the same mesh without its upper-right cell, whose vertex and two
triangles come last; each triangle domain is one triangle refined once.
Level ``l`` has the structured cell parameter ``h = 2**-(l+1)``; refining
once halves ``h``.

Edges carry a global orientation from the lower to the higher vertex index,
and the unit normal is the 90-degree clockwise rotation of the unit tangent.
"""

import math

import numpy as np

DOMAINS = ("unit-square", "right-triangle", "equilateral-triangle", "l-shape")

DOMAIN_AREAS = {
    "unit-square": 1.0,
    "right-triangle": 0.5,
    "equilateral-triangle": math.sqrt(3.0) / 4.0,
    "l-shape": 0.75,
}

LEVEL_CAP = 8

# the 2 x 2 criss mesh of the unit square; the l-shape keeps the first 8
# vertices and the first 6 triangles
_SQUARE_VERTICES = np.array([
    [0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
    [0.0, 0.5], [0.5, 0.5], [1.0, 0.5],
    [0.0, 1.0], [0.5, 1.0], [1.0, 1.0],
])
_SQUARE_TRIANGLES = np.array([
    [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
    [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
])
_TRIANGLE_VERTICES = {
    "right-triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "equilateral-triangle": np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]),
}


class TriMesh:
    """Conforming triangulation with precomputed edge topology.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    edges : (ne, 2) int array
        Each row ``(a, b)`` with ``a < b``; rows sorted lexicographically.
    tri_edges : (nt, 3) int array
        Global edge id opposite each local vertex.
    edge_tris : (ne, 2) int array
        Adjacent triangle ids; second entry is -1 on the boundary.
    boundary_edge, boundary_vertex : bool arrays
    h : float
        Structured cell parameter ``2**-(level+1)`` (not the max edge; the
        diagonal of a cell is longer by sqrt(2)).
    """

    def __init__(self, vertices, triangles, domain, h):
        # copies: a mesh never shares the literal coarse arrays
        self.vertices = np.array(vertices, dtype=float)
        self.triangles = np.array(triangles, dtype=np.int64)
        self.domain = domain
        self.h = h
        self._build_topology()
        self._validate()

    @property
    def nv(self):
        return self.vertices.shape[0]

    @property
    def nt(self):
        return self.triangles.shape[0]

    @property
    def ne(self):
        return self.edges.shape[0]

    def _build_topology(self):
        tri = self.triangles
        nv = self.nv
        # local edge k is opposite local vertex k
        pairs = np.sort(tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
        # a * nv + b orders the pairs lexicographically
        keys, inverse, counts = np.unique(
            pairs[:, 0] * nv + pairs[:, 1],
            return_inverse=True, return_counts=True)
        if counts.max(initial=0) > 2:
            raise ValueError("non-manifold edge detected")
        self.edges = np.column_stack([keys // nv, keys % nv])
        self.tri_edges = inverse.reshape(self.nt, 3)

        # a stable sort keeps each edge's triangles in increasing order
        order = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts
        slot = np.arange(3 * self.nt) - np.repeat(first, counts)
        self.edge_tris = np.full((self.ne, 2), -1, dtype=np.int64)
        self.edge_tris[inverse[order], slot] = order // 3
        self.boundary_edge = counts == 1
        self.boundary_vertex = np.zeros(nv, dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True

    def _validate(self):
        if np.any(self.signed_areas() <= 0.0):
            raise ValueError("triangle with non-positive area (orientation?)")
        euler = self.nv - self.ne + self.nt
        if euler != 1:
            raise ValueError(f"Euler characteristic {euler} != 1")

    def signed_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.sqrt((d * d).sum(axis=1))

    def edge_tangents(self):
        """Unit tangents oriented from the lower to the higher vertex index."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return d / np.linalg.norm(d, axis=1)[:, None]

    def edge_normals(self):
        """Unit normals: the tangent rotated 90 degrees clockwise."""
        t = self.edge_tangents()
        return np.column_stack([t[:, 1], -t[:, 0]])

    def min_angle(self):
        p = self.vertices[self.triangles]
        ang = np.empty((self.nt, 3))
        for k in range(3):
            u = p[:, (k + 1) % 3] - p[:, k]
            v = p[:, (k + 2) % 3] - p[:, k]
            c = (u * v).sum(axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            ang[:, k] = np.arccos(np.clip(c, -1.0, 1.0))
        return float(ang.min())


def _coarse_mesh(domain):
    if domain in _TRIANGLE_VERTICES:
        one = TriMesh(_TRIANGLE_VERTICES[domain], [[0, 1, 2]], domain, 1.0)
        return refine_uniform(one)
    nv, nt = (9, 8) if domain == "unit-square" else (8, 6)
    return TriMesh(_SQUARE_VERTICES[:nv], _SQUARE_TRIANGLES[:nt], domain, 0.5)


def generate_domain(domain, level):
    """Structured mesh of ``domain`` at refinement ``level`` (h = 2**-(level+1))."""
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; choose from {DOMAINS}")
    if not 0 <= level <= LEVEL_CAP:
        raise ValueError(f"level must be in [0, {LEVEL_CAP}]")
    mesh = _coarse_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def refine_uniform(mesh):
    """Uniform red refinement: each triangle is split into four via its edge
    midpoints.  Children 0..2 sit at the parent vertices, child 3 is central."""
    mids = 0.5 * (
        mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]
    )
    verts = np.vstack([mesh.vertices, mids])
    a, b, c = mesh.triangles.T
    mab = mesh.nv + mesh.tri_edges[:, 2]
    mbc = mesh.nv + mesh.tri_edges[:, 0]
    mca = mesh.nv + mesh.tri_edges[:, 1]
    children = np.empty((4 * mesh.nt, 3), dtype=np.int64)
    children[0::4] = np.column_stack([a, mab, mca])
    children[1::4] = np.column_stack([mab, b, mbc])
    children[2::4] = np.column_stack([mca, mbc, c])
    children[3::4] = np.column_stack([mab, mbc, mca])
    return TriMesh(verts, children, mesh.domain, mesh.h / 2.0)


def dump_mesh(mesh, stream):
    """Plain-text dump: vertex, triangle, and edge sections, one entity per
    line, coordinates with 17 significant digits."""
    stream.write(f"vertices {mesh.nv}\n")
    for x, y in mesh.vertices:
        stream.write(f"{x:.17g} {y:.17g}\n")
    stream.write(f"triangles {mesh.nt}\n")
    for a, b, c in mesh.triangles:
        stream.write(f"{a} {b} {c}\n")
    stream.write(f"edges {mesh.ne}\n")
    for a, b in mesh.edges:
        stream.write(f"{a} {b}\n")
