import hashlib
import io
import math

import numpy as np
import pytest

from bielastic.mesh import (
    DOMAIN_AREAS,
    DOMAINS,
    TriMesh,
    generate_domain,
    refine_uniform,
)


# (domain, level) -> (nv, nt, ne)
KNOWN_COUNTS = {
    ("unit-square", 0): (9, 8, 16),
    ("l-shape", 0): (8, 6, 13),
    ("right-triangle", 0): (6, 4, 9),
    ("equilateral-triangle", 0): (6, 4, 9),
}


@pytest.mark.parametrize("domain,level", sorted(KNOWN_COUNTS))
def test_coarse_counts(domain, level):
    mesh = generate_domain(domain, level)
    assert (mesh.nv, mesh.nt, mesh.ne) == KNOWN_COUNTS[(domain, level)]
    assert mesh.h == 0.5


def test_refinement_counts_square():
    mesh = generate_domain("unit-square", 0)
    fine = refine_uniform(mesh)
    assert fine.nt == 32
    assert fine.nv == 25
    assert fine.ne == 56
    assert fine.h == 0.25


def test_level5_square_counts():
    mesh = generate_domain("unit-square", 5)
    assert mesh.nt == 8192
    assert mesh.h == 1.0 / 64.0
    assert mesh.nv == 65 * 65
    assert mesh.ne == mesh.nv + mesh.nt - 1


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("level", [0, 1, 2])
def test_euler_and_area(domain, level):
    mesh = generate_domain(domain, level)
    assert mesh.nv - mesh.ne + mesh.nt == 1
    assert abs(mesh.signed_areas().sum() - DOMAIN_AREAS[domain]) < 1e-14
    assert np.all(mesh.signed_areas() > 0)


@pytest.mark.parametrize("domain", DOMAINS)
def test_min_angle_preserved(domain):
    # red refinement produces similar triangles, so the minimum angle of the
    # coarse mesh is preserved exactly
    coarse = generate_domain(domain, 0)
    fine = generate_domain(domain, 3)
    assert abs(coarse.min_angle() - fine.min_angle()) < 1e-12


def test_h_halving_and_hmax():
    m0 = generate_domain("unit-square", 0)
    m1 = refine_uniform(m0)
    assert m1.h == m0.h / 2
    # criss cells: longest edge is the cell diagonal
    assert abs(m0.edge_lengths().max() - math.sqrt(2) / 2) < 1e-15


def test_edges_sorted_and_deterministic():
    mesh = generate_domain("l-shape", 2)
    e = mesh.edges
    assert np.all(e[:, 0] < e[:, 1])
    order = np.lexsort((e[:, 1], e[:, 0]))
    assert np.array_equal(order, np.arange(len(e)))
    again = generate_domain("l-shape", 2)
    assert np.array_equal(mesh.edges, again.edges)
    assert np.array_equal(mesh.triangles, again.triangles)
    assert np.array_equal(mesh.vertices, again.vertices)


def test_edge_orientation_convention():
    mesh = generate_domain("unit-square", 1)
    t = mesh.edge_tangents()
    n = mesh.edge_normals()
    # normal is the clockwise rotation of the tangent
    assert np.allclose(n[:, 0], t[:, 1])
    assert np.allclose(n[:, 1], -t[:, 0])
    assert np.allclose((t * n).sum(axis=1), 0.0)


def test_boundary_flags_square():
    mesh = generate_domain("unit-square", 1)
    nb = int(mesh.boundary_edge.sum())
    assert nb == 16  # 4 sides x 4 segments at h = 1/4
    assert int(mesh.boundary_vertex.sum()) == 16
    # interior vertex count for the 5x5 grid
    assert int((~mesh.boundary_vertex).sum()) == 9


def test_edge_tris_consistent():
    mesh = generate_domain("right-triangle", 2)
    for e in range(mesh.ne):
        tris = [t for t in mesh.edge_tris[e] if t >= 0]
        assert len(tris) == (1 if mesh.boundary_edge[e] else 2)
        for t in tris:
            assert e in mesh.tri_edges[t]


def test_edge_tris_match_the_per_triangle_loop():
    """The reference: each edge's triangles in the order a loop over the
    triangles and their local edges meets them, here on a mesh whose
    triangles are shuffled."""
    base = generate_domain("l-shape", 2)
    order = np.random.default_rng(3).permutation(base.nt)
    mesh = TriMesh(base.vertices, base.triangles[order], "l-shape", base.h)
    want = np.full((mesh.ne, 2), -1)
    count = np.zeros(mesh.ne, dtype=int)
    for t in range(mesh.nt):
        for e in mesh.tri_edges[t]:
            want[e, count[e]] = t
            count[e] += 1
    assert np.array_equal(mesh.edge_tris, want)
    assert np.array_equal(mesh.boundary_edge, count == 1)


def test_dump_mesh_format():
    mesh = generate_domain("unit-square", 0)
    buf = io.StringIO()
    from bielastic.mesh import dump_mesh

    dump_mesh(mesh, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "vertices 9"
    assert lines[10] == "triangles 8"
    assert lines[19] == "edges 16"
    # coordinates parse back exactly
    x, y = lines[1].split()
    assert float(x) == mesh.vertices[0, 0]
    assert len(lines) == 1 + 9 + 1 + 8 + 1 + 16


def test_level_cap_and_bad_domain():
    with pytest.raises(ValueError):
        generate_domain("unit-square", 99)
    with pytest.raises(ValueError):
        generate_domain("hexagon", 1)


MESH_ARRAYS = ("vertices", "triangles", "edges", "tri_edges", "edge_tris",
               "boundary_edge", "boundary_vertex")

# sha256 over levels 0-5 of every array in MESH_ARRAYS with its dtype and
# shape; the numbering and coordinates that the reference errors and
# eigenvalues were recorded on
MESH_DIGESTS = {
    "unit-square":
        "4afa557d5f984d0725501c172490ee8cee31ce074ad0ff59db5f59cd8f20838b",
    "right-triangle":
        "363baf189cbc5ebb116c5f9ab80d60925eacdcb57746bc4225daa16fac3d542f",
    "equilateral-triangle":
        "04f6f29fde35f2166727cbdde6ff654bb3d2820a7b27ee540f44730ddda4c20e",
    "l-shape":
        "b13b9dc17ed1f74184cc54f24dacef7b4ed0623f217e0cd57bf67fbf255ac628",
}


@pytest.mark.parametrize("domain", DOMAINS)
def test_meshes_are_bit_for_bit_the_recorded_ones(domain):
    digest = hashlib.sha256()
    for level in range(6):
        mesh = generate_domain(domain, level)
        for name in MESH_ARRAYS:
            array = getattr(mesh, name)
            digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
            digest.update(array.tobytes())
    assert digest.hexdigest() == MESH_DIGESTS[domain]


@pytest.mark.parametrize("vertices, triangles, message", [
    # three triangles on the edge (0, 1)
    ([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]],
     [[0, 1, 2], [1, 0, 4], [0, 1, 3]], "non-manifold edge detected"),
    ([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]],
     "triangle with non-positive area (orientation?)"),
    ([[0, 0], [1, 0], [0, 1], [2, 0], [3, 0], [2, 1]],
     [[0, 1, 2], [3, 4, 5]], "Euler characteristic 2 != 1"),
])
def test_invalid_meshes_are_refused(vertices, triangles, message):
    with pytest.raises(ValueError) as info:
        TriMesh(vertices, triangles, domain="custom", h=1.0)
    assert str(info.value) == message
