"""Shared oracle: the constrained cubic space as the dense SVD null space
of its explicit constraint rows, independent of the entity reduction."""

import numpy as np
import pytest
import scipy.sparse as sparse

from oracles import build_b3_constraints


def dense_nullspace(matrix, tol=1e-9):
    dense = matrix.toarray()
    u, s, vt = np.linalg.svd(dense)
    smax = s.max() if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return vt[rank:].T


def b3_oracle_basis(mesh):
    """Orthonormal basis of the b3 space over broken-P3 coefficients (one
    scalar component), as a sparse matrix."""
    matrix = build_b3_constraints(mesh).matrix
    return sparse.csr_matrix(dense_nullspace(matrix))


@pytest.fixture(scope="session")
def b3_oracle():
    return b3_oracle_basis
