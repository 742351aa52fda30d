"""Nonconforming finite elements for fourth-order elastic problems.

Solves the bi-elastic source and eigenvalue problems and the elastic
transmission eigenvalue problem on structured triangular meshes, using a
constrained piecewise-cubic space (element id ``b3``) and a stabilized
Morley element.
"""

__version__ = "0.1.0"

from .mesh import DOMAINS, TriMesh, dump_mesh, generate_domain, refine_uniform
from .spaces import (
    BrokenSpace,
    EntityReduction,
    build_morley,
    reduce_entities,
)
from .coefficients import Coefficient, as_coefficient, combine
from .eigen import EigResult, eig_quadratic, eig_sym_constrained
from .solvers import (
    B3Realization,
    MorleyRealization,
    SourceResult,
    TepBlocks,
    TepRoot,
    coefficient_range,
    detect_density_case,
    find_teps_quadratic,
    find_teps_secant,
    fourth_order_block,
    make_realization,
    solve_bielastic_eigs,
    solve_source,
)
from .harness import (
    DEFAULT_LEVELS,
    EXAMPLES,
    ExampleDef,
    ExperimentReport,
    eig_order,
    run_example,
    self_test,
    source_order,
)

__all__ = [
    "DOMAINS",
    "TriMesh",
    "dump_mesh",
    "generate_domain",
    "refine_uniform",
    "BrokenSpace",
    "EntityReduction",
    "build_morley",
    "reduce_entities",
    "Coefficient",
    "as_coefficient",
    "combine",
    "EigResult",
    "eig_quadratic",
    "eig_sym_constrained",
    "B3Realization",
    "MorleyRealization",
    "SourceResult",
    "TepBlocks",
    "TepRoot",
    "coefficient_range",
    "detect_density_case",
    "find_teps_quadratic",
    "find_teps_secant",
    "fourth_order_block",
    "make_realization",
    "solve_bielastic_eigs",
    "solve_source",
    "DEFAULT_LEVELS",
    "EXAMPLES",
    "ExampleDef",
    "ExperimentReport",
    "eig_order",
    "run_example",
    "self_test",
    "source_order",
    "__version__",
]
