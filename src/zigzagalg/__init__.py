"""Zigzag algebras of graphs: exact derivation spaces and HH^0 / HH^1.

The package computes, entirely in exact arithmetic, the zigzag algebra of a
simple connected graph, its center, its spaces of derivations (plus jordan
and anti variants), its inner derivations, and the dimensions of the two
lowest Hochschild cohomology groups; for trees it certifies the closed
formulas dim Der = 3n - 2, dim Inner = 3n - 3 and dim HH^1 = 1 by two
independent computation routes.  :func:`analyze_graph` runs all of it on one
graph and returns a :class:`Report`.
"""

from .analysis import Report, analyze_graph
from .exactlin import (
    FieldMismatchError,
    PrimeField,
    RATIONALS,
    Rationals,
    nullspace_basis,
    parse_field,
    rref,
    span_dim,
    span_equal,
)
from .linmaps import (
    CharacteristicTwoError,
    InternalInvariantError,
    MapSpace,
    ad_map,
    inner_space,
    leibniz_system,
    materialize,
    solve,
    structured_parameter_basis,
    structured_space,
    verify_map,
)
from .quiver import (
    Graph,
    GraphParseError,
    Xorshift64Star,
    parse_graph,
    path_graph,
    random_tree,
    serialize_graph,
    star_graph,
    validate,
)
from .zigzag import (
    ZigzagAlgebra,
    build_algebra,
    center,
    check_associativity,
    multiply,
    with_patched_table,
)

# the public names imported above, less the submodules that importing binds
__all__ = [name for name in dir() if name[0] != "_" and name not in ("analysis", "exactlin", "linmaps", "quiver", "zigzag")]
