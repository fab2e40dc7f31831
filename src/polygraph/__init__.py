"""polygraph: the digraph of a bivariate complex polynomial.

The zero set of Phi(x, y) becomes a digraph on the complex plane with an
arc (u, v) of multiplicity m whenever v is an m-fold root of Phi(u, y).
This package analyzes the singular structure of such digraphs, explores
and classifies their components, synthesizes polynomials realizing target
digraphs, and probes the conjecture that all non-singular components are
isomorphic.
"""

from .analyzer import (
    AppliedStep,
    Failure,
    SingularInventory,
    StandardReport,
    StepKind,
    analyze,
    singular_inventory,
    singular_vertex_values,
    standardize,
)
from .bipoly import BiPoly
from .errors import PolygraphError
from .explorer import (
    Budget,
    ExploredDigraph,
    Shape,
    ShapeLabel,
    classify,
    explore_component,
    explore_strong_component,
    export,
    in_neighbors,
    is_isomorphic,
    labels_equivalent,
    neighbors,
    out_neighbors,
)
from .moebius import (
    Deg1Kind,
    Deg1Verdict,
    Mobius,
    cayley_mobius,
    check_condition,
    classify_deg1,
    cycle_condition,
    from_poly,
    mobius_inversion,
    mobius_rotation,
    projective_order,
    reference_table_diff,
    to_poly,
)
from .probe import ProbeResult, probe_conjecture
from .quadratic import (
    QuadCase,
    QuadReport,
    QuadShape,
    QuadSym,
    classify_deg2,
    component_cycle_length,
    cosine_recognize,
    normalize,
    recurrence_orbit,
    singular_inventory_quad,
)
from .rootfind import poly_from_roots, roots, roots_batch
from .scalars import GaussRat
from .synthesis import (
    FiniteDigraph,
    Factorization,
    Form,
    FormVerdict,
    bipartite_poly,
    cayley_additive,
    cayley_multiplicative,
    circulant_poly,
    complete_graph_poly,
    digraph_to_poly,
    dihedral_poly,
    interpolate_factor,
    one_factorization,
    prism_poly,
    recognize_form,
)
from .textio import bipoly_from_json, bipoly_to_json, format_bipoly, parse, parse_scalar
from .unipoly import UniPoly, lagrange_interpolate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
