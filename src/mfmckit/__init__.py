"""Exact toolkit for the max-flow min-cut property of clutters.

Decides MFMC through the Rees cone: the clutter has the property
exactly when the covering polyhedron has integral vertices and the
Rees algebra of the edge ideal is normal.  All arithmetic is exact.
"""

from .clutters import (
    Clutter,
    ExponentMatrix,
    MinorSpec,
    NonMinor,
    all_minors,
    clutter_from_edges,
    covering_number,
    enumerate_clutters,
    koenig,
    matching_number,
    minimal_vertex_covers,
    minor,
    packing_property,
    validate,
)
from .cones import (
    FacetClassification,
    QAPolyhedron,
    RationalCone,
    ReesCone,
    attach_facets,
    cone_member,
    dualize,
    facet_normals,
    is_integral_qa,
    qa_vertices_direct,
    qa_vertices_via_rees,
    rees_cone,
    support_hyperplanes,
)
from .decisions import (
    EquivalenceReport,
    NtfResult,
    ScanReport,
    TdiReport,
    Verdict,
    class_scan,
    conjecture_scan,
    decide_mfmc,
    gr_reduced,
    integrality_equivalences,
    ntf_check,
    tdi_bounded_check,
)
from .hilbert import (
    SmithInvariants,
    hilbert_basis,
    is_normal,
    semigroup_member,
    smith_invariants,
)
from .ideals import (
    MonomialIdealGens,
    closure_power,
    ideal_equal,
    membership,
    ordinary_power,
    symbolic_power,
)
from .reporting import (
    InputDocument,
    Report,
    analyze,
    parse_input,
    render_text,
    report_from_json,
    report_to_json,
)

__version__ = "0.1.0"
