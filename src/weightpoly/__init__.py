"""Exact geometry of spatial polygon moduli.

Builds the defining polytopes in several coordinate charts, extracts the toric
data attached to them (normal fans, vertex singularities, labeled facets), and
counts lattice points in dilates, checking the counts against representation
theoretic multiplicities.  All arithmetic is exact rational.
"""

from .builders import (ChartedSlice, GTSpec, SideData, admissible,
                       dual_side_data, entry_to_diag_map, fm_polytope, gt_hrep,
                       gt_slice, polygon_hrep)
from .counting import (DilateCounts, DualityInvariant, DualityReport,
                       EhrhartFit, IdentityCheck, IdentityReport,
                       MultiplicityQuery, count_dilates, ehrhart_fit,
                       real_fiber_size, verify_duality, verify_ehrhart_identity,
                       weight_multiplicity)
from .polytopes import (AffineMap, HPolytope, UnboundedPolytopeError, VPolytope,
                        affine_image, combinatorial_fingerprint, contains,
                        count_lattice_points, edges_at_vertex, empty_hrep,
                        h_to_v, lattice_points, polytope_dim, remove_redundant,
                        restrict_to_affine_hull, v_to_h)
from .reference import ReferenceClaim, ReferenceReport, reference_battery
from .toric import (Cone, FacetLabel, Fan, SingularityReport,
                    VertexSingularity, facet_labels, fan_fingerprint,
                    fan_to_json_dict, normal_fan, singularity_report)

__all__ = [
    "AffineMap", "ChartedSlice", "Cone", "DilateCounts", "DualityInvariant",
    "DualityReport", "EhrhartFit", "FacetLabel", "Fan", "GTSpec", "HPolytope",
    "IdentityCheck", "IdentityReport", "MultiplicityQuery", "ReferenceClaim",
    "ReferenceReport", "SideData", "SingularityReport",
    "UnboundedPolytopeError", "VPolytope", "VertexSingularity", "admissible",
    "affine_image", "combinatorial_fingerprint", "contains", "count_dilates",
    "count_lattice_points", "dual_side_data", "edges_at_vertex", "ehrhart_fit",
    "empty_hrep", "entry_to_diag_map", "facet_labels", "fan_fingerprint",
    "fan_to_json_dict", "fm_polytope", "gt_hrep", "gt_slice", "h_to_v",
    "lattice_points", "normal_fan", "polygon_hrep", "polytope_dim",
    "real_fiber_size", "reference_battery", "remove_redundant",
    "restrict_to_affine_hull", "singularity_report", "v_to_h", "verify_duality",
    "verify_ehrhart_identity", "weight_multiplicity",
]
