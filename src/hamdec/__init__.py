"""hamdec: approximate Hamilton decompositions of dense graphs near two
cliques or a complete balanced bipartite graph, with checkable
certificates.

The package constructively extends a family of exceptional systems
(sparse path systems covering the exceptional vertices) into many
edge-disjoint Hamilton cycles, or perfect-matching pairs, of the host
graph.  Every pipeline output ships with a certificate that an
independent verifier recomputes from raw edge lists.
"""

from .core import (ClusterCycle, ClusterPartition, Digraph, Multigraph,
                   OrderedDirectedMatching, cycle_to_perfect_matchings,
                   is_consistent_with, is_locally_balanced,
                   verify_hamilton_cycle, winds_around)
from .classic import (bipartite_hamilton_decompose, pair_matrix,
                      regular_bipartite_to_matchings,
                      regular_spanning_subgraph, walecki_decompose)
from .exceptional import (BalancedExceptionalSystem, ExceptionalSystem,
                          FictiveReduction, build_fictive_bipartite,
                          build_fictive_two_cliques, induce_jab,
                          splice_bipartite, splice_two_cliques)
from .cyclic import (CyclicSystem, SuperregularityReport,
                     check_robust_outexpander, check_superregular,
                     reserve_regular, reserve_sparse, sysdecom, sysdecombip)
from .extension import (BalancedExtension, balance_extend_bipartite,
                        balance_extend_cliques, validate_balanced_extension)
from .assembly import (assemble_slice, extend_to_one_factors,
                       merge_to_hamilton, reorder_for_consistency)
from .pipeline import (DecompositionCertificate, InstanceConfig,
                       approx_decompose_bipartite,
                       approx_decompose_two_cliques, generate_instance,
                       verify_certificate)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BalancedExceptionalSystem", "BalancedExtension", "ClusterCycle",
    "ClusterPartition", "CyclicSystem", "DecompositionCertificate",
    "Digraph", "ExceptionalSystem", "FictiveReduction", "InstanceConfig",
    "Multigraph", "OrderedDirectedMatching", "SuperregularityReport",
    "approx_decompose_bipartite", "approx_decompose_two_cliques",
    "assemble_slice", "balance_extend_bipartite", "balance_extend_cliques",
    "bipartite_hamilton_decompose", "build_fictive_bipartite",
    "build_fictive_two_cliques", "check_robust_outexpander",
    "check_superregular", "cycle_to_perfect_matchings", "errors",
    "extend_to_one_factors", "generate_instance",
    "induce_jab", "is_consistent_with", "is_locally_balanced",
    "merge_to_hamilton", "pair_matrix", "regular_bipartite_to_matchings",
    "regular_spanning_subgraph", "reorder_for_consistency", "reserve_regular",
    "reserve_sparse", "splice_bipartite", "splice_two_cliques",
    "sysdecom", "sysdecombip",
    "validate_balanced_extension", "verify_certificate",
    "verify_hamilton_cycle", "walecki_decompose", "winds_around",
]
