"""The fictive-edge reduction in miniature.

An exceptional system J covers the exceptional vertices by short paths.
Replacing each maximal path with a single fictive edge between its
endpoints turns the problem into finding Hamilton cycles on the two
clique sides alone; splicing removes the fictive edges and puts the real
paths back.

Run:  python demos/03_fictive_edges_and_splicing.py
"""

from hamdec import (ClusterPartition, ExceptionalSystem, Multigraph,
                    build_fictive_two_cliques, splice_two_cliques,
                    verify_hamilton_cycle)

# A = {0,1,2}, B = {3,4,5}, exceptional vertices 6 (A-side), 7 (B-side)
P = ClusterPartition.two_cliques([6], [[0, 1, 2]], [7], [[3, 4, 5]], 0.5)

# J: two cross-paths 0-6-3 and 1-7-4 (a Hamilton exceptional system)
J = ExceptionalSystem(P, Multigraph(8, [(0, 6), (6, 3), (1, 7), (7, 4)]))
print(f"J is a {J.kind} with {J.count_ab_paths()} cross connections")

red = build_fictive_two_cliques(J)
print(f"fictive edges on the A side: {sorted(red.ja.support())} "
      f"(ordered arcs {red.ja_dir.arcs})")
print(f"fictive edges on the B side: {sorted(red.jb.support())} "
      f"(ordered arcs {red.jb_dir.arcs})")

# Hamilton cycles on A and B consistent with the ordered fictive arcs,
# each given as its vertex order: C_A is 0 -> 1 -> 2 -> 0
C_A = [0, 1, 2]
C_B = [4, 3, 5]

result = splice_two_cliques(C_A, C_B, J, red)
print(f"spliced: {sorted(result.support())}")
print(f"Hamilton cycle on all 8 vertices: "
      f"{verify_hamilton_cycle(result, set(range(8)))}")
