"""Flow-based regular spanning subgraphs and exact 1-factorization.

A near-regular bipartite pair always contains a spanning regular
subgraph of slightly smaller degree; the extraction is an integral
max-flow, and infeasibility comes back as a checkable cut witness.

Run:  python demos/02_flow_and_matchings.py
"""

import random

from hamdec import (Multigraph, regular_bipartite_to_matchings,
                    regular_spanning_subgraph)
from hamdec.errors import DegreeHypothesisViolated

m = 30
left = list(range(m))
right = list(range(m, 2 * m))
rng = random.Random(7)

# a (1 - mu +- eps) m - regular-ish host: complete minus 4 random matchings
skips = set(rng.sample(range(m), 4))
host = Multigraph(2 * m, [(u, m + (u + s) % m) for u in range(m)
                          for s in range(m) if s not in skips])
print(f"host pair: every degree = {host.degree(0)} of m = {m}")

sub = regular_spanning_subgraph(host, left, right, mu=0.1, rho=0.1)
r = sub.degree(left[0])
print(f"extracted a spanning {r}-regular subgraph "
      f"(target floor((1-mu-rho)m) = {int(0.8 * m)})")

matchings = regular_bipartite_to_matchings(sub, left, right)
print(f"1-factorized into {len(matchings)} perfect matchings; "
      f"union reproduces the subgraph exactly: "
      f"{sum(matchings[1:], matchings[0]) == sub}")

# an infeasible demand produces a cut certificate
starved = host - Multigraph(host.n, [(0, w) for w in host.neighbors(0)[:20]])
try:
    regular_spanning_subgraph(starved, left, right, mu=0.1, rho=0.1)
except DegreeHypothesisViolated as exc:
    w = exc.witness
    print(f"starved host rejected with cut witness: |S1| = {len(w['S1'])}, "
          f"|S2| = {len(w['S2'])}, e(S1,~S2) = {w['e(S1,~S2)']} < "
          f"r(|S1|-|S2|) = {w['r'] * (len(w['S1']) - len(w['S2']))}")
