"""Flow-based regular spanning subgraphs and exact 1-factorization.

A near-regular bipartite pair always contains a spanning regular
subgraph of slightly smaller degree; the extraction is an r-factor, an
integral maximum flow found by a greedy fill and augmenting paths on
the pair's rows packed into bitsets, and infeasibility comes back as a
checkable cut witness.  Both steps take the pair as its multiplicity
matrix (rows one class, columns the other), and the 1-factorization
returns each perfect matching as the column matched to each row.

Run:  python demos/02_flow_and_matchings.py
"""

import random

import numpy as np

from hamdec import (Multigraph, pair_matrix, regular_bipartite_to_matchings,
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

sub = regular_spanning_subgraph(pair_matrix(host, left, right), left, right,
                                mu=0.1, rho=0.1)
r = int(sub[0].sum())
print(f"extracted a spanning {r}-regular subgraph "
      f"(target floor((1-mu-rho)m) = {int(0.8 * m)})")

# matchings[k, p]: the column matched to row p by the k-th matching
matchings = regular_bipartite_to_matchings(sub)
union = np.zeros_like(sub)
for cols in matchings:
    union[np.arange(m), cols] += 1
print(f"1-factorized into {len(matchings)} perfect matchings; "
      f"union reproduces the subgraph exactly: {(union == sub).all()}")

# an infeasible demand produces a cut certificate
starved = host - Multigraph(host.n,
                            [e for e in host.support() if e[0] == 0][:20])
try:
    regular_spanning_subgraph(pair_matrix(starved, left, right), left, right,
                              mu=0.1, rho=0.1)
except DegreeHypothesisViolated as exc:
    w = exc.witness
    print(f"starved host rejected with cut witness: |S1| = {len(w['S1'])}, "
          f"|S2| = {len(w['S2'])}, e(S1,~S2) = {w['e(S1,~S2)']} < "
          f"r(|S1|-|S2|) = {w['r'] * (len(w['S1']) - len(w['S2']))}")
