"""Products by the two special classes tau[1,0] and tau[1,1].

These follow closed five-case and four-case tables with nonnegative
coefficients.  Quantum terms (powers of q) appear exactly when the first
index sits at its maximal value 2n-1.  Raw outputs landing outside the index
set are dropped; the third example shows such a boundary case.
"""
from osglines import pieri_tau1, pieri_tau11

n = 3
examples = [
    ("tau[1,0] * tau[1,0]", pieri_tau1(n, (1, 0))),
    ("tau[1,0] * tau[5,4]", pieri_tau1(n, (5, 4))),   # quantum: top class
    ("tau[1,0] * tau[2,1]", pieri_tau1(n, (2, 1))),   # (2,2) dropped
    ("tau[1,1] * tau[1,1]", pieri_tau11(n, (1, 1))),
    ("tau[1,1] * tau[5,2]", pieri_tau11(n, (5, 2))),
    ("tau[1,1] * tau[5,3]", pieri_tau11(n, (5, 3))),
]
for label, result in examples:
    print(f"{label} = {result!r}")
