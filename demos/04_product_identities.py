"""The identity suite for powers of tau[1,1].

Iterated products with tau[1,1] are what make the uniqueness argument work:
small powers walk up the diagonal, and against high-degree classes the
product collapses into pure q-terms.  Each family is checked exhaustively
over its parameter range.
"""
from osglines import IDENTITY_PARTS, build_table, diagonal_power, verify_identities

for n in (3, 4, 5):
    table = build_table(n)
    results = [verify_identities(table, part) for part in IDENTITY_PARTS]
    status = "all hold" if all(r.holds for r in results) else "VIOLATIONS"
    total = sum(r.checked for r in results)
    print(f"n={n}: {total} identity instances, {status}")

table = build_table(4)
print("\npowers of tau[1,1] at n=4:")
for t in range(1, 4):
    print(f"  tau[1,1]^{t} = {diagonal_power(table, t)!r}")
