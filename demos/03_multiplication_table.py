"""The full multiplication table and its structure constants.

The two special classes generate the ring, so every product reduces to
iterated applications of their expansion rules plus exact linear algebra.
Unlike the even-dimensional relatives, some structure constants here are
negative; the scan below finds a witness.  Products with the special
classes themselves stay nonnegative.
"""
from osglines import (build_table, gw_constant, has_negative_constant,
                      multiply, poincare_pairing, ClassVector)

table = build_table(3)
print(f"n=3 table: {len(table.basis)} classes, {table.stored_products()} products")

print("\nsample products:")
for lam, mu in [((3, 1), (3, 1)), ((5, -1), (5, -1)), ((4, 2), (5, 4))]:
    prod = table.product(lam, mu)
    print(f"  tau[{lam[0]},{lam[1]}] * tau[{mu[0]},{mu[1]}] = {prod!r}")

found, w = has_negative_constant(table)
print(f"\nnegative structure constant: {found}")
print(f"  tau[{w['lambda'][0]},{w['lambda'][1]}] * tau[{w['mu'][0]},{w['mu'][1]}]"
      f" carries {w['coeff']} on q^{w['d']} tau[{w['nu'][0]},{w['nu'][1]}]")

print(f"\none structure constant: gw(lam=(1,1), mu=(5,2), nu=(3,0), d=1) = "
      f"{gw_constant(table, (1, 1), (5, 2), (3, 0), 1)}")

print("\ntop-class pairing in complementary degrees (degree 1 vs 8):")
print(f"  <tau[1,0], tau[5,3]> = {poincare_pairing(table, (1, 0), (5, 3))}")

x = ClassVector.from_terms(3, [((1, 0), 1, 0), ((1, 1), 2, 0)])
y = ClassVector.basis(3, (5, 2))
print("\nbilinear products of combinations work too:")
print(f"  (tau[1,0] + 2*tau[1,1]) * tau[5,2] = {multiply(table, x, y)!r}")
