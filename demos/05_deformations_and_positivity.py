"""Deformed bases and the positivity check.

A deformation adds q-corrections to the classes of degree at least 2n.  The
positivity condition asks that every product of sigma[1,1] with a basis
sigma class have nonnegative coefficients.  The zero deformation passes;
the example below fails, and the report names the offending coefficient.
"""
from fractions import Fraction

from osglines import DeformationSpec, build_table, check_positivity, deformed_product, sigma_from_tau

table = build_table(3)

zero = DeformationSpec.zero(3)
print("zero deformation passes:", check_positivity(zero, table).passes)

spec = DeformationSpec(3, "per-pair", {((5, 1), (0, 0)): Fraction(-1)})
sigma = sigma_from_tau(spec)
print("\nwith a = -1 on the pair ((5,1),(0,0)):")
print("  sigma[5,1] in the tau basis:", repr(sigma[(5, 1)]))

prod = deformed_product(spec, table, (1, 1), (4, 0))
print("  sigma[1,1] * sigma[4,0] in the sigma basis:",
      repr(prod).replace("tau", "sigma"))

report = check_positivity(spec, table)
print("  passes:", report.passes)
for mu, nu, d, value in report.violations:
    print(f"  violation: sigma[1,1]*sigma[{mu[0]},{mu[1]}] has {value} "
          f"on q^{d} sigma[{nu[0]},{nu[1]}]")
