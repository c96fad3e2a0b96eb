"""Two certified proofs that positivity forces the trivial deformation.

Route A builds the affine inequality system from all products with
sigma[1,1] and settles it by sign propagation with Farkas weights, falling
back to exact Fourier-Motzkin elimination for any unknown it leaves open;
the certificate stores, for each unknown, two nonnegative-weight
combinations of the original inequalities summing literally to "a >= 0"
and "-a >= 0", and is re-checked by plain weighted summation.  Route B replays the structured
argument (collapse products for upper bounds, the expansion rule for lower
bounds) and checks every closed-form display termwise.

Both routes only multiply by sigma[1,1] and its powers, so a larger rank is
certified on `lazy_table`, which computes just the products asked for,
each by the Pieri recursion from the products it depends on.
"""
import pathlib
import tempfile

from osglines import (build_constraints, build_table, certify_uniqueness,
                      lazy_table, load_certificate, replay_proof,
                      save_certificate, verify_certificate)

for n in (3, 4, 5):
    table = build_table(n)
    for mode in ("per-pair", "per-mu"):
        system = build_constraints(table, mode)
        cert = certify_uniqueness(system)
        ok = verify_certificate(system, cert)
        print(f"n={n} {mode}: {len(system.unknowns)} unknowns, "
              f"{len(system.constraints)} inequalities -> {cert.conclusion} "
              f"(certificate verified: {ok})")
    report = replay_proof(table)
    print(f"n={n} replay: {len(report.steps)} verified steps -> "
          f"{report.conclusion}")

# a larger rank: only the products the two routes ask for are computed
table = lazy_table(10)
system = build_constraints(table, "per-pair")
cert = certify_uniqueness(system)
report = replay_proof(table)
pairs = len(table.basis) * (len(table.basis) + 1) // 2
print(f"\nn=10 per-pair: {len(system.unknowns)} unknowns -> {cert.conclusion} "
      f"(certificate verified: {verify_certificate(system, cert)}); "
      f"replay -> {report.conclusion}; "
      f"{table.stored_products()} of {pairs} products computed")

# certificates are self-contained JSON documents
table = build_table(3)
system = build_constraints(table, "per-pair")
cert = certify_uniqueness(system)
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "certificate-n3-per-pair.json"
    save_certificate(cert, system, path)
    cert2, system2 = load_certificate(path)
print(f"\nreloaded certificate from {path.name}: "
      f"verifies = {verify_certificate(system2, cert2)}")
