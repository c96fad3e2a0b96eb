import hashlib
import re
from fractions import Fraction

import pytest

import osglines
from osglines.algebra import AffineExpression, ClassVector
from osglines.basis import (CONCLUSION_NOT_UNIQUE, CONCLUSION_UNIQUE_ZERO, degree,
                            index_sort_key)
from osglines import certify, proof, replay
from osglines.certify import DEFAULT_ROW_LIMIT, ResourceLimitError, certify_uniqueness
from osglines.proof import (BoundProof, Certificate, ConstraintSystem, build_constraints,
                            verify_certificate)
from osglines.replay import MismatchError, QuadraticTermError, replay_proof
from osglines.deformation import (MODE_PER_MU, MODE_PER_PAIR, DeformationSpec,
                                  mu_keys, pair_keys, positivity_terms)
from osglines.ring import MultiplicationTable, build_table, lazy_table
from osglines.serialize import save_certificate


def test_unknown_inventory(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    assert len(system.unknowns) == 8
    by_degree = {}
    for lam, _ in system.unknowns:
        by_degree[degree(lam)] = by_degree.get(degree(lam), 0) + 1
    assert by_degree == {6: 2, 7: 2, 8: 2, 9: 2}


def test_expected_constraint_present(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    want = AffineExpression(0, {((5, 1), (0, 0)): 1})
    hits = [p for e, p in zip(system.constraints, system.provenance) if e == want]
    assert ((4, 0), (5, 1), 1) in hits or ((4, 0), (0, 0), 1) in hits
    # provenance identifies the product with mu = (4,0)
    assert any(p[0] == (4, 0) for p in hits)


def test_zero_assignment_feasible(table3, table4):
    for table in (table3, table4):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(table, mode)
            for expr in system.constraints:
                assert expr.evaluate({}) >= 0
                assert expr.linear  # constants were dropped
            for _, _, d in system.provenance:
                assert d == 1


def test_certification_unique_zero(table3, table4):
    for table in (table3, table4):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(table, mode)
            cert = certify_uniqueness(system)
            assert cert.conclusion == CONCLUSION_UNIQUE_ZERO
            assert verify_certificate(system, cert)
            assert len(cert.bounds) == 2 * len(system.unknowns)


def test_tampered_certificates_rejected(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)

    def rebuild(bounds):
        return Certificate(cert.n, cert.mode, cert.conclusion, cert.unknowns,
                           tuple(bounds), cert.witness, cert.stats)

    # negate one weight
    b0 = cert.bounds[0]
    idx, w = b0.weights[0]
    bad = [BoundProof(b0.unknown, b0.direction, ((idx, -w),) + b0.weights[1:])]
    bad += list(cert.bounds[1:])
    assert not verify_certificate(system, rebuild(bad))

    # reference a nonexistent constraint
    bad = [BoundProof(b0.unknown, b0.direction,
                      ((len(system.constraints) + 5, w),) + b0.weights[1:])]
    bad += list(cert.bounds[1:])
    assert not verify_certificate(system, rebuild(bad))

    # drop a bound entirely
    assert not verify_certificate(system, rebuild(list(cert.bounds[1:])))

    # perturb a weight so the sum is no longer the claimed inequality
    bad = [BoundProof(b0.unknown, b0.direction,
                      ((idx, w + 1),) + b0.weights[1:])]
    bad += list(cert.bounds[1:])
    assert not verify_certificate(system, rebuild(bad))


@pytest.mark.parametrize("weight", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_weight_that_is_not_an_exact_number_is_rejected(table3, weight):
    # each stands for the weight 1 that it replaces, and is still refused
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    b0 = cert.bounds[0]
    (idx, w), rest = b0.weights[0], b0.weights[1:]
    assert w == 1 and verify_certificate(system, cert)
    bounds = (BoundProof(b0.unknown, b0.direction, ((idx, weight),) + rest),) + cert.bounds[1:]
    assert verify_certificate(system, cert._replace(bounds=bounds)) is False


@pytest.mark.parametrize("field", ["n", "mode", "unknowns"])
def test_certificate_of_another_system_is_rejected(table3, field):
    # the rows are the same, so every bound still sums: only the check that
    # the certificate names the system's rank, mode and unknowns refuses it
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    changed = {"n": system.n + 1, "mode": MODE_PER_MU, "unknowns": system.unknowns[::-1]}
    other = system._replace(**{field: changed[field]})
    assert verify_certificate(system, cert) is True
    assert verify_certificate(other, cert) is False


def test_bound_of_unknown_direction_is_rejected(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    b0 = cert.bounds[0]
    bounds = cert.bounds + (BoundProof(b0.unknown, "sideways", b0.weights),)
    assert verify_certificate(system, cert._replace(bounds=bounds)) is False


def test_unknown_conclusion_is_rejected(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    assert verify_certificate(system, cert._replace(conclusion="Maybe")) is False


def test_weight_naming_the_row_past_the_last_is_rejected(table3):
    # the boundary index len(constraints): refused, not an IndexError
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    b0 = cert.bounds[0]
    weights = ((len(system.constraints), 1),) + b0.weights
    bounds = (BoundProof(b0.unknown, b0.direction, weights),) + cert.bounds[1:]
    assert verify_certificate(system, cert._replace(bounds=bounds)) is False


def test_zero_weight_is_accepted(table3):
    # a pinned policy: a zero weight adds nothing to the sum, so a valid
    # bound with one more row at weight 0 still proves its inequality
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    b0 = cert.bounds[0]
    spare = next(i for i in range(len(system.constraints))
                 if i not in dict(b0.weights))
    weights = b0.weights + ((spare, 0),)
    bounds = (BoundProof(b0.unknown, b0.direction, weights),) + cert.bounds[1:]
    assert verify_certificate(system, cert._replace(bounds=bounds)) is True


def toy_system(constraints):
    return ConstraintSystem(3, MODE_PER_PAIR, ("x", "y"),
                            tuple(constraints), (((0, 0), (0, 0), 1),) * len(constraints))


def not_unique_toy_system():
    # x - y >= 0, y >= -1: unbounded feasible set
    return toy_system([AffineExpression(0, {"x": 1, "y": -1}),
                       AffineExpression(1, {"y": 1})])


def halves_toy_system():
    # x - y >= 0 and 2y + 1 >= 0 pin the witness to a non-integral point
    return toy_system([AffineExpression(0, {"x": 1, "y": -1}),
                       AffineExpression(1, {"y": 2})])


def test_not_unique_toy_system():
    system = not_unique_toy_system()
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_NOT_UNIQUE
    assert cert.witness is not None
    assert any(cert.witness.values())
    assert verify_certificate(system, cert)
    # a witness claiming zero everywhere is rejected
    fake = Certificate(cert.n, cert.mode, cert.conclusion, cert.unknowns,
                       (), {"x": Fraction(0), "y": Fraction(0)}, cert.stats)
    assert not verify_certificate(system, fake)
    # so is a witness whose values are floats, even feasible ones
    floats = cert._replace(witness={k: float(v) for k, v in cert.witness.items()})
    assert not verify_certificate(system, floats)


# y >= 0 and -y >= 0 pin y to zero, and leave x to the rows given with them
PIN_Y = [AffineExpression(0, {"y": 1}), AffineExpression(0, {"y": -1})]


@pytest.mark.parametrize("x_rows, witness", [
    ([AffineExpression(0, {"x": 1})], {"x": 1, "y": 0}),
    ([AffineExpression(0, {"x": -1})], {"x": -1, "y": 0}),
    ([], {"x": 1, "y": 0}),
], ids=["unbounded-above", "unbounded-below", "unbounded-both"])
def test_witness_on_an_unbounded_interval(x_rows, witness):
    system = toy_system(x_rows + PIN_Y)
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_NOT_UNIQUE
    assert cert.witness == witness
    assert verify_certificate(system, cert)


def test_negative_constant_in_a_product_with_sigma11_is_refused(monkeypatch, table3):
    # a negative coefficient below degree 2n meets no unknown: no deformation
    # can correct it, so the system is refused rather than the row dropped
    raw = proof._tau11_raw

    def negated(n, lam):
        case, terms = raw(n, lam)
        return case, (tuple((nu, -c, d) for nu, c, d in terms) if lam == (0, 0) else terms)
    monkeypatch.setattr(proof, "_tau11_raw", negated)
    with pytest.raises(RuntimeError, match=re.escape(
            "negative constant coefficient in sigma[1,1]*sigma[(0, 0)]: -1 at (1, 1), q^0")):
        build_constraints(table3, MODE_PER_PAIR)


def test_witness_must_be_nonzero_on_an_unknown_of_the_system(table3):
    # n = 3 has only the zero solution; each witness below satisfies every
    # row, being zero on all of the system's unknowns, and must be refused
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    for witness in ({"not-an-unknown": 5}, {system.unknowns[0]: 0, "x": 1}):
        fake = cert._replace(conclusion=CONCLUSION_NOT_UNIQUE, bounds=(), witness=witness)
        assert all(expr.evaluate(witness) >= 0 for expr in system.constraints)
        assert verify_certificate(system, fake) is False, witness


def test_witness_that_is_not_a_dict_is_refused(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    for witness in ([("x", 1)], 5, "ab"):
        fake = cert._replace(conclusion=CONCLUSION_NOT_UNIQUE, bounds=(), witness=witness)
        assert verify_certificate(system, fake) is False, witness


def test_pinned_toy_system_certifies():
    # x >= 0, -x >= 0, y - x >= 0, -y >= 0
    system = toy_system([AffineExpression(0, {"x": 1}),
                         AffineExpression(0, {"x": -1}),
                         AffineExpression(0, {"y": 1, "x": -1}),
                         AffineExpression(0, {"y": -1})])
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_UNIQUE_ZERO
    assert verify_certificate(system, cert)


def test_infeasible_system_reported():
    system = toy_system([AffineExpression(-1, {"x": 1}),   # x >= 1
                         AffineExpression(0, {"x": -1})])  # x <= 0
    with pytest.raises(ValueError, match="infeasible"):
        certify_uniqueness(system)


def test_resource_ceiling(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    with pytest.raises(ResourceLimitError):
        certify_uniqueness(system, max_rows=1)


def test_resource_ceiling_on_an_intermediate_system():
    # five rows fit a ceiling of five, and propagation settles only y >= 0;
    # FM on x then eliminates y from 3 rows with +y and 2 with -y: 6 rows
    system = toy_system([AffineExpression(0, {"x": 1, "y": 1}),
                         AffineExpression(0, {"x": -1, "y": 1}),
                         AffineExpression(0, {"y": 1}),
                         AffineExpression(1, {"y": -1}),
                         AffineExpression(2, {"x": -1, "y": -1})])
    with pytest.raises(ResourceLimitError, match="elimination would exceed 5 "):
        certify_uniqueness(system, max_rows=5)
    assert certify_uniqueness(system, max_rows=6).conclusion == CONCLUSION_NOT_UNIQUE


def test_propagation_divides_by_the_coefficient_of_its_unknown():
    # 2x >= 0 bounds x >= 0 with weight 1/2, so the weights sum to x itself
    rows = (AffineExpression(0, {"x": 2}), AffineExpression(0, {"x": -1}))
    system = ConstraintSystem(3, MODE_PER_PAIR, ("x",), rows, (((0, 0), (0, 0), 1),) * 2)
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_UNIQUE_ZERO
    assert cert.stats["propagated_unknowns"] == 1
    assert cert.bounds == (BoundProof("x", "lower", ((0, Fraction(1, 2)),)),
                           BoundProof("x", "upper", ((1, 1),)))
    assert verify_certificate(system, cert)


def test_replay_refuses_a_degree_it_leaves_unsettled(table3, monkeypatch):
    # an unknown of degree 2n that no display constrains stays open
    keys = pair_keys(3)
    monkeypatch.setattr(replay, "pair_keys", lambda n: [*keys, ((5, 1), (9, 9))])
    with pytest.raises(MismatchError) as exc:
        replay_proof(table3)
    assert exc.value.step == "conclusion"
    assert str(exc.value) == "conclusion: degree 6 unknowns not all settled"


def test_replay(table3, table4):
    for table in (table3, table4):
        report = replay_proof(table)
        assert report.all_zero
        assert report.conclusion == CONCLUSION_UNIQUE_ZERO
        assert all(step.verified for step in report.steps)
        assert set(report.unknowns) == set(pair_keys(table.n))
        assert set(report.resolutions) == set(report.unknowns)
        tags = {step.tag for step in report.steps}
        assert tags == {"diagonal-power", "collapse-upper", "near-diagonal-upper",
                        "pieri-lower", "pair-upper"}


def test_replay_agrees_with_elimination(table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    report = replay_proof(table3)
    assert cert.conclusion == report.conclusion


def _tampered(table, lam, mu, terms):
    """A copy of `table` whose product tau[lam] * tau[mu] is `terms`."""
    products = dict(table._products)
    products[table._pair(lam, mu)] = terms
    return MultiplicationTable(table.n, list(table.basis), products)


def test_replay_detects_tampered_table(table3):
    # corrupt the square of tau[1,1]
    tampered = _tampered(table3, (1, 1), (1, 1), {((4, 0), 0): 1})
    with pytest.raises(MismatchError, match="diagonal-power") as info:
        replay_proof(tampered)
    assert info.value.step == "diagonal-power"
    assert str(info.value) == ("diagonal-power: subject 2: the coefficient of q^0 [4,0] "
                               "is 1 in the engine's expansion and 0 in the display")


def test_replay_mismatch_names_the_coefficient_with_its_unknowns(table3):
    # tau[1,1] * tau[5,1] = q tau[2,0]; adding q tau[1,1] puts 1 - a in the
    # engine's expansion where the display has -a
    tampered = _tampered(table3, (1, 1), (5, 1), {((2, 0), 1): 1, ((1, 1), 1): 1})
    with pytest.raises(MismatchError, match="collapse-upper") as info:
        replay_proof(tampered)
    assert str(info.value) == (
        "collapse-upper: subject (5, 1): the coefficient of q^1 [1,1] is "
        "1 - a((5, 1), (0, 0)) in the engine's expansion and -a((5, 1), (0, 0)) "
        "in the display")


def test_replay_quadratic_guard_is_active(table3):
    # with tau[1,0] * tau[1,1] = tau[5,1], the t = 1 product for lam = (5,2)
    # puts -a((5,2),(1,0)) on tau[5,1], whose own correction would be quadratic
    tampered = _tampered(table3, (1, 0), (1, 1), {((5, 1), 0): 1})
    with pytest.raises(QuadraticTermError):
        replay_proof(tampered)


# sha256 of repr((steps, list(resolutions.items()), unknowns, conclusion)) of
# replay_proof(build_table(n)), computed with the Fraction-valued replay
REPLAY_REPORT_DIGESTS = {
    3: "e842d175132bfe6cc248ebaba02e64e756f33bc13382e11de150d78df52a1c41",
    4: "715efe401faba89c85d5358fe895398aa89ee51b5578679efafdc8e3ddcfcf9b",
    5: "c47e773f8218b4fee2e4849c5eb4f452f66ca9f30259636452c2e70fb1fcbf15",
    6: "27f194734ebf4cad59eddbc48790ce27d77103178da829a4f195cfc232d44a07",
    7: "5d1dc67dd48f074cf3580bf9f98831d647c0cbe330e24b2ff0b9726c49b90498",
    8: "478c19f4b8cb8e7f9db2d0fdab7b9fa0dc1c500396b9e68e83d3201aeb177466",
}


def test_replay_report_matches_the_parent(table3, table4, table5, table6):
    tables = {t.n: t for t in (table3, table4, table5, table6)}
    for n, digest in REPLAY_REPORT_DIGESTS.items():
        r = replay_proof(tables.get(n) or build_table(n))
        assert r.unknowns == tuple(pair_keys(n))
        text = repr((r.steps, list(r.resolutions.items()), r.unknowns, r.conclusion))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_replay_uses_none_of_route_a_arithmetic(monkeypatch, table4):
    def refuse(*args, **kwargs):
        raise AssertionError("route B used route A's arithmetic")

    monkeypatch.setattr(AffineExpression, "__init__", refuse)
    monkeypatch.setattr(ClassVector, "_wrap", refuse)
    for table in (table4, lazy_table(5)):
        assert replay_proof(table).conclusion == CONCLUSION_UNIQUE_ZERO


def test_replay_instance_values(table3):
    # the degree-2n step for lam=(5,1), t=1 multiplies by tau[1,1] itself and
    # must produce q*sigma[2,0] - a*q*sigma[1,1]
    report = replay_proof(table3)
    steps = {(s.tag, s.subject): s for s in report.steps}
    assert ("collapse-upper", (5, 1)) in steps
    assert ("near-diagonal-upper", (4, 2)) in steps
    deds = steps[("collapse-upper", (5, 1))].deductions
    assert deds == [("nonpos", ((5, 1), (0, 0)))]


def test_replay_reads_every_sign_off_the_display(table4):
    # n = 4, lam = (6,4), t = 2: the display is q tau[7,-1] + q tau[6,0]
    # - a q tau[5,1] - (a + a') q tau[4,2] for a = a(6,4),(2,0), a' = a(6,4),(1,1);
    # the lone -a term is read off as well as the pair
    steps = {(s.tag, s.subject): s for s in replay_proof(table4).steps}
    assert steps[("pair-upper", (6, 4))].deductions == [
        ("nonpos", ((6, 4), (2, 0))),
        ("pair-nonpos", ((6, 4), (2, 0)), ((6, 4), (1, 1)))]


def test_quadratic_guard_is_active(table3):
    # route B is the only raiser, and raises the class the package exports:
    # in its product of two symbolic vectors ...
    assert osglines.QuadraticTermError is QuadraticTermError
    a, b = {((0, 0), 0, "a"): 1}, {((0, 0), 0, "b"): 1}
    with pytest.raises(osglines.QuadraticTermError, match="two terms with unknowns"):
        replay._times(table3, a, b)
    # ... and in its change of basis, on a tampered table
    tampered = _tampered(table3, (1, 0), (1, 1), {((5, 1), 0): 1})
    with pytest.raises(osglines.QuadraticTermError, match="correction of the term"):
        replay_proof(tampered)


def test_propagation_agrees_with_fm(table3, table4, table5, table6):
    from osglines.certify import _certify
    for table in (table3, table4, table5, table6):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(table, mode)
            fast = certify_uniqueness(system)
            slow = _certify(system, max_rows=200_000, propagate=False)
            assert fast.conclusion == slow.conclusion == CONCLUSION_UNIQUE_ZERO
            assert verify_certificate(system, fast)
            assert verify_certificate(system, slow)
            assert slow.stats["fm_unknowns"] == len(system.unknowns)


def test_fm_fallback_and_witness_never_produce_a_float(monkeypatch, table3, table4,
                                                       table5):
    # with int rows, an FM bound or a witness value written as `a / b` would
    # be a float; every interval endpoint, weight and witness value must be
    # an int or a Fraction
    endpoints = []
    interval = certify._interval

    def recorded(rows, var):
        lo, hi, lo_row, hi_row = interval(rows, var)
        endpoints.extend(x for x in (lo, hi) if x is not None)
        return lo, hi, lo_row, hi_row

    monkeypatch.setattr(certify, "_interval", recorded)
    certs = [certify._certify(build_constraints(table, mode), DEFAULT_ROW_LIMIT,
                              propagate=False)
             for table in (table3, table4, table5)
             for mode in (MODE_PER_PAIR, MODE_PER_MU)]
    certs += [certify_uniqueness(not_unique_toy_system()),
              certify_uniqueness(halves_toy_system())]
    assert certs[-1].witness == {"x": Fraction(-1, 2), "y": Fraction(-1, 2)}
    weights = [w for cert in certs for bound in cert.bounds for _, w in bound.weights]
    witness = [v for cert in certs if cert.witness for v in cert.witness.values()]
    assert endpoints and weights and len(witness) == 4
    assert all(type(x) in (int, Fraction) for x in endpoints + weights + witness)


def test_fm_settles_what_propagation_cannot():
    # |x| + |y| <= 0 written as four rows: no row has a single open term
    system = toy_system([AffineExpression(0, {"x": 1, "y": 1}),
                         AffineExpression(0, {"x": 1, "y": -1}),
                         AffineExpression(0, {"x": -1, "y": 1}),
                         AffineExpression(0, {"x": -1, "y": -1})])
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_UNIQUE_ZERO
    assert verify_certificate(system, cert)
    assert cert.stats["fm_unknowns"] == 2
    assert cert.stats["propagated_unknowns"] == 0


def test_infeasible_origin_skips_propagation():
    # x >= 0 and -x >= 0 alone would settle x; x - 1 >= 0 makes it infeasible.
    # x is the only unknown, so no FM fallback would run to notice.
    rows = (AffineExpression(0, {"x": 1}), AffineExpression(0, {"x": -1}),
            AffineExpression(-1, {"x": 1}))
    system = ConstraintSystem(3, MODE_PER_PAIR, ("x",), rows,
                              (((0, 0), (0, 0), 1),) * len(rows))
    with pytest.raises(ValueError, match="infeasible"):
        certify_uniqueness(system)


def test_propagation_settles_every_unknown(table3, table4, table5):
    for table in (table3, table4, table5):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(table, mode)
            cert = certify_uniqueness(system)
            assert cert.stats["fm_unknowns"] == 0
            assert cert.stats["propagated_unknowns"] == len(system.unknowns)


def test_propagation_builds_no_fm_rows(monkeypatch):
    # propagation reads the stored rows; FM's working rows are never built
    # for a system it settles
    def refuse(system):
        raise AssertionError("FM rows built for a system propagation settles")

    monkeypatch.setattr(certify, "_rows_from_system", refuse)
    for n in range(3, 9):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(lazy_table(n), mode)
            cert = certify_uniqueness(system)
            assert cert.conclusion == CONCLUSION_UNIQUE_ZERO, (n, mode)
            assert verify_certificate(system, cert), (n, mode)
            assert cert.stats["peak_working_rows"] == len(system.constraints)


@pytest.mark.parametrize("make", [not_unique_toy_system, halves_toy_system],
                         ids=["unbounded", "halves"])
def test_fm_rows_are_built_once(monkeypatch, make):
    # the FM fallback and the witness search share one set of working rows
    calls = []
    rows_from_system = certify._rows_from_system

    def counted(system):
        calls.append(system)
        return rows_from_system(system)

    monkeypatch.setattr(certify, "_rows_from_system", counted)
    system = make()
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_NOT_UNIQUE
    assert verify_certificate(system, cert)
    assert len(calls) == 1


def test_fm_rows_are_the_stored_rows(table3, table4):
    # FM's first working rows share each stored row's dict, keyed by unknown,
    # and add only the row's own combination
    for table in (table3, table4):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(table, mode)
            rows = certify._rows_from_system(system)
            assert len(rows) == len(system.constraints)
            for i, (row, expr) in enumerate(zip(rows, system.constraints)):
                assert row.lin is expr.linear
                assert row.const == expr.constant and row.combo == {i: 1}


def test_pure_fm_reference(table3, table4, table5, table6):
    # FM alone decides n = 3..6 without growing past the stored rows
    for table, peak in zip((table3, table4, table5, table6), (15, 33, 61, 101)):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(table, mode)
            cert = certify._certify(system, DEFAULT_ROW_LIMIT, propagate=False)
            assert cert.conclusion == CONCLUSION_UNIQUE_ZERO, (table.n, mode)
            assert verify_certificate(system, cert), (table.n, mode)
            assert cert.stats["peak_working_rows"] == peak, (table.n, mode)


def test_lazy_table_gives_identical_proofs(tmp_path, table3, table4, table5, table6):
    for eager in (table3, table4, table5, table6):
        lazy = lazy_table(eager.n)
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            systems = [build_constraints(lazy, mode), build_constraints(eager, mode)]
            assert systems[0] == systems[1]
            dumps = []
            for side, system in zip(("lazy", "eager"), systems):
                path = tmp_path / f"{side}-{eager.n}-{mode}.json"
                save_certificate(certify_uniqueness(system), system, path)
                dumps.append(path.read_bytes())
            assert dumps[0] == dumps[1]
        fast, full = replay_proof(lazy), replay_proof(eager)
        assert fast.steps == full.steps
        assert fast.resolutions == full.resolutions
        assert fast.conclusion == full.conclusion == CONCLUSION_UNIQUE_ZERO


def test_certify_touches_few_products():
    lazy = lazy_table(6)
    system = build_constraints(lazy, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    assert cert.conclusion == CONCLUSION_UNIQUE_ZERO
    assert verify_certificate(system, cert)
    assert lazy.stored_products() == 0


def test_build_constraints_reads_no_table_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("route A read a table product")

    monkeypatch.setattr(MultiplicationTable, "terms", refuse)
    for n in range(3, 7):
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            system = build_constraints(lazy_table(n), mode)
            cert = certify_uniqueness(system)
            assert cert.conclusion == CONCLUSION_UNIQUE_ZERO
            assert verify_certificate(system, cert)


def test_constraints_match_the_symbolic_expansion(table3, table4, table5, table6):
    # the oracle: the affine expansion of every coefficient of sigma[1,1] *
    # sigma[mu], read off numeric deformations on the table.  A row's constant
    # is its coefficient under the zero spec, and its entry for unknown k is
    # the coefficient under the unit spec {k: 1} less that constant; the rows
    # are the coefficients with a nonzero linear part, in scan order
    tables = {t.n: t for t in (table3, table4, table5, table6)}
    for n in range(3, 9):
        table = tables.get(n) or lazy_table(n)
        pos = {mu: i for i, mu in enumerate(table.basis)}
        for mode in (MODE_PER_PAIR, MODE_PER_MU):
            keys = pair_keys(n) if mode == MODE_PER_PAIR else mu_keys(n)

            def coefficients(entries):
                spec = DeformationSpec(n, mode, entries)
                return {(mu, nu, d): c for mu, nu, d, c in positivity_terms(spec, table)}

            constant = coefficients({})
            linear = {}
            for k in keys:
                unit = coefficients({k: 1})
                for p in unit.keys() | constant.keys():
                    if v := unit.get(p, 0) - constant.get(p, 0):
                        linear.setdefault(p, {})[k] = v
            rows = sorted(linear, key=lambda p: (pos[p[0]], index_sort_key(p[1]), p[2]))
            system = build_constraints(table, mode)
            assert system.unknowns == tuple(keys)
            assert system.provenance == tuple(rows)
            assert [(e.constant, e.linear) for e in system.constraints] \
                == [(constant.get(p, 0), linear[p]) for p in rows]


# sha256 of repr([(constant, list(linear.items()))]) of build_constraints(
# lazy_table(n), mode): each row's unknowns in the order its terms insert
# them, which `_propagate` reads; computed while the symbolic expansion was
# the oracle and pinned each row's insertion order
ROW_ORDER_DIGESTS = {
    (3, MODE_PER_PAIR): "5dcf116eb798292053b93d6a0920fb3834e9faa2fa4313ba93491a98dbc1cd13",
    (4, MODE_PER_PAIR): "d0649b24edfe9d0a0315b31115c6be03744835d7680cd5acef1803aab3c470c9",
    (5, MODE_PER_PAIR): "93deff1b2fdeefdfc363103f273c35d18c51c886bc4bb3a7afe6155cd241064a",
    (6, MODE_PER_PAIR): "02d596e6117692c30542cf68cccc473ddf97afd2e80f4ad73f0a1daa967e4a7d",
    (7, MODE_PER_PAIR): "7fd65032ebc62cb36f2b2358b877a4971418e987affdc019806358581e3e2786",
    (8, MODE_PER_PAIR): "82584e29e60d763fead20089415bb6a32d154fbaf97f48d28a56e29c118319d7",
    (3, MODE_PER_MU): "c4bfa9aadab786cba3a245af4ff0ccc9d7d1cca0b03bfa1f61ba4dbb37b43306",
    (4, MODE_PER_MU): "1058177da30bf141cc51ccef8effa0cafba443b7173c71b479aa2c380532768e",
    (5, MODE_PER_MU): "e4677dd3ef7d21e6cb35508ede4b2788b64eeb3f0936694f6e5dd16cc783b3fe",
    (6, MODE_PER_MU): "0656a8ff22db251705f4f0726abd654e864d4a9c1a8cd96aac2f5c7763840007",
    (7, MODE_PER_MU): "c0bfb2600a36289cad22d6a198a244f561140836abcc32e485b352fcdb641a4c",
    (8, MODE_PER_MU): "aa76c837c8f7d81a7ec2f4d5485ae3d47be2f16e7cc75e8e441f45fae74bac25",
}


def test_constraint_rows_keep_their_insertion_order():
    for (n, mode), digest in ROW_ORDER_DIGESTS.items():
        s = build_constraints(lazy_table(n), mode)
        text = repr([(c.constant, list(c.linear.items())) for c in s.constraints])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, mode)


# sha256 of repr((unknowns, [(constant, sorted linear part)], provenance)) of
# build_constraints(lazy_table(n), mode), computed with the symbolic expansion
CONSTRAINT_DIGESTS = {
    (3, MODE_PER_PAIR): "8257932c014dfbaa646938002d89ad332b169f397351cc53578b43c702539dcf",
    (4, MODE_PER_PAIR): "4fb0306ac62da3afa075005ab7d952a2033aa944c7e410d0319e2a2d3e2016ed",
    (5, MODE_PER_PAIR): "f7d958cfdd6d359b2d5ca82f6ac7b291055bbc0168b1f23cdc69525abe0eccbf",
    (6, MODE_PER_PAIR): "31f66d471fd6aee8120d279e36221d60d4d8007aa314eb3e27b3052a24ff337c",
    (7, MODE_PER_PAIR): "7f401e71e461fd0fd126acb44633249c804ea7bffcf405e71777a978b4ffb60f",
    (8, MODE_PER_PAIR): "220e7bfbd00fe232830d5c7d8ee98391636e172b883a502bd0e2fb39f9ef9183",
    (3, MODE_PER_MU): "28c5487ed1accd2a8ef0c779ab719145b0d605fd133303eb755bd35739684471",
    (4, MODE_PER_MU): "7a3005fd34b0d50c3e2bcd4521b4dc80a34b876b8a17edd51e79fea6ae1021bc",
    (5, MODE_PER_MU): "040eb075ae27e831f97d9bfe2a5e9ed3142c452b3a1530b9c622390d68bd60c5",
    (6, MODE_PER_MU): "83e64622ab77652341c254ad2389858306098dd08ffc33b617135c65cb99e9fc",
    (7, MODE_PER_MU): "7459456a026178c837f1979ce7a20c4c49ae63962ad38be4d44c0ab7898563e7",
    (8, MODE_PER_MU): "0d988b0d4eea9ff6bf29cf38e75a2311a2d221674774f03147b7e9b8b92a9caa",
}


def test_constraints_match_the_parent():
    for (n, mode), digest in CONSTRAINT_DIGESTS.items():
        s = build_constraints(lazy_table(n), mode)
        text = repr((s.unknowns, [(c.constant, sorted(c.linear.items()))
                                  for c in s.constraints], s.provenance))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, mode)
