import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from osglines import proof, ring, serialize, suites
from osglines.algebra import ClassVector
from osglines.basis import (MAX_RING_RANK, degree, enumerate_basis,
                            enumerate_degree, max_degree)
from osglines.pieri import collapse_terms, pieri_tau1, pieri_tau11, power_class, shift_terms
from osglines.ring import (GenerationFailure, build_table, diagonal_power, gw_constant,
                           lazy_table, multiply, poincare_pairing)
from osglines.suites import (IDENTITY_PARTS, check_commutativity, has_negative_constant,
                             verify_identities)


def basis_vec(n, lam):
    return ClassVector.basis(n, lam)


def test_table_shape_and_audits(table3):
    assert table3.stored_products() == 18 * 19 // 2
    for lam, mu in table3.pairs():
        prod = table3.product(lam, mu)
        for nu, d, c in prod.flat_items():
            assert degree(nu) + 6 * d == degree(lam) + degree(mu)
            assert Fraction(c).denominator == 1
        assert max((d for _, d in prod.flat), default=-1) <= 3


def test_generator_expressions(table3, table4, table5, table6):
    for table in (table3, table4, table5, table6):
        n = table.n
        exprs = suites._generator_expressions(
            table, ring._pieri_codes(n, table.basis, table.pos))
        if n == 3:
            assert exprs[(3, 1)] == {(0, 2): Fraction(1)}
        for t in range(1, n - 1):
            assert exprs[(t, t)] == {(0, t): Fraction(1)}


def test_unit_law(table3):
    for lam in table3.basis:
        assert table3.product((0, 0), lam) == basis_vec(3, lam)


def test_pieri_consistency(table3, table4):
    for table in (table3, table4):
        n = table.n
        for lam in table.basis:
            assert table.product((1, 0), lam) == pieri_tau1(n, lam)
            assert table.product((1, 1), lam) == pieri_tau11(n, lam)


def test_commutativity(table3, table4):
    assert check_commutativity(table3) == []
    assert check_commutativity(table4) == []


def test_commutativity_reference_scales_denominators():
    # every r_ij measured at n = 4..8 is an integer, so feed the int reference
    # an expression with denominators: r = 1/2 on two monomials
    n = 3
    table = lazy_table(n)  # its basis positions code the terms
    keys = table._key_list()
    expand = suites._expansion(ring._pieri_codes(n, table.basis, table.pos),
                             table.pos[(1, 0)])
    assert {keys[code]: c for code, c in expand[(1, 0)].items()} \
        == pieri_tau1(n, (1, 0)).flat
    expr = {(2, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    want: dict = {}
    for mon, r in expr.items():
        for code, c in expand[mon].items():
            want[code] = want.get(code, Fraction(0)) + r * c
    want = {code: v for code, v in want.items() if v}
    assert any(v.denominator != 1 for v in want.values())
    scaled = suites._scaled(expr)
    assert scaled == (2, {(2, 0): 1, (0, 1): 1})
    assert not suites._differs(scaled, expand, want)
    for code in want:  # a product that differs by 1 anywhere is reported
        assert suites._differs(scaled, expand, {**want, code: want[code] + 1})
    q_unit = len(table.basis) + table.pos[(0, 0)]  # the code of q tau[0,0]
    assert suites._differs(scaled, expand, {**want, q_unit: Fraction(1)})


def test_associativity_exhaustive_n3(table3):
    basis = table3.basis
    vecs = {lam: basis_vec(3, lam) for lam in basis}
    for x in basis:
        for y in basis:
            xy = table3.product(x, y)
            for z in basis:
                left = multiply(table3, xy, vecs[z])
                right = multiply(table3, vecs[x], multiply(table3, vecs[y], vecs[z]))
                assert left == right, (x, y, z)


def test_multiply_examples(table3):
    # unit law through the bilinear route
    assert multiply(table3, basis_vec(3, (0, 0)), basis_vec(3, (4, 3))) \
        == basis_vec(3, (4, 3))
    assert multiply(table3, basis_vec(3, (1, 1)), basis_vec(3, (5, 2))) \
        == ClassVector.from_terms(3, [((3, 0), 1, 1)])
    # independent oracle: (3,1) is the square of (1,1), so the product
    # (3,1)*(3,1) is four applications of the tau[1,1] rule to the unit
    expected = basis_vec(3, (0, 0))
    for _ in range(4):
        acc = ClassVector.zero(3)
        for nu, d, c in expected.flat_items():
            acc = acc + ClassVector.from_terms(
                3, [(m, c * k, d + e) for m, e, k in pieri_tau11(3, nu).flat_items()])
        expected = acc
    assert table3.product((3, 1), (3, 1)) == expected
    assert expected == basis_vec(3, (5, 3))


def test_multiply_q_coefficients_pass_through(table3):
    x = ClassVector.from_terms(3, [((1, 0), 2, 1)])
    y = basis_vec(3, (1, 0))
    out = multiply(table3, x, y)
    assert out == ClassVector.from_terms(3, [((2, 0), 2, 1), ((1, 1), 2, 1)])


def test_gw_examples(table3):
    assert gw_constant(table3, (1, 1), (5, 2), (3, 0), 1) == 1
    assert gw_constant(table3, (1, 0), (1, 0), (2, 0), 0) == 1
    assert gw_constant(table3, (1, 1), (5, 2), (3, 0), 0) == 0
    with pytest.raises(ValueError):
        gw_constant(table3, (1, 1), (5, 2), (3, 0), -1)
    with pytest.raises(ValueError):
        gw_constant(table3, (2, 2), (5, 2), (3, 0), 0)


def test_gw_refuses_an_exponent_that_is_not_an_int(table3):
    for d in (1.0, True, "1"):
        with pytest.raises(ValueError, match="q-exponent"):
            gw_constant(table3, (1, 0), (5, 0), (0, 0), d)


def test_pairing_examples(table3):
    assert poincare_pairing(table3, (0, 0), (5, 4)) == 1
    assert poincare_pairing(table3, (1, 0), (5, 4)) == 0
    # independent route: the wall case of the tau[1,0] rule lands on the top class
    assert pieri_tau1(3, (5, 3)).coefficient((5, 4), 0) == 1
    assert poincare_pairing(table3, (1, 0), (5, 3)) == 1


def det(matrix):
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(size):
        out *= m[i][i]
    return out


def test_pairing_nondegenerate(table3, table4, table5):
    for table in (table3, table4, table5):
        n = table.n
        for d in range(0, max_degree(n) + 1):
            rows = enumerate_degree(n, d)
            cols = enumerate_degree(n, max_degree(n) - d)
            assert len(rows) == len(cols)
            matrix = [[poincare_pairing(table, r, c) for c in cols] for r in rows]
            assert det(matrix) != 0, (n, d)


def test_negativity(table3, table4):
    for table in (table3, table4):
        found, witness = has_negative_constant(table)
        assert found
        assert witness["coeff"] < 0
        lam, mu = witness["lambda"], witness["mu"]
        prod = table.product(lam, mu)
        assert prod.coefficient(witness["nu"], witness["d"]) == witness["coeff"]
        # the first negative term of the first such pair, as a Fraction
        first = next((lam, mu, nu, d, c) for lam, mu in table.pairs()
                     for nu, d, c in table.product(lam, mu).flat_items() if c < 0)
        assert tuple(witness.values()) == first and type(witness["coeff"]) is Fraction
        # products by the two special classes never go negative
        for special in ((1, 0), (1, 1)):
            for lam in table.basis:
                for _, _, c in table.product(special, lam).flat_items():
                    assert c >= 0


@pytest.mark.parametrize("part", IDENTITY_PARTS)
def test_identities_hold_n3_n4(part, table3, table4):
    for table in (table3, table4):
        report = verify_identities(table, part)
        assert report.holds, report.counterexamples
        assert report.checked > 0 or part in ()
        assert report.counterexamples == []


def test_identity_boundary_instance(table4):
    # a shift-boundary instance whose raw second term is an invalid diagonal
    got = multiply(table4, diagonal_power(table4, 1),
                   ClassVector.basis(4, (2, 2)))
    assert got == ClassVector.from_terms(4, [((4, 2), 1, 0)])


def test_closed_forms_n4():
    assert power_class(4, 2) == [((2, 2), 1, 0)]
    assert power_class(4, 3) == [((4, 2), 1, 0)]
    assert collapse_terms(4, (6, 3)) == [((5, 0), 1, 1)]
    assert collapse_terms(4, (6, 4)) == [((7, -1), 1, 1), ((6, 0), 1, 1)]
    assert shift_terms(4, (1, 0), 1) == [((2, 1), 1, 0)]
    assert shift_terms(4, (2, 1), 2) == [((4, 3), 1, 0), ((5, 2), 1, 0)]
    # the invalid diagonal (3, 3) is zero once the triples become a vector
    terms = shift_terms(4, (0, 0), 3)
    assert terms == [((3, 3), 1, 0), ((4, 2), 1, 0)]
    assert ClassVector.from_terms(4, terms) == ClassVector.from_terms(4, power_class(4, 3))


def test_closed_forms_match_the_engine(table5):
    n = 5
    for t in range(1, n):
        power = diagonal_power(table5, t)
        assert power == ClassVector.from_terms(n, power_class(n, t))
        # t = n-1 is outside the identity suite's shift parts
        for mu in enumerate_degree(n, 2 * n - 1 - 2 * t):
            assert multiply(table5, power, basis_vec(n, mu)) == \
                ClassVector.from_terms(n, shift_terms(n, mu, t))
    for lam in enumerate_degree(n, 2 * n + 3):
        t = 2 * n - lam[0]
        assert multiply(table5, diagonal_power(table5, t), basis_vec(n, lam)) == \
            ClassVector.from_terms(n, collapse_terms(n, lam))


def test_unknown_identity_part_rejected(table3):
    with pytest.raises(ValueError):
        verify_identities(table3, "nonsense")


def test_run_suite_without_the_cli(table3):
    checks = suites.run_suite(table3, "betti")
    assert [c["name"] for c in checks] == ["betti-symmetry", "top-class-unique",
                                           "unit-law", "commutativity"]
    assert all(c["passed"] for c in checks)
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        suites.run_suite(table3, "nonsense")


def test_ring_rejects_rank_two():
    with pytest.raises(ValueError):
        build_table(2)


def test_ring_rejects_absurd_rank():
    assert MAX_RING_RANK == 1000
    with pytest.raises(ValueError, match="rank must be <= 1000"):
        lazy_table(MAX_RING_RANK + 1)
    with pytest.raises(ValueError, match="rank must be <= 1000"):
        build_table(100_000_000)


def test_invalid_index_lookup(table3):
    with pytest.raises(ValueError):
        table3.product((2, 2), (1, 0))


def test_multiply_rank_mismatch(table3):
    with pytest.raises(ValueError):
        multiply(table3, ClassVector.basis(4, (1, 0)), ClassVector.basis(3, (1, 0)))


def _entry(products, lam, mu):
    return next(p for p in products if (p["lambda"], p["mu"]) == ([*lam], [*mu]))


def _bump(lam, mu):
    """Add 1 to the first coefficient of the stored product lam * mu."""
    def edit(products):
        _entry(products, lam, mu)["terms"][0]["coeff"] += 1
    return edit


def _add_inhomogeneous_term(products):
    _entry(products, (2, 1), (3, 1))["terms"].append({"nu": [0, 0], "d": 0, "coeff": 1})


def _move_term_within_its_degree(products):
    # to a class the product lacks: a term listed twice is refused on loading
    terms = _entry(products, (2, 1), (4, 2))["terms"]
    taken = {(tuple(t["nu"]), t["d"]) for t in terms}
    term = terms[0]
    term["nu"] = [*next(c for c in enumerate_degree(3, degree(tuple(term["nu"])))
                        if (c, term["d"]) not in taken)]


# One edit each to an n = 3 cache: the unit column, both special-class
# columns, a term off the product's degree, and a term moved to another
# class of its degree, which keeps the grading right.
TAMPERS = {"unit-column": _bump((0, 0), (2, 1)),
           "tau10-column": _bump((1, 0), (2, 0)),
           "tau11-column": _bump((1, 1), (2, 1)),
           "other-product": _bump((2, 0), (4, 0)),
           "inhomogeneous-term": _add_inhomogeneous_term,
           "same-degree-move": _move_term_within_its_degree}


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=TAMPERS.keys())
def test_table_round_trip_and_revalidation(tmp_path, table3, tamper):
    path = tmp_path / "t3.json"
    serialize.save_table(table3, path)
    loaded = serialize.load_table(path, revalidate=True)
    # revalidation keeps no column memo and stores no product beyond the cache
    assert not loaded._columns
    assert loaded.stored_products() == table3.stored_products()
    for lam, mu in table3.pairs():
        assert loaded.product(lam, mu) == table3.product(lam, mu)
    data = json.loads(path.read_text())
    tamper(data["products"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    serialize.load_table(bad)  # well-formed: only revalidation can refuse it
    with pytest.raises(ValueError):
        serialize.load_table(bad, revalidate=True)


def test_commutativity_checks_a_loaded_cache(tmp_path, table3):
    path = tmp_path / "t3.json"
    serialize.save_table(table3, path)
    assert check_commutativity(serialize.load_table(path)) == []
    data = json.loads(path.read_text())
    entry = data["products"][40]
    entry["terms"][0]["coeff"] += 1
    path.write_text(json.dumps(data))
    pair = (tuple(entry["lambda"]), tuple(entry["mu"]))
    assert check_commutativity(serialize.load_table(path)) == [pair]


def test_lazy_table_matches_eager(table3, table4, table5, table6):
    for eager in (table3, table4, table5, table6):
        lazy = lazy_table(eager.n)
        assert lazy.stored_products() == 0
        assert lazy.basis == eager.basis
        # ask in the opposite factor order: the table canonicalises the pair
        for lam, mu in eager.pairs():
            assert lazy.product(mu, lam) == eager.product(lam, mu), (lam, mu)
        assert lazy.stored_products() == eager.stored_products()


def test_lazy_table_audits_on_demand():
    lazy = lazy_table(4)
    # tau[1,1] = tau[1,1]*tau[0,0], corrupted to subtract tau[1,0]: off degree
    lazy._rules[(1, 1)] = lazy._rules[(1, 1)]._replace(others=(((1, 0), 1, 0),))
    assert lazy.product((1, 0), (3, 0)) == pieri_tau1(4, (3, 0))
    with pytest.raises(RuntimeError, match="inhomogeneous"):
        lazy.product((3, 0), (1, 1))
    assert lazy.stored_products() == 1


@pytest.mark.parametrize("n", [*range(3, 11), 64])
def test_recursion_rules_are_unitriangular(n):
    def key(lam):  # (|lam|, lam1), lam1 descending in degree 2n-1
        return (degree(lam), -lam[0] if degree(lam) == 2 * n - 1 else lam[0])

    basis = enumerate_basis(n)
    assert len({key(lam) for lam in basis}) == len(basis)  # a total order
    for lam in basis[1:]:
        special, pred, others = ring._rule(n, lam)
        out = (pieri_tau1 if special == (1, 0) else pieri_tau11)(n, pred)
        assert out.coefficient(lam, 0) == 1
        assert out - basis_vec(n, lam) == ClassVector.from_terms(n, others)
        for o in (pred, *(o for o, _, _ in others)):
            assert key(o) < key(lam), (lam, o)


def test_recursion_without_a_unitriangular_rule_fails(monkeypatch):
    monkeypatch.setattr(ring, "_tau11_raw", lambda n, lam: ("generic", ()))
    with pytest.raises(GenerationFailure, match="no unitriangular"):
        lazy_table(4).product((1, 1), (1, 1))


def test_recursion_refuses_a_rule_out_of_order(monkeypatch):
    raw = ring._tau11_raw

    def with_a_later_term(n, lam):  # tau[1,1] * 1 = tau[1,1] + tau[2,0]
        case, terms = raw(n, lam)
        return case, terms + ((((2, 0), 1, 0),) if lam == (0, 0) else ())

    monkeypatch.setattr(ring, "_tau11_raw", with_a_later_term)
    with pytest.raises(GenerationFailure, match="does not come before"):
        lazy_table(4).product((1, 1), (1, 1))
    with pytest.raises(GenerationFailure, match="does not come before"):
        build_table(4)


def test_commutativity_catches_a_wrong_recursion(monkeypatch):
    rule_of = ring._rule

    def doubled(n, lam):  # tau[2,0] = tau[1,0]^2 - tau[1,1], doubled to 2 tau[1,1]
        rule = rule_of(n, lam)
        if lam != (2, 0):
            return rule
        (o, k, dd), *rest = rule.others
        return rule._replace(others=((o, 2 * k, dd), *rest))

    monkeypatch.setattr(ring, "_rule", doubled)
    assert check_commutativity(build_table(4))


def test_lazy_table_builds_only_the_rules_a_product_uses():
    lazy = lazy_table(200)
    assert lazy.product((1, 0), (1, 0)) == pieri_tau1(200, (1, 0))
    # tau[1,0] * tau[1,0] = tau[1,0] * (tau[0,0] * tau[1,0]): one rule, and the
    # tau[1,0] Pieri terms of the one class in column (1,0)'s entry for (0,0),
    # coded at each power of q
    assert set(lazy._rules) == {(1, 0)}
    N = len(lazy.basis)
    assert {code % N for code in lazy._times[(1, 0)]} == {lazy.pos[(1, 0)]}
    assert not lazy._times[(1, 1)]
    # and the degree and interned key of the product's own terms' codes only
    used = {d * N + lazy.pos[nu] for nu, d in lazy.terms((1, 0), (1, 0))}
    assert set(lazy._degrees) == set(lazy._keys) == used


@pytest.mark.parametrize("n", range(3, 9))
def test_column_fill_matches_the_lazy_walk(tmp_path, monkeypatch, n):
    with monkeypatch.context() as m:  # the full fill never runs the lazy walk
        def refuse(self, lam, mu):
            raise AssertionError(f"lazy walk asked for {lam}*{mu}")
        m.setattr(ring.MultiplicationTable, "_recurse", refuse)
        full = build_table(n)
        serialize.save_table(full, tmp_path / "t.json")
        loaded = serialize.load_table(tmp_path / "t.json", revalidate=True)
    assert not full._columns and not loaded._columns
    lazy = lazy_table(n)
    rng = random.Random(n)
    pairs = [pair if rng.random() < 0.5 else pair[::-1] for pair in lazy.pairs()]
    rng.shuffle(pairs)
    for lam, mu in pairs:
        lazy.terms(lam, mu)
    assert full._products == lazy._products == loaded._products


def test_column_fill_checks_homogeneity(tmp_path, monkeypatch):
    path = tmp_path / "t4.json"
    serialize.save_table(build_table(4), path)
    rule_of = ring._rule

    def off_degree(n, lam):  # tau[1,1] = tau[1,1]*tau[0,0], corrupted to subtract tau[1,0]
        rule = rule_of(n, lam)
        return rule._replace(others=(((1, 0), 1, 0),)) if lam == (1, 1) else rule

    monkeypatch.setattr(ring, "_rule", off_degree)
    with pytest.raises(RuntimeError, match="inhomogeneous"):
        build_table(4)
    # the fill refuses before any product is compared with the good cache
    with pytest.raises(RuntimeError, match="inhomogeneous"):
        serialize.load_table(path, revalidate=True)


def test_full_table_matches_lazy_products_n7():
    full, lazy = build_table(7), lazy_table(7)
    for lam, mu in full.pairs():
        assert full.product(lam, mu) == lazy.product(lam, mu), (lam, mu)


def test_full_table_coefficients_are_fractions(tmp_path, table4):
    # a table stores ints and hands out Fractions, never a float or a bare int
    path = tmp_path / "t4.json"
    serialize.save_table(table4, path)
    for table in (lazy_table(4), table4, serialize.load_table(path)):
        for lam, mu in table4.pairs():
            prod = table.product(lam, mu)
            assert all(type(c) is Fraction for c in prod.flat.values())
            xy = multiply(table, basis_vec(4, lam), basis_vec(4, mu))
            assert xy == prod and all(type(c) is Fraction for c in xy.flat.values())
            assert type(poincare_pairing(table, lam, mu)) is Fraction
            for nu, d in [*prod.flat, ((0, 0), 0)]:
                assert type(gw_constant(table, lam, mu, nu, d)) is Fraction
        assert all(type(terms) is dict and all(type(c) is int for c in terms.values())
                   for terms in table._products.values())
        # what product() returns is the caller's: editing it leaves the table
        prod = table.product((1, 1), (1, 1))
        before = dict(prod.flat)
        prod.flat.clear()
        assert table.product((1, 1), (1, 1)).flat == before != {}


# sha256 over repr((lam, mu, list(terms.items()))) for every pair in `pairs()`
# order: built and lazy tables share one digest, a loaded cache (whose terms
# come in file order) has its own
TERM_ORDER_DIGESTS = {
    3: ("ba05b5e6e49fc1cab23eeb46bad20a7b70aa80e18dbda8ae00005db346792774",
        "c6831f8239ef7f54bd46591a326f1b0355077932584cb966604198448073fd38"),
    4: ("6345ee85564cc504df1c21ba12b668dcb2fb932af6b54d091c40fcaf03e36ef5",
        "71e9ac00a5b9a42c1d1672d96b29cdfdb5b90b4c46a0adad76b5afc650383a79"),
    5: ("10fee4cb6644a10404adffd718666a8dfb4239f28151faf745a555faf6f99494",
        "ef5f091edf2c6f5203097f189e56291d292924b89373ca9219faeb23edae73de"),
    6: ("44f7eabbd18d78db78b5e802b6c2e205965cdefc7ebced91a3a878bd38b1affc",
        "4b4a6117387cf6fe956d39bcd5c65efcb4317b3f6e6fe0be920413d6c9e9c222"),
}


@pytest.mark.parametrize("n", sorted(TERM_ORDER_DIGESTS))
def test_products_are_keyed_by_interned_keys_in_a_pinned_order(tmp_path, n):
    path = tmp_path / "t.json"
    built = build_table(n)
    serialize.save_table(built, path)
    built_digest, loaded_digest = TERM_ORDER_DIGESTS[n]
    for table, digest in ((built, built_digest), (lazy_table(n), built_digest),
                          (serialize.load_table(path), loaded_digest)):
        h = hashlib.sha256()
        for lam, mu in table.pairs():
            terms = table.terms(lam, mu)
            h.update(repr((lam, mu, list(terms.items()))).encode())
        assert h.hexdigest() == digest
        for terms in table._products.values():
            for key in terms:
                nu, d = key
                assert key is table._keys[d * len(table.basis) + table.pos[nu]]
                assert key[0] is table.basis[table.pos[nu]]


def _with_a_pieri_term_at_q_Q(lam, term=None, raw=None):
    """The raw Pieri rule `raw` (by default `ring._tau1_raw`) with `term`, an
    (index, coeff, q-exponent) triple, added to its product with tau[lam]; by
    default q^Q tau[lam]."""
    raw = ring._tau1_raw if raw is None else raw
    term = (lam, 1, ring.Q) if term is None else term

    def tampered(n, nu):
        case, terms = raw(n, nu)
        return case, terms + ((term,) if nu == lam else ())
    return tampered


# (1,1) reaches the Pieri step (column (1,1) multiplies its unit entry by
# tau[1,0]); (0,0), the pred of tau[1,0]'s rule, reaches the q-shift of that
# rule's other terms
@pytest.mark.parametrize("lam, pair", [((1, 1), ((1, 0), (1, 1))),
                                       ((0, 0), ((1, 0), (1, 0)))])
def test_a_pieri_term_at_q_Q_is_refused_not_aliased(tmp_path, monkeypatch, lam, pair):
    path = tmp_path / "t3.json"
    serialize.save_table(build_table(3), path)
    # q^Q tau[lam] would have a code of its own, past the Q * N codes a product
    # can have; the one filter of Pieri terms refuses it where the rule is read
    monkeypatch.setattr(ring, "_tau1_raw", _with_a_pieri_term_at_q_Q(lam))
    message = re.escape(f"the tau[1,0] Pieri rule at {lam} has the term {lam}, q^4, "
                        f"inhomogeneous: degree {degree(lam) + 24}, not {degree(lam) + 1}")
    with pytest.raises(RuntimeError, match=message):
        build_table(3)
    with pytest.raises(RuntimeError, match=message):
        lazy_table(3).terms(*pair)
    with pytest.raises(RuntimeError, match=message):
        serialize.load_table(path, revalidate=True)
    with pytest.raises(RuntimeError, match=message):  # the reference reads every rule
        check_commutativity(serialize.load_table(path))
    # route A reads the tau[1,1] rule itself, not the table's
    monkeypatch.setattr(proof, "_tau11_raw", _with_a_pieri_term_at_q_Q(lam, raw=proof._tau11_raw))
    message = re.escape(f"the tau[1,1] Pieri rule at {lam} has the term {lam}, q^4, "
                        f"inhomogeneous: degree {degree(lam) + 24}, not {degree(lam) + 2}")
    with pytest.raises(RuntimeError, match=message):
        proof.build_constraints(lazy_table(3))


@pytest.mark.parametrize("lam, pair", [((1, 1), ((1, 0), (1, 1))),
                                       ((0, 0), ((1, 0), (1, 0)))])
def test_a_pieri_term_at_a_negative_q_power_is_refused(tmp_path, monkeypatch, lam, pair):
    # a negative code would wrap around in a list, so no code is ever made
    path = tmp_path / "t3.json"
    serialize.save_table(build_table(3), path)
    monkeypatch.setattr(ring, "_tau1_raw", _with_a_pieri_term_at_q_Q(lam, ((0, 0), 1, -1)))
    with pytest.raises(RuntimeError, match="negative q-exponent"):
        build_table(3)
    with pytest.raises(RuntimeError, match="negative q-exponent"):
        lazy_table(3).terms(*pair)
    with pytest.raises(RuntimeError, match="negative q-exponent"):
        serialize.load_table(path, revalidate=True)
    with pytest.raises(RuntimeError, match="negative q-exponent"):
        check_commutativity(serialize.load_table(path))


@pytest.mark.parametrize("lam, term, fault", [
    # of the product's degree 1 (7 - 2n), so only the sign of q's exponent
    # tells it from a valid term; its code would be negative
    ((0, 0), ((5, 2), 1, -1), "a negative q-exponent"),
    # inhomogeneous at q^0: named as such, not as a negative exponent
    ((1, 1), ((0, 0), 1, 0), "inhomogeneous: degree 0, not 3"),
], ids=["homogeneous-at-negative-q-power", "inhomogeneous-at-q0"])
def test_the_pieri_filter_names_what_is_wrong_with_a_term(monkeypatch, lam, term, fault):
    monkeypatch.setattr(ring, "_tau1_raw", _with_a_pieri_term_at_q_Q(lam, term))
    message = re.escape(f"the tau[1,0] Pieri rule at {lam} has the term {term[0]}, "
                        f"q^{term[2]}, {fault}")
    with pytest.raises(RuntimeError, match=message + "$"):
        build_table(3)
    with pytest.raises(RuntimeError, match=message + "$"):
        lazy_table(3).terms((1, 0), (1, 1))


def test_the_lazy_walk_refuses_a_code_past_its_lookups(monkeypatch):
    # q^3 tau[0,0] at (0,0) has a code below Q * N, but its q-shifts do not:
    # the lazy walk refuses the term when it first reads the rule at (0,0),
    # before any code past its lookups is made
    monkeypatch.setattr(ring, "_tau1_raw", _with_a_pieri_term_at_q_Q((0, 0), ((0, 0), 1, 3)))
    with pytest.raises(RuntimeError, match=re.escape(
            "the tau[1,0] Pieri rule at (0, 0) has the term (0, 0), q^3, "
            "inhomogeneous: degree 18, not 1")):
        lazy_table(3).terms((3, 0), (5, 1))


def test_the_commutativity_reference_refuses_an_expansion_past_q3(monkeypatch, table3):
    # the table is built before the rule changes, so only the reference sees
    # q^3 tau[0,0] at (3,2), whose q-shifts would be past its lists: it
    # refuses the term when it codes the rules, before any expansion
    monkeypatch.setattr(ring, "_tau1_raw", _with_a_pieri_term_at_q_Q((3, 2), ((0, 0), 1, 3)))
    with pytest.raises(RuntimeError, match=re.escape(
            "the tau[1,0] Pieri rule at (3, 2) has the term (0, 0), q^3, "
            "inhomogeneous: degree 18, not 6")):
        check_commutativity(table3)


@pytest.mark.parametrize("n", range(3, 7))
def test_term_codes_cannot_alias(tmp_path, n):
    built = build_table(n)
    serialize.save_table(built, tmp_path / "t.json")
    lazy = lazy_table(n)
    for lam, mu in lazy.pairs():
        lazy.terms(mu, lam)
    for table in (built, lazy, serialize.load_table(tmp_path / "t.json")):
        N = len(table.basis)
        keys = table._key_list()
        # the Q * N codes d * N + pos(nu) decode to Q * N distinct interned keys
        assert len(keys) == len(set(keys)) == ring.Q * N
        for code, key in enumerate(keys):
            assert key == (table.basis[code % N], code // N)
            assert table._keys[code] is key
            # a q-shift by dd * N keeps the class
            for dd in range(ring.Q - code // N):
                assert keys[code + dd * N][0] is key[0]
                assert keys[code + dd * N][1] == key[1] + dd
        interned = {id(key) for key in keys}
        assert all(id(key) in interned
                   for terms in table._products.values() for key in terms)


def test_a_cache_term_past_q3_is_refused_on_load(tmp_path, table3):
    # no product reaches q^Q, so a well-formed cache term there has no code:
    # the reader refuses it in its own words, before any check runs
    path = tmp_path / "t3.json"
    serialize.save_table(table3, path)
    for d in (ring.Q, 9):
        data = json.loads(path.read_text())
        data["products"][40]["terms"].append({"nu": [0, 0], "d": d, "coeff": 1})
        bad = tmp_path / f"q{d}.json"
        bad.write_text(json.dumps(data))
        message = f"term (0, 0), q^{d} is past q^3, which no product reaches"
        for revalidate in (False, True):
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                serialize.load_table(bad, revalidate=revalidate)
            assert "\n" not in str(info.value)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_commutativity_reference_runs_without_the_recursion(tmp_path, monkeypatch, n):
    path = tmp_path / "t.json"
    serialize.save_table(build_table(n), path)
    loaded = serialize.load_table(path)

    def refuse(*args, **kwargs):
        raise AssertionError("the reference ran the Pieri recursion")
    for name in ("_apply", "_recurse", "_by_column"):
        monkeypatch.setattr(ring.MultiplicationTable, name, refuse)
    assert check_commutativity(loaded) == []
