import copy
import json
import re
import tracemalloc
from fractions import Fraction

import pytest

from osglines import build_table, serialize
from osglines.algebra import AffineExpression, format_rational
from osglines.basis import CONCLUSION_NOT_UNIQUE, enumerate_basis
from osglines.cli import main
from osglines.ring import MultiplicationTable
from osglines.certify import certify_uniqueness
from osglines.proof import ConstraintSystem, build_constraints, verify_certificate
from osglines.deformation import DeformationSpec, MODE_PER_MU, MODE_PER_PAIR


def test_rational_strings():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert serialize._parse_number("7/3") == Fraction(7, 3)
    assert serialize._parse_number("-4") == -4
    # an integral value reads as an int, however it is written
    for text in ("-4", "8/2"):
        assert type(serialize._parse_number(text)) is int
    # matched whole and in ASCII digits: no trailing newline, no Arabic-Indic three
    for bad in ("1.5", "1/0", "", "a", "1/-2", "--1", "1/2\n", "5\n", "\u0663"):
        with pytest.raises(ValueError):
            serialize._parse_number(bad)


def test_a_number_past_the_int_string_limit_is_refused_in_its_own_words():
    for bad in ("1" * 5000, "-" + "1" * 5000, "1/" + "3" * 5000):
        with pytest.raises(ValueError) as info:
            serialize._parse_number(bad)
        assert str(info.value) == f"not a rational string: too long ({len(bad)} characters)"


@pytest.mark.parametrize("terms, message", [
    ([{"nu": [1, 0], "d": 0, "coeff": True}], "not a rational string: True"),
    ([{"nu": [1, 0], "d": 1, "coeff": "1"}, {"nu": [1, 0], "d": 1, "coeff": "-1"}],
     r"term \(1, 0\), q\^1 appears twice"),
    ({"nu": [1, 0], "d": 0, "coeff": "1"}, "terms must be a list"),
    ("tau[1,0]", "terms must be a list"),
], ids=["bool", "repeated", "dict", "string"])
def test_class_vector_terms_refuse_a_bool_and_a_repeated_term(terms, message):
    # as `_as_int` refuses a bool; a repeated term is never summed, and terms
    # that are not a list are refused before any is read
    with pytest.raises(ValueError, match=message) as info:
        serialize.class_vector_from_terms(3, terms)
    assert "\n" not in str(info.value)
    # a JSON integer coefficient still reads as itself
    one = [{"nu": [1, 0], "d": 0, "coeff": 1}]
    assert serialize.class_vector_from_terms(3, one) == \
        serialize.class_vector_from_terms(3, [{**one[0], "coeff": "1"}])


def test_spec_round_trip(tmp_path):
    spec = DeformationSpec(3, MODE_PER_PAIR,
                           {((5, 1), (0, 0)): Fraction(-1, 2),
                            ((5, 4), (2, 1)): Fraction(3)})
    path = tmp_path / "spec.json"
    serialize.save_spec(spec, path)
    assert serialize.load_spec(path) == spec

    per_mu = DeformationSpec(3, MODE_PER_MU, {(1, 0): Fraction(2, 7)})
    serialize.save_spec(per_mu, path)
    assert serialize.load_spec(path) == per_mu


def test_certificate_round_trip(tmp_path, table3):
    system = build_constraints(table3, MODE_PER_PAIR)
    cert = certify_uniqueness(system)
    path = tmp_path / "cert.json"
    serialize.save_certificate(cert, system, path)
    cert2, system2 = serialize.load_certificate(path)
    assert system2.unknowns == system.unknowns
    assert system2.constraints == system.constraints
    assert system2.provenance == system.provenance
    assert cert2.conclusion == cert.conclusion
    assert verify_certificate(system2, cert2)
    # serialization is deterministic
    path2 = tmp_path / "cert2.json"
    serialize.save_certificate(cert2, system2, path2)
    assert path.read_bytes() == path2.read_bytes()


X, Y = (1, 0), (1, 1)


def _toy_system():
    """A NotUnique system: per-mu keys so that it saves; X - Y >= 0 and
    2Y + 1 >= 0 give it a non-integral witness."""
    return ConstraintSystem(3, MODE_PER_MU, (X, Y),
                            (AffineExpression(0, {X: 1, Y: -1}), AffineExpression(1, {Y: 2})),
                            (((1, 1), (2, 1), 1),) * 2)


def test_certificate_text_matches_the_stdlib_encoder(tmp_path, table3, table4, table5):
    systems = [build_constraints(table, mode) for table in (table3, table4, table5)
               for mode in (MODE_PER_PAIR, MODE_PER_MU)] + [_toy_system()]
    path = tmp_path / "cert.json"
    for system in systems:
        serialize.save_certificate(certify_uniqueness(system), system, path)
        text = path.read_bytes().decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        cert, loaded = serialize.load_certificate(path)
        assert verify_certificate(loaded, cert)
        numbers = [w for bound in cert.bounds for _, w in bound.weights]
        numbers += [v for e in loaded.constraints for v in (e.constant, *e.linear.values())]
        numbers += list((cert.witness or {}).values())
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in numbers)
    assert cert.conclusion == CONCLUSION_NOT_UNIQUE
    assert cert.witness == {X: Fraction(-1, 2), Y: Fraction(-1, 2)}


def test_table_requires_known_version(tmp_path, capsys, table3):
    path = tmp_path / "t.json"
    serialize.save_table(table3, path)
    data = json.loads(path.read_text())
    # only the JSON integer 1 is version 1: true and 1.0 compare equal to it
    for version in (99, True, 1.0, "1"):
        data["version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            serialize.load_table(path)
        assert main(["table", "--n", "3", "--load", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_table_of_rank_two_is_refused(tmp_path, capsys):
    # a well-formed cache of the rank-2 basis: no table has that rank, so the
    # reader refuses it by its rank, before any product is read or revalidated
    basis = enumerate_basis(2)
    doc = {"version": serialize.TABLE_FORMAT_VERSION, "n": 2,
           "basis": [list(b) for b in basis],
           "products": [{"lambda": list(lam), "mu": list(mu), "terms": []}
                        for i, lam in enumerate(basis) for mu in basis[i:]]}
    assert len(doc["basis"]) == 8 and len(doc["products"]) == 36
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"rank must be >= 3, got 2"):
        serialize.load_table(path)
    for extra in ((), ("--revalidate",)):
        assert main(["table", "--n", "2", "--load", str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: rank must be >= 3, got 2\n"


def test_table_text_matches_the_stdlib_encoder(tmp_path, table3, table4, table5, table6):
    path = tmp_path / "t.json"
    for table in (table3, table4, table5, table6):
        serialize.save_table(table, path)
        text = path.read_bytes().decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"


def _table_with(table, pair, product):
    products = {p: table.terms(*p) for p in table.pairs()}
    products[pair] = product
    return MultiplicationTable(table.n, table.basis, products)


def test_empty_product_saves_as_an_empty_list(tmp_path, table3):
    pair = ((1, 0), (5, 4))  # tau[1,0] * tau[top] is q times a class, here zeroed
    table = _table_with(table3, pair, {})
    path = tmp_path / "t.json"
    serialize.save_table(table, path)
    text = path.read_text()
    assert text.count('"terms": []') == 1
    assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    loaded = serialize.load_table(path)
    assert not loaded.product(*pair)
    for lam, mu in table3.pairs():
        assert loaded.product(lam, mu) == table.product(lam, mu)


def test_non_integer_coefficient_is_not_saved(tmp_path, table3):
    # the reader refuses a bool or a float, so the writer must not write one
    for coeff in (Fraction(1, 2), True, 1.0):
        table = _table_with(table3, ((1, 0), (1, 0)), {((2, 0), 0): coeff})
        with pytest.raises(ValueError, match="non-integer coefficient"):
            serialize.save_table(table, tmp_path / "t.json")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["table", "spec", "certificate"])
def test_failed_save_leaves_target_intact(tmp_path, monkeypatch, table3, kind):
    target = tmp_path / "shared.json"
    target.write_text("previous contents\n")
    if kind == "table":
        save = lambda: serialize.save_table(table3, target)
    elif kind == "spec":
        save = lambda: serialize.save_spec(DeformationSpec.zero(3), target)
    else:
        system = build_constraints(table3, MODE_PER_PAIR)
        cert = certify_uniqueness(system)
        save = lambda: serialize.save_certificate(cert, system, target)

    def fail(src, dst):
        raise OSError("simulated failure while replacing the target")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError, match="simulated"):
        save()
    assert target.read_text() == "previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]
    monkeypatch.undo()
    save()
    assert target.read_text() != "previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]


def _drop(key):
    return lambda doc: doc.pop(key)


def _set_first_term_unknown(doc):
    next(c for c in doc["constraint_dump"] if c["terms"])["terms"][0]["unknown"] = 999


def _set_first_bound_unknown(doc):
    doc["bounds"][0]["unknown"] = 999


def _drop_first_provenance(doc):
    doc["constraint_dump"][0].pop("provenance")


def _end_first_weight_in_a_newline(doc):
    doc["bounds"][0]["weights"][0]["weight"] += "\n"


def _give_first_weight_5000_digits(doc):  # past the interpreter's int-string limit
    doc["bounds"][0]["weights"][0]["weight"] = "1" * 5000


def _set_witness(value):
    return lambda doc: doc.update(witness=value)


@pytest.mark.parametrize("mutate", [
    _drop("mode"), _drop("unknowns"), _set_first_term_unknown,
    _set_first_bound_unknown, _drop_first_provenance, _end_first_weight_in_a_newline,
    _give_first_weight_5000_digits, _set_witness({}), _set_witness(5),
], ids=["no-mode", "no-unknowns", "term-unknown-999", "bound-unknown-999",
        "no-provenance", "weight-newline", "weight-5000-digits", "witness-dict",
        "witness-number"])
def test_malformed_certificate_raises_value_error(tmp_path, table3, mutate):
    system = build_constraints(table3, MODE_PER_PAIR)
    path = tmp_path / "cert.json"
    serialize.save_certificate(certify_uniqueness(system), system, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        serialize.load_certificate(path)
    assert "\n" not in str(info.value)


def _repeat_term_unknown(doc):
    row = next(c for c in doc["constraint_dump"] if c["terms"])
    row["terms"] = [{"unknown": 0, "coeff": "5"}, {"unknown": 0, "coeff": "1"}]
    return f"constraint {doc['constraint_dump'].index(row)} names an unknown in two terms"


def _repeat_unknown(doc):
    doc["unknowns"][1] = copy.deepcopy(doc["unknowns"][0])
    return "unknown 1 repeats unknown 0"


def _repeat_witness_unknown(doc):
    doc["witness"][1]["unknown"] = doc["witness"][0]["unknown"]
    return "witness names an unknown in two entries"


@pytest.mark.parametrize("mutate", [_repeat_term_unknown, _repeat_unknown,
                                    _repeat_witness_unknown],
                         ids=["term", "unknown", "witness"])
def test_certificate_with_a_repeated_entry_is_refused(tmp_path, table3, mutate):
    # an unknown named twice is refused, never read by keeping one of the two
    # entries, as the table reader refuses a product that appears twice
    system = (_toy_system() if mutate is _repeat_witness_unknown
              else build_constraints(table3, MODE_PER_PAIR))
    path = tmp_path / "cert.json"
    serialize.save_certificate(certify_uniqueness(system), system, path)
    doc = json.loads(path.read_text())
    message = mutate(doc)
    with pytest.raises(ValueError, match=message) as info:
        serialize.certificate_from_dict(doc)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("term", [{"nu": [2, 1], "d": 0, "coeff": 1},
                                  {"nu": [2, 1], "d": 5, "coeff": 1}],
                         ids=["writer-shape", "past-q3"])
def test_table_with_a_repeated_term_is_refused(tmp_path, table3, term):
    # the field-by-field path refuses the second copy, which the fast path for
    # the writer's shape hands it; summed, the two would read as coefficient 2.
    # A term past q^3 has no key to repeat: its first copy is refused
    path = tmp_path / "t.json"
    serialize.save_table(table3, path)
    doc = json.loads(path.read_text())
    product = doc["products"][1]
    product["terms"] += [dict(term), dict(term)]
    lam, mu = tuple(product["lambda"]), tuple(product["mu"])
    message = (f"product pair {lam}, {mu} lists the term (2, 1), q^0 twice" if term["d"] == 0
               else "term (2, 1), q^5 is past q^3, which no product reaches")
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        serialize.table_from_dict(doc)
    assert "\n" not in str(info.value)


def _swap_two_basis_classes(doc):
    doc["basis"][1], doc["basis"][2] = doc["basis"][2], doc["basis"][1]
    return "table basis does not match the canonical basis order"


def _swap_a_product_pair(doc):
    # stored under (mu, lambda), the entry would sit under a key no lookup
    # reads, and the product would be recomputed without a word
    entry = next(e for e in doc["products"] if e["lambda"] != e["mu"])
    entry["lambda"], entry["mu"] = entry["mu"], entry["lambda"]
    return (f"product pair {tuple(entry['lambda'])}, {tuple(entry['mu'])} "
            "out of canonical order")


def _add_term(nu, d):
    # a d of -1 must not read a class's q^3 key from the end of its row
    def mutate(doc):
        doc["products"][1]["terms"].append({"nu": nu, "d": d, "coeff": 1})
        return f"term {tuple(nu)}, q^{d} is not a rank-3 class with d >= 0"
    return mutate


@pytest.mark.parametrize("mutate", [_swap_two_basis_classes, _swap_a_product_pair,
                                    _add_term([9, 9], 0), _add_term([2, 1], -1)],
                         ids=["basis-order", "product-order", "class-outside", "d-negative"])
def test_malformed_cache_is_refused_in_its_own_words(tmp_path, table3, mutate):
    path = tmp_path / "t.json"
    serialize.save_table(table3, path)
    doc = json.loads(path.read_text())
    message = mutate(doc)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        serialize.table_from_dict(doc)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("layout", [{"separators": (",", ":")}, {"indent": 4},
                                    {"indent": 2, "sort_keys": True}],
                         ids=["minified", "indent-4", "key-sorted"])
def test_readers_accept_any_json_layout(tmp_path, table3, layout):
    # the readers read JSON, not the writer's text: any valid layout loads
    path = tmp_path / "doc.json"

    def relaid():
        path.write_text(json.dumps(json.loads(path.read_text()), **layout))
        return path

    serialize.save_table(table3, path)
    table = serialize.load_table(relaid())
    assert {p: table.terms(*p) for p in table.pairs()} == \
        {p: table3.terms(*p) for p in table3.pairs()}
    for mode in (MODE_PER_PAIR, MODE_PER_MU):
        system = build_constraints(table3, mode)
        serialize.save_certificate(certify_uniqueness(system), system, path)
        original = serialize.load_certificate(path)
        assert serialize.load_certificate(relaid()) == original


@pytest.mark.parametrize("mode, entries, message", [
    (MODE_PER_MU, [{"mu": [1, 0], "a": "1"}, {"mu": [0, 0], "a": "5"},
                   {"mu": [1, 0], "a": "-1"}], "spec entry 2 repeats entry 0"),
    (MODE_PER_MU, [{"mu": [1, 0], "a": "1"}, {"mu": [1, 0], "a": "2"}],
     "spec entry 1 repeats entry 0"),
    (MODE_PER_PAIR, [{"lambda": [5, 1], "mu": [0, 0], "a": "1"},
                     {"lambda": [5, 1], "mu": [0, 0], "a": "1"}],
     "spec entry 1 repeats entry 0"),
], ids=["per-mu-cancelling", "per-mu-summing", "per-pair-equal"])
def test_spec_with_a_repeated_key_is_refused(mode, entries, message):
    # two entries for one key are refused, never summed: "1" then "-1" would
    # read as the zero deformation, which no single entry states
    doc = {"n": 3, "mode": mode, "entries": entries}
    with pytest.raises(ValueError, match=message) as info:
        serialize.spec_from_dict(doc)
    assert "\n" not in str(info.value)


def test_table_save_streams(tmp_path):
    # the text is written one product at a time, never held whole
    table = build_table(8)
    path = tmp_path / "t.json"
    tracemalloc.start()
    try:
        serialize.save_table(table, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def _required_fields(schema, node=None, path=()):
    """(path, key) for every field the schema lists as required, where the path
    leads from the document to the object: a str is a key, None a list item."""
    node = schema if node is None else node
    if "$ref" in node:
        node = schema["$defs"][node["$ref"].rsplit("/", 1)[1]]
    for key in node.get("required", ()):
        yield path, key
    for key, sub in node.get("properties", {}).items():
        yield from _required_fields(schema, sub, path + (key,))
    if isinstance(node.get("items"), dict):
        yield from _required_fields(schema, node["items"], path + (None,))
    for sub in node.get("oneOf", ()):
        yield from _required_fields(schema, sub, path)


def _objects_at(node, path):
    if not path:
        if isinstance(node, dict):
            yield node
    elif path[0] is None:
        for item in node if isinstance(node, list) else ():
            yield from _objects_at(item, path[1:])
    elif isinstance(node, dict) and path[0] in node:
        yield from _objects_at(node[path[0]], path[1:])


def _valid_documents(kind, table3, tmp_path):
    path = tmp_path / "doc.json"
    if kind == "table":
        serialize.save_table(table3, path)
        return [json.loads(path.read_text())]
    if kind == "certificate":
        docs = []
        for system in (build_constraints(table3, MODE_PER_PAIR), _toy_system()):
            serialize.save_certificate(certify_uniqueness(system), system, path)
            docs.append(json.loads(path.read_text()))
        return docs
    return [serialize.spec_to_dict(spec) for spec in (
        DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): Fraction(-1, 2)}),
        DeformationSpec(3, MODE_PER_MU, {(1, 0): Fraction(2, 7)}))]


@pytest.mark.parametrize("kind, schema, read", [
    ("table", "table.schema.json", serialize.table_from_dict),
    ("certificate", "certificate.schema.json", serialize.certificate_from_dict),
    ("spec", "deformation_spec.schema.json", serialize.spec_from_dict),
])
def test_reader_requires_every_required_field(tmp_path, table3, kind, schema, read):
    # each field the shipped schema requires, deleted at every nesting level
    # from a valid document, makes the reader raise a one-line ValueError
    docs = _valid_documents(kind, table3, tmp_path)
    required = set(_required_fields(serialize.load_schema(schema)))
    tried, accepted = set(), []
    for path, key in sorted(required, key=repr):
        for doc in map(copy.deepcopy, docs):
            target = next((o for o in _objects_at(doc, path) if key in o), None)
            if target is None:
                continue
            tried.add((path, key))
            del target[key]
            try:
                read(doc)
            except ValueError as e:
                assert "\n" not in str(e)
            else:
                accepted.append((doc.get("mode"), path, key))
    assert accepted == []
    assert tried == required
