import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from osglines import certify, proof, replay, ring, serialize
from osglines.proof import verify_certificate
from osglines.replay import MismatchError
from osglines.cli import SUITES, main
from osglines.deformation import DeformationSpec, MODE_PER_MU, MODE_PER_PAIR
from osglines.expr import MAX_NESTING

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def cli_schema():
    return serialize.load_schema("cli_output.schema.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, cli_schema, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, cli_schema)
    return code, doc


def test_basis_text(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--degree", "4")
    assert code == 0
    assert out.splitlines() == ["tau[5,-1]  degree 4", "tau[4,0]  degree 4",
                                "tau[3,1]  degree 4"]


def test_basis_json(capsys, cli_schema):
    code, doc = run_json(capsys, cli_schema, "basis", "--n", "3")
    assert code == 0
    assert doc["count"] == 18
    assert doc["indices"][0] == [0, 0]
    assert doc["indices"][-1] == [5, 4]


def test_mult_unit_law(capsys):
    code, out, _ = run(capsys, "mult", "--n", "3", "tau[0,0]*tau[4,3]")
    assert code == 0
    assert out.strip() == "tau[4,3]"


def test_mult_json_matches_text(capsys, cli_schema):
    expr = "tau[5,-1]*tau[5,-1]"
    code, doc = run_json(capsys, cli_schema, "mult", "--n", "3", expr)
    assert code == 0
    code2, text, _ = run(capsys, "mult", "--n", "3", expr)
    # same mathematical content in both modes
    terms = {(tuple(t["nu"]), t["d"]): t["coeff"] for t in doc["terms"]}
    assert terms == {((2, 0), 1): "-1", ((1, 1), 1): "1", ((5, 3), 0): "1"}
    assert text.strip() == "-q*tau[2,0] + q*tau[1,1] + tau[5,3]"


def test_gw_value(capsys, cli_schema):
    code, out, _ = run(capsys, "gw", "--n", "3", "--lambda", "1,1",
                       "--mu", "5,2", "--nu", "3,0", "--d", "1")
    assert code == 0
    assert out.strip() == "1"
    code, doc = run_json(capsys, cli_schema, "gw", "--n", "3", "--lambda", "1,1",
                         "--mu", "5,2", "--nu", "3,0", "--d", "1")
    assert doc["value"] == "1"


def test_pieri(capsys, cli_schema):
    code, doc = run_json(capsys, cli_schema, "pieri", "--n", "3",
                         "--class", "11", "--with", "5,3")
    assert code == 0
    assert {(tuple(t["nu"]), t["d"]) for t in doc["terms"]} \
        == {((5, -1), 1), ((4, 0), 1)}


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suites(capsys, cli_schema, monkeypatch, suite):
    def refuse(n):
        raise AssertionError("verify built the full table")

    monkeypatch.setattr(ring, "build_table", refuse)  # every suite reads lazy_table
    code, doc = run_json(capsys, cli_schema, "verify", "--n", "3",
                         "--suite", suite)
    assert code == 0
    assert doc["passed"] is True


def test_mult_nesting_is_capped(capsys):
    def nested(depth):
        return "(" * depth + "tau[1,0]" + ")" * depth

    code, out, _ = run(capsys, "mult", "--n", "3", nested(MAX_NESTING))
    assert code == 0 and out == "tau[1,0]\n"
    for depth in (MAX_NESTING + 1, 500):
        code, out, err = run(capsys, "mult", "--n", "3", nested(depth))
        assert code == 2 and out == ""
        assert err == (f"error: nesting deeper than {MAX_NESTING} "
                       f"at offset {MAX_NESTING}\n")


def test_certify_both(capsys, cli_schema, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--n", "3", "--method", "both",
                       "--emit-certificate", str(cert_path))
    assert code == 0
    assert out.splitlines()[0] == "UniqueZero (fm) / UniqueZero (replay)"
    data = json.loads(cert_path.read_text())
    jsonschema.validate(data, serialize.load_schema("certificate.schema.json"))
    # the emitted certificate is independently re-checkable
    cert, system = serialize.load_certificate(cert_path)
    assert verify_certificate(system, cert)
    code, doc = run_json(capsys, cli_schema, "certify", "--n", "3",
                         "--method", "both", "--mode", "per-mu")
    assert code == 0 and doc["agree"] is True


def test_certify_resource_cap_is_math_failure(capsys, cli_schema):
    code, doc = run_json(capsys, cli_schema, "certify", "--n", "3",
                         "--max-rows", "1")
    assert code == 1
    assert "error" in doc
    code, _, err = run(capsys, "certify", "--n", "3", "--max-rows", "1")
    assert code == 1 and "error" in err


def test_certify_mismatch_is_math_failure(capsys, cli_schema, monkeypatch):
    def mismatch(table):
        raise MismatchError("conclusion", "degree 5 unknowns not all settled")

    monkeypatch.setattr(replay, "replay_proof", mismatch)
    code, doc = run_json(capsys, cli_schema, "certify", "--n", "3",
                         "--method", "replay")
    assert code == 1
    assert doc == {"command": "certify",
                   "error": "conclusion: degree 5 unknowns not all settled"}
    code, out, err = run(capsys, "certify", "--n", "3", "--method", "replay")
    assert code == 1 and out == "" and err.startswith("error: ")


def test_certify_max_rows_below_one_is_usage_error(capsys):
    for value in ("0", "-5"):
        code, out, err = run(capsys, "certify", "--n", "3", "--max-rows", value)
        assert code == 2 and out == ""
        assert err == f"error: --max-rows must be at least 1, got {value}\n"
    code, _, _ = run(capsys, "certify", "--n", "3", "--max-rows", "1")
    assert code == 1


def test_check_positivity(capsys, cli_schema, tmp_path):
    zero = tmp_path / "zero.json"
    serialize.save_spec(DeformationSpec.zero(3), zero)
    code, doc = run_json(capsys, cli_schema, "check-positivity", "--n", "3",
                         "--spec", str(zero))
    assert code == 0 and doc["passes"] is True

    bad = tmp_path / "bad.json"
    serialize.save_spec(DeformationSpec(3, MODE_PER_PAIR,
                                        {((5, 1), (0, 0)): -1}), bad)
    jsonschema.validate(json.loads(bad.read_text()),
                        serialize.load_schema("deformation_spec.schema.json"))
    code, doc = run_json(capsys, cli_schema, "check-positivity", "--n", "3",
                         "--spec", str(bad))
    assert code == 0
    assert doc["passes"] is False
    assert {"mu": [4, 0], "nu": [0, 0], "d": 1, "value": "-1"} in doc["violations"]


def test_table_cache_round_trip(capsys, cli_schema, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, doc = run_json(capsys, cli_schema, "table", "--n", "3",
                         "--out", str(first))
    assert code == 0 and doc["source"] == "built" and doc["products"] == 171
    code, doc = run_json(capsys, cli_schema, "table", "--n", "3",
                         "--load", str(first), "--revalidate",
                         "--out", str(second))
    assert code == 0 and doc["source"] == "loaded" and doc["revalidated"]
    assert first.read_bytes() == second.read_bytes()


def test_table_rank_mismatch_writes_nothing(capsys, tmp_path):
    t3 = tmp_path / "t3.json"
    copy_path = tmp_path / "copy.json"
    run(capsys, "table", "--n", "3", "--out", str(t3))
    code, out, err = run(capsys, "table", "--n", "4", "--load", str(t3),
                         "--out", str(copy_path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "n=3" in err
    assert not copy_path.exists()


def test_table_default_cache_dir(capsys, cli_schema, tmp_path, monkeypatch):
    monkeypatch.setenv("OSG_CACHE_DIR", str(tmp_path / "cache"))
    code, doc = run_json(capsys, cli_schema, "table", "--n", "3")
    assert code == 0
    assert doc["saved_to"].endswith("qh-table-n3.json")
    monkeypatch.delenv("OSG_CACHE_DIR")
    code, _, err = run(capsys, "table", "--n", "3")
    assert code == 2 and "need --out or --load" in err


def test_table_revalidate_needs_load(capsys, tmp_path, monkeypatch):
    out = tmp_path / "q.json"
    monkeypatch.setenv("OSG_CACHE_DIR", str(tmp_path / "cache"))
    for argv in (["--out", str(out)], []):  # --out, then the default cache path
        code, stdout, err = run(capsys, "table", "--n", "3", *argv,
                                "--revalidate", "--format", "json")
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "--load" in err
    assert not out.exists() and not (tmp_path / "cache").exists()


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "mult", "--n", "3", "tau[1,1]^2")
    assert code == 2 and "offset" in err
    code, _, err = run(capsys, "mult", "--n", "3", "tau[2,2]")
    assert code == 2 and "not valid" in err
    code, out, err = run(capsys, "mult", "--n", "3", "tau[\u0661,\u0660]*tau[\u0661,\u0660]")
    assert (code, out) == (2, "")
    assert err == "error: unexpected character '\u0661' at offset 4\n"
    code, out, err = run(capsys, "mult", "--n", "3", "tau[1,0]*" + "1" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: integer of 5000 digits is too long at offset 9\n"
    code, _, err = run(capsys, "check-positivity", "--n", "3",
                       "--spec", "/nonexistent/path.json")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pieri", "--n", "3", "--class", "11", "--with", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["basis"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["certify", "--n", "3", "--emit-certificate"],
                                  ["table", "--n", "3", "--out"]])
def test_write_error_names_the_target(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "doc.json")
    code, out, err = run(capsys, *argv, target)
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {target!r}\n"


def test_spec_that_is_not_json_names_the_file(capsys):
    code, out, err = run(capsys, "check-positivity", "--n", "3", "--spec", os.devnull)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {os.devnull} is not a JSON document: ")


def test_spec_rank_mismatch_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "n4.json"
    serialize.save_spec(DeformationSpec.zero(4), spec)
    code, _, err = run(capsys, "check-positivity", "--n", "3",
                       "--spec", str(spec))
    assert code == 2 and "n=4" in err


def test_emit_certificate_requires_fm(capsys, tmp_path):
    code, _, err = run(capsys, "certify", "--n", "3", "--method", "replay",
                       "--emit-certificate", str(tmp_path / "c.json"))
    assert code == 2 and "fm method" in err


def test_certify_large_rank(capsys, cli_schema):
    code, doc = run_json(capsys, cli_schema, "certify", "--n", "10",
                         "--method", "both")
    assert code == 0 and doc["agree"] is True
    assert [r["conclusion"] for r in doc["results"]] == ["UniqueZero"] * 2


def _drop_product_lambda(doc):
    doc["products"][3]["lambda"] = [9, 9]


def _drop_term_nu(doc):
    del doc["products"][5]["terms"][0]["nu"]


def _drop_table_n(doc):
    del doc["n"]


def _drop_spec_mu(doc):
    del doc["entries"][0]["mu"]


def _repeat_spec_key(doc):
    doc["entries"].append(copy.deepcopy(doc["entries"][0]))


def _long_spec_coefficient(doc):  # past the interpreter's int-string limit
    doc["entries"][0]["a"] = "1" * 5000


def _long_spec_denominator(doc):
    doc["entries"][0]["a"] = "1/" + "3" * 5000


def _fractional_coeff(doc):
    doc["products"][5]["terms"][0]["coeff"] = "1/2"


def _boolean_coeff(doc):
    doc["products"][5]["terms"][0]["coeff"] = True


def _fractional_d(doc):
    doc["products"][5]["terms"][0]["d"] = 1.5


def _duplicate_pair(doc):
    entry = copy.deepcopy(doc["products"][40])
    entry["terms"][0]["coeff"] += 1
    doc["products"].append(entry)


@pytest.mark.parametrize("mutate", [_drop_product_lambda, _drop_term_nu,
                                    _drop_table_n, _drop_spec_mu, _repeat_spec_key,
                                    _fractional_coeff, _boolean_coeff,
                                    _fractional_d, _duplicate_pair,
                                    _long_spec_coefficient, _long_spec_denominator])
def test_malformed_input_exits_two(capsys, tmp_path, mutate):
    path = tmp_path / "doc.json"
    if mutate in (_drop_spec_mu, _repeat_spec_key, _long_spec_coefficient,
                  _long_spec_denominator):
        serialize.save_spec(DeformationSpec(3, MODE_PER_PAIR,
                                            {((5, 1), (0, 0)): 1}), path)
        argv = ["check-positivity", "--n", "3", "--spec", str(path)]
    else:
        run(capsys, "table", "--n", "3", "--out", str(path))
        argv = ["table", "--n", "3", "--load", str(path)]
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_json_number_past_the_int_string_limit_exits_two(capsys, tmp_path):
    # json.load converts the number before any reader sees it; the error is
    # still the reader's own line, not the interpreter's advice
    path = tmp_path / "t.json"
    run(capsys, "table", "--n", "3", "--out", str(path))
    text = path.read_text()
    assert '"coeff": 1\n' in text
    path.write_text(text.replace('"coeff": 1\n', '"coeff": ' + "1" * 5000 + "\n", 1))
    code, out, err = run(capsys, "table", "--n", "3", "--load", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "set_int_max_str_digits" not in err


# Values of the wrong type or out of range for any field of a cache or a spec.
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
    st.text(max_size=4),
    st.sampled_from([-1, 0, 2, 4, 1001, 10**8, -10**30, [], {}, [0], [1, 2, 3],
                     [[0, 0]], {"nu": [0, 0]}, "1/0", "1/2", "tau", 1.0, 1.5]))


def _positions(node, path=()):
    """The path of every value in a JSON document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _positions(child, path + (key,))


def _mutate(data, doc):
    """A copy of doc with one drawn value replaced by a wrong value or deleted;
    the root itself is only ever replaced."""
    path = data.draw(st.sampled_from(list(_positions(doc))))
    if not path:
        return data.draw(WRONG_VALUES)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(WRONG_VALUES)
    return doc


def _main_on(doc, *argv):
    """Exit code, stdout and stderr of the CLI in-process on argv, where the
    argument PATH names a file that holds doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if a == "PATH" else a for a in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_accepted_or_refused(code, out, err):
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.fixture(scope="module")
def valid_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "t3.json"
    assert main(["table", "--n", "3", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_cache_is_loaded_or_refused(valid_cache, data):
    doc = _mutate(data, valid_cache)
    for extra in ([], ["--revalidate"]):
        _assert_accepted_or_refused(*_main_on(doc, "table", "--n", "3",
                                              "--load", "PATH", *extra))


VALID_SPECS = [
    DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): -1,
                                       ((5, 3), (1, 1)): Fraction(2, 3)}),
    DeformationSpec(3, MODE_PER_MU, {(0, 0): -1, (1, 1): Fraction(3, 4)}),
]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(VALID_SPECS), data=st.data())
def test_mutated_spec_is_checked_or_refused(spec, data):
    doc = _mutate(data, serialize.spec_to_dict(spec))
    _assert_accepted_or_refused(*_main_on(doc, "check-positivity", "--n", "3",
                                          "--spec", "PATH"))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_revalidation_catches_any_changed_coefficient(valid_cache, data):
    doc = copy.deepcopy(valid_cache)
    product = data.draw(st.sampled_from(doc["products"]))
    term = data.draw(st.sampled_from(product["terms"]))
    term["coeff"] += data.draw(st.integers(-1000, 1000).filter(bool))
    code, out, err = _main_on(doc, "table", "--n", "3", "--load", "PATH",
                              "--revalidate")
    assert code == 2 and "disagrees with the Pieri recursion" in err
    _assert_accepted_or_refused(code, out, err)


@pytest.fixture(scope="module")
def valid_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "c3.json"
    assert main(["certify", "--n", "3", "--mode", "per-pair",
                 "--emit-certificate", str(path)]) == 0
    doc = json.loads(path.read_text())
    cert, system = serialize.certificate_from_dict(doc)
    assert verify_certificate(system, cert) is True
    return doc


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_certificate_is_refused_or_verified(valid_certificate, data):
    doc = _mutate(data, valid_certificate)
    try:
        cert, system = serialize.certificate_from_dict(doc)
    except ValueError:
        return
    assert isinstance(verify_certificate(system, cert), bool)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_certificate_with_a_changed_weight_is_rejected(valid_certificate, data):
    doc = copy.deepcopy(valid_certificate)
    weight = data.draw(st.sampled_from([w for b in doc["bounds"] for w in b["weights"]]))
    old = Fraction(weight["weight"])
    new = data.draw(st.fractions(-10**6, 10**6).filter(lambda w: w != old))
    weight["weight"] = serialize.format_rational(new)
    cert, system = serialize.certificate_from_dict(doc)
    assert verify_certificate(system, cert) is False


def _int_slots(node):
    """(container, key) of every JSON integer (not a bool) in a document."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if type(child) is int:
            yield node, key
        elif isinstance(child, (dict, list)):
            yield from _int_slots(child)


def _per_mu_entry_with_lambda():
    doc = serialize.spec_to_dict(VALID_SPECS[1])
    doc["entries"][0]["lambda"] = [5, 1]
    return doc


@pytest.mark.parametrize("kind", ["cache", "certificate", "per-mu-with-lambda"])
def test_other_documents_are_refused_as_a_spec(valid_cache, valid_certificate, kind):
    # the spec reader defaults nothing: a table cache or a certificate is not
    # read as the zero deformation, and a per-mu entry cannot name a lambda
    doc = {"cache": valid_cache, "certificate": valid_certificate,
           "per-mu-with-lambda": _per_mu_entry_with_lambda()}[kind]
    code, out, err = _main_on(doc, "check-positivity", "--n", "3", "--spec", "PATH")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind", ["cache", "certificate", "spec"])
def test_each_integer_given_as_a_float_is_refused(valid_cache, valid_certificate, kind):
    # a float index must never reach a lookup (items[1.0] is a TypeError) and
    # a float count must never reach an output: each integer of a valid
    # document, given as a float on its own, makes the codec raise ValueError
    loads = {"cache": ([valid_cache], serialize.table_from_dict),
             "certificate": ([valid_certificate], serialize.certificate_from_dict),
             "spec": ([serialize.spec_to_dict(s) for s in VALID_SPECS],
                      serialize.spec_from_dict)}
    docs, load = loads[kind]
    accepted = []
    for doc in map(copy.deepcopy, docs):
        slots = list(_int_slots(doc))
        assert slots
        for parent, key in slots:
            value = parent[key]
            parent[key] = float(value)
            try:
                load(doc)
            except ValueError:
                pass
            else:
                accepted.append(f"{key!r}: {value} in {parent}")
            parent[key] = value
    assert accepted == []


# SHA-256 of outputs written by commit 3600cd5; the bytes must not drift.
GOLDEN_DIGESTS = [
    (("table", "--n", "3", "--out"),
     "ca4310b45f2fcc9a533666e808c61858333a308e0c60e92e1b86e9a899266268"),
    (("certify", "--n", "3", "--mode", "per-pair", "--emit-certificate"),
     "3a97244b7674a65c4975e4082097bb0c1544117decddd168616a4c91f3f36f46"),
    (("certify", "--n", "3", "--mode", "per-mu", "--emit-certificate"),
     "924836d369ded6e3ed45d8029caa70eed9bac804357777f3b143d59b7f96fbf6"),
    # n = 4..8 as written by commit 83b9e28
    (("certify", "--n", "4", "--mode", "per-pair", "--emit-certificate"),
     "8f3571b2a04a53d42984e16ec09ae695ea1263f04eb37169c8633fcebdbc1c60"),
    (("certify", "--n", "4", "--mode", "per-mu", "--emit-certificate"),
     "c14b7492cb6056f54f4cc4afe39cbcdf74f1178a0259ab74e55434be58a01bc2"),
    (("certify", "--n", "5", "--mode", "per-pair", "--emit-certificate"),
     "6483c9a19b2c47e98f29684470e8f33cc58bc58fbb8c85300074d32a65853672"),
    (("certify", "--n", "5", "--mode", "per-mu", "--emit-certificate"),
     "eb314a1850e1c6035f37b2f00832db6b996bff10abf44fd3d38cc5abb04b131d"),
    (("certify", "--n", "6", "--mode", "per-pair", "--emit-certificate"),
     "a5ebcf0520d0695d26a11277944dc6ce310246cbdc884694c3d1d7a7728c7fb0"),
    (("certify", "--n", "6", "--mode", "per-mu", "--emit-certificate"),
     "225b0ac08e378f2242821633d4b648b17a34d5d81764bfc7bd5ee839260ccc89"),
    (("certify", "--n", "7", "--mode", "per-pair", "--emit-certificate"),
     "247068a09c712460abf7cfd21259bd892a44a47c6477ba7bfb28208c80730b65"),
    (("certify", "--n", "7", "--mode", "per-mu", "--emit-certificate"),
     "3f8d56635f180bbf4db963e58a49d149a9fbd77a8e0e3ad009e021ca1e60ab9e"),
    (("certify", "--n", "8", "--mode", "per-pair", "--emit-certificate"),
     "b5c7cf2736dfe2d91a5a0f54feefeecf2b032c266701de3e46d82ee0f3c227b2"),
    (("certify", "--n", "8", "--mode", "per-mu", "--emit-certificate"),
     "b489c1b6a355bfe8c5f1f84f77955d62a9e370b3b7ad455929f1039865b999a0"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS,
                         ids=["table", "certificate-per-pair", "certificate-per-mu"]
                         + [f"certificate-{mode}-n{n}" for n in range(4, 9)
                            for mode in ("per-pair", "per-mu")])
def test_output_bytes_match_golden_digests(capsys, tmp_path, argv, digest):
    import hashlib
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv, str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of `check-positivity --n 4 --format json` stdout as written by
# commit 4a33cb3, one spec per coefficient mode.
GOLDEN_POSITIVITY_DIGESTS = [
    (DeformationSpec(4, MODE_PER_PAIR, {((7, 1), (0, 0)): -1,
                                        ((7, 3), (1, 1)): Fraction(2, 3),
                                        ((7, 5), (3, 1)): Fraction(-5, 2)}),
     3, "281e306b65d946aadc9cd4fb2650720b6bd0c927fe3c22244d59c78785061a82"),
    (DeformationSpec(4, MODE_PER_MU, {(0, 0): -1, (1, 1): Fraction(3, 4)}),
     5, "a4c3c3be8f1fcce8308bc3178c2941c00b0d5f1d0eb527de5e1caa0b0064a693"),
]


@pytest.mark.parametrize("spec, violations, digest", GOLDEN_POSITIVITY_DIGESTS,
                         ids=["check-positivity-per-pair", "check-positivity-per-mu"])
def test_check_positivity_bytes_match_golden_digests(capsys, tmp_path, spec,
                                                     violations, digest):
    import hashlib
    path = tmp_path / "spec.json"
    serialize.save_spec(spec, path)
    code, out, _ = run(capsys, "check-positivity", "--n", "4", "--format", "json",
                       "--spec", str(path))
    assert code == 0
    assert len(json.loads(out)["violations"]) == violations
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _python(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_basis_degree_at_huge_rank():
    proc = _python("-m", "osglines.cli", "basis", "--n", "100000000",
                   "--degree", "3", "--format", "json", timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["indices"] == [[3, 0], [2, 1]]


def test_table_load_of_huge_rank_cache_fails_fast(capsys, tmp_path):
    path = tmp_path / "t.json"
    run(capsys, "table", "--n", "3", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["n"] = 100_000_000
    path.write_text(json.dumps(doc))
    proc = _python("-m", "osglines.cli", "table", "--n", "3", "--load", str(path),
                   timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_cli_import_leaves_dataclasses_out():
    proc = _python("-S", "-c", "import sys, osglines.cli; "
                   "print('dataclasses' in sys.modules)", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Runs one CLI call in a fresh interpreter; prints its exit code, then the
# osglines modules the call loaded.
_LOADED_BY = ("import contextlib, io, sys\n"
              "from osglines.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('osglines.')))")


@pytest.mark.parametrize("argv, unused", [
    (["basis", "--n", "3"], {"ring", "pieri", "deformation", "certify", "replay", "expr"}),
    (["pieri", "--n", "3", "--class", "11", "--with", "5,3"],
     {"ring", "deformation", "certify", "replay", "expr"}),
    (["mult", "--n", "3", "tau[1,0]*tau[2,1]"], {"deformation", "certify", "replay"}),
    (["gw", "--n", "3", "--lambda", "1,1", "--mu", "5,2", "--nu", "3,0", "--d", "1"],
     {"deformation", "certify", "replay"}),
    (["check-positivity", "--n", "3", "--spec", "SPEC"], {"certify", "replay", "expr"}),
    (["certify", "--n", "3", "--method", "both"], {"deformation", "expr"}),
    (["certify", "--n", "3", "--method", "fm"], {"deformation", "replay", "expr"}),
    (["certify", "--n", "3", "--method", "replay"],
     {"deformation", "certify", "proof", "expr"}),
    (["table", "--n", "3", "--out", "OUT"], {"deformation", "certify", "replay", "expr"}),
    (["table", "--n", "3", "--load", "OUT", "--revalidate"],
     {"deformation", "certify", "replay", "expr"}),
    *((["verify", "--n", "3", "--suite", suite], {"deformation", "certify", "replay", "expr"})
      for suite in SUITES),
], ids=["basis", "pieri", "mult", "gw", "check-positivity", "certify", "certify-fm",
        "certify-replay", "table-out", "table-load", *(f"verify-{suite}" for suite in SUITES)])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, unused):
    spec, out = tmp_path / "spec.json", tmp_path / "t.json"
    serialize.save_spec(DeformationSpec.zero(3), spec)
    serialize.save_table(ring.lazy_table(3), out)
    argv = [str(spec) if a == "SPEC" else str(out) if a == "OUT" else a for a in argv]
    proc = _python("-c", _LOADED_BY, *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert not {f"osglines.{m}" for m in unused} & set(loaded)


@pytest.mark.parametrize("code, loaded", [
    ("import osglines.certify", ["algebra", "basis", "certify", "pieri", "proof"]),
    ("import osglines.replay", ["algebra", "basis", "pieri", "replay"]),
    ("import osglines; osglines.MODE_PER_PAIR", ["basis"]),
], ids=["certify", "replay", "mode"])
def test_import_loads_exactly(code, loaded):
    # neither proof route reads the ring or the deformation layer, nor the
    # other route; the modes are index-set facts
    proc = _python("-c", f"import sys; {code}; "
                   "print(*sorted(m for m in sys.modules if m.startswith('osglines.')))",
                   timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"osglines.{m}" for m in loaded]


@pytest.mark.parametrize("mode", [MODE_PER_PAIR, MODE_PER_MU])
def test_certificate_checks_without_the_search(tmp_path, mode):
    # the checker stands apart from the search it checks: reading a saved
    # certificate and verifying it loads neither certify nor the ring
    system = proof.build_constraints(ring.lazy_table(3), mode)
    path = tmp_path / "cert.json"
    serialize.save_certificate(certify.certify_uniqueness(system), system, path)
    proc = _python("-c", "import sys\n"
                   "from osglines.serialize import load_certificate\n"
                   "from osglines.proof import verify_certificate\n"
                   "cert, system = load_certificate(sys.argv[1])\n"
                   "print(verify_certificate(system, cert), cert.conclusion)\n"
                   "print(*sorted(m for m in sys.modules if m.startswith('osglines.')))",
                   str(path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdict, loaded = proc.stdout.splitlines()
    assert verdict == "True UniqueZero"
    assert loaded.split() == ["osglines.algebra", "osglines.basis", "osglines.pieri",
                              "osglines.proof", "osglines.serialize"]


# Each module's module-level imports of the package's own modules, outside
# function bodies and `if TYPE_CHECKING:` blocks.
MODULE_GRAPH = {
    "basis": set(),
    "algebra": {"basis"},
    "pieri": {"algebra", "basis"},
    "ring": {"algebra", "basis", "pieri"},
    "deformation": {"algebra", "basis", "ring"},
    "proof": {"algebra", "basis", "pieri"},
    "certify": {"basis", "proof"},
    "replay": {"algebra", "basis", "pieri"},
    "expr": {"algebra", "ring"},
    "serialize": {"algebra", "basis"},
    "cli": {"algebra", "basis", "serialize"},
}


def test_module_graph():
    import ast
    graph = {}
    for path in (SRC / "osglines").glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        graph[path.stem] = {node.module or alias.name for node in tree.body
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            for alias in node.names}
    assert graph == MODULE_GRAPH


def test_help_exits_zero():
    for argv in ([], ["certify"]):
        proc = _python("-m", "osglines.cli", *argv, "--help", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: osglines")
    # certify's own flags are in its help
    assert "--mode {per-pair,per-mu}" in proc.stdout and "--max-rows" in proc.stdout


# The package namespace at the commit that made it lazy: every public name of
# the parent, where `import osglines` imported every module, each under the
# module it lives in now.  The certificate's names later moved to `proof`,
# route B to `replay` and the conclusion strings to `basis`.
PACKAGE_NAMES = {
    "algebra": ["AffineExpression", "ClassVector"],
    "basis": ["CONCLUSION_NOT_UNIQUE", "CONCLUSION_UNIQUE_ZERO", "betti_numbers",
              "degree", "enumerate_basis", "enumerate_degree", "is_valid", "max_degree",
              "top_class"],
    "certify": ["ResourceLimitError", "certify_uniqueness"],
    "deformation": ["DeformationSpec", "MODE_PER_MU", "MODE_PER_PAIR",
                    "check_positivity", "deformed_product", "sigma_from_tau",
                    "to_sigma", "to_tau"],
    "expr": ["ExpressionSyntaxError", "evaluate_expression", "format_expression",
             "parse_expression"],
    "pieri": ["pieri_tau1", "pieri_tau11", "tau11_case", "tau1_case"],
    "proof": ["Certificate", "ConstraintSystem", "build_constraints", "verify_certificate"],
    "replay": ["MismatchError", "QuadraticTermError", "replay_proof"],
    "ring": ["GenerationFailure", "IDENTITY_PARTS", "MultiplicationTable",
             "build_table", "check_commutativity", "diagonal_power", "gw_constant",
             "has_negative_constant", "lazy_table", "multiply", "poincare_pairing",
             "verify_identities"],
    "serialize": ["load_certificate", "load_spec", "load_table", "save_certificate",
                  "save_spec", "save_table"],
}


def test_package_namespace_is_lazy_and_complete():
    proc = _python("-c", "import sys, osglines; "
                   "print(*(m for m in sys.modules if m.startswith('osglines.')))",
                   timeout=60)
    assert proc.returncode == 0 and proc.stdout.split() == [], proc.stdout + proc.stderr

    import importlib
    import osglines
    public = set(PACKAGE_NAMES)
    for module, names in PACKAGE_NAMES.items():
        mod = importlib.import_module(f"osglines.{module}")
        assert getattr(osglines, module) is mod
        for name in names:
            assert getattr(osglines, name) is getattr(mod, name), name
        public.update(names)
    assert public <= set(dir(osglines))
    # each class and function is defined where `_EXPORTS` finds it: no re-exports
    for module, names in osglines._EXPORTS.items():
        for name in names:
            value = getattr(osglines, name)
            if isinstance(value, type) or callable(value):
                assert value.__module__ == f"osglines.{module}", name
    star = {}
    exec("from osglines import *", star)
    assert {k for k in star if not k.startswith("_")} == public
    with pytest.raises(AttributeError):
        osglines.no_such_name


@pytest.mark.parametrize("argv", [
    ["gw", "--lambda", "1,0", "--mu", "1,0", "--nu", "2,0", "--d", "0"],
    ["mult", "tau[1,0]"],
    ["certify", "--method", "both"],
    ["check-positivity", "--spec", "SPEC"],
    ["verify", "--suite", "betti"],
    ["table", "--out", "OUT"],
    ["basis"],
], ids=lambda argv: argv[0])
def test_ring_commands_refuse_an_absurd_rank(tmp_path, argv):
    spec = tmp_path / "spec.json"
    serialize.save_spec(DeformationSpec.zero(3), spec)
    argv = [str(spec) if a == "SPEC" else str(tmp_path / "t.json") if a == "OUT"
            else a for a in argv]
    proc = _python("-m", "osglines.cli", *argv, "--n", "100000000", timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ring rank must be <= 1000")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("argv", [
    ["check-positivity", "--spec", "MISSING"],
    ["mult", "tau[1,"],
    ["gw", "--lambda", "99,99", "--mu", "1,0", "--nu", "1,0", "--d", "0"],
    ["gw", "--lambda", "1,0", "--mu", "1,0", "--nu", "2,0", "--d", "-1"],
    ["mult", "tau[99,99]"],
], ids=["missing-spec", "bad-expression", "bad-index", "negative-d",
        "bad-expression-index"])
def test_usage_errors_exit_before_the_table_is_built(tmp_path, argv):
    # n = 48 because the full table there has 10.6 million products, far
    # more than the timeout allows to build, so a command that built it
    # before its usage check would miss the timeout
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    proc = _python("-m", "osglines.cli", *argv, "--n", "48", timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_gw_at_rank_48_computes_only_what_it_asks_for():
    # pieri_tau11(48, (1,0)) is tau[2,1]; building the full table first
    # (10.6 million products) would miss the timeout
    proc = _python("-m", "osglines.cli", "gw", "--n", "48", "--lambda", "1,1",
                   "--mu", "1,0", "--nu", "2,1", "--d", "0", "--format", "json",
                   timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "1"


def test_verify_identities_at_rank_32():
    # the full table at n = 32 has 2.1 million products; the identity suite
    # asks only for products with powers of tau[1,1]
    proc = _python("-m", "osglines.cli", "verify", "--n", "32", "--suite",
                   "identities", "--format", "json", timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
