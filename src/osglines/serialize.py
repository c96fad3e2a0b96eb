"""Deterministic JSON serialization of tables, deformations, and certificates.

Numbers are never floats: integers are JSON integers in the table format and
decimal strings elsewhere; rationals are "p/q" strings.  Construction order
of every document is canonical, so serializing the same mathematical object
always yields identical bytes.  The two large documents, the table cache and
a certificate, are written directly as streams of text fragments (one per
product, or per unknown, bound and constraint) byte-identical to
`json.dumps(doc, indent=2)`, so neither whole text is ever held at once.  A
table reads back into one int dict per product, and a certificate's integral
numbers read back as ints.

Loading validates the document shape and turns every defect into a
one-line `ValueError`; a table term at q^4 or past, which no product has,
is one.  The two large documents are read the way they are written: the
reader holds their text, walks its top-level object with the stdlib's own
scanner, and checks each product, or each unknown, bound, witness entry and
constraint, as it is decoded, so the parsed document is never held; a
repeated top-level key is refused.  Saving writes a temporary file in the
target's directory and renames it over the target, so a reader never sees
a half-written file, even in a shared cache directory.

Only `algebra` and `basis` are imported with this module; a document's
deformation mode is checked by `basis.check_mode`.  Each reader imports the
one module whose objects it builds: `ring` for a table, `deformation` for a
spec and `proof` for a certificate, so reading one never loads the search.
The CLI writes its own output and imports this module only in the commands
that read or write a document or a list of terms.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
from collections.abc import Iterator
from fractions import Fraction

from .algebra import AffineExpression, ClassVector, exact, format_rational, sorted_terms
from .basis import MODE_PER_PAIR, check_mode, check_ring_rank, enumerate_basis

TYPE_CHECKING = False  # the names below annotate; importing them would load the engine
if TYPE_CHECKING:
    from .deformation import DeformationSpec
    from .proof import Certificate, ConstraintSystem
    from .ring import MultiplicationTable

TABLE_FORMAT_VERSION = 1

# matched whole, ASCII digits only: no trailing newline, no other script's digits
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _parse_number(s):
    """A rational string "p" or "p/q" as an int when integral, else a Fraction."""
    if isinstance(s, str) and _RATIONAL_RE.fullmatch(s):
        with contextlib.suppress(ValueError):  # more digits than an int converts
            return exact(Fraction(s)) if "/" in s else int(s)
        raise ValueError(f"not a rational string: too long ({len(s)} characters)")
    raise ValueError(f"not a rational string: {s!r}")


def _index(lam) -> list[int]:
    return [int(lam[0]), int(lam[1])]


def _pair_text(lam, depth: int) -> str:
    """An index as the `[a, b]` of a key nested `depth` levels deep."""
    pad = "  " * depth
    return f"[\n{pad}  {int(lam[0])},\n{pad}  {int(lam[1])}\n{pad}]"


def _list_fragments(items, depth: int):
    """A JSON list nested `depth` levels deep, from its items' texts."""
    opener = "[\n"
    for item in items:
        yield opener + item
        opener = ",\n"
    yield "[]" if opener == "[\n" else "\n" + "  " * depth + "]"


def _as_index(obj) -> tuple[int, int]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"not an index pair: {obj!r}")
    return (_as_int(obj[0]), _as_int(obj[1]))


def _as_int(x) -> int:
    """x itself if it is a JSON integer (not a bool, float or string)."""
    if type(x) is not int:
        raise ValueError(f"not an integer: {x!r}")
    return x


def _field(obj, key: str, what: str, kind=None):
    """obj[key], or ValueError if obj is not a dict, lacks key, or (when `kind`
    is given) holds a value of another type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object: {obj!r}")
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{what} field {key!r} is not a {kind.__name__}")
    return value


def _write_atomic(path, fragments):
    """Write the concatenation of the text `fragments` to path, atomically;
    an `OSError` names path, never the temporary file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.writelines(fragments)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _read_json(path):
    """The JSON document at path; a ValueError naming the file if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            if type(exc) is ValueError:  # not a decode error: a number past the int limit
                raise ValueError(f"{os.fspath(path)} holds a JSON number too long") from None
            raise ValueError(f"{os.fspath(path)} is not a JSON document: {exc}") from None


_WS = json.decoder.WHITESPACE.match
_DELIMITER = re.compile(r"[ \t\n\r]*([,:\]}])[ \t\n\r]*").match
_decode = json.JSONDecoder().raw_decode  # the stdlib's C scanner, from any position


class _Stream:
    """A document's top-level object, read member by member as a reader asks:
    from a parsed dict, or from the JSON text at `path`, where a member walked
    past is held and a list named in `lists` streams: asked for, it comes as
    an iterator that decodes one item at a time, which the reader exhausts
    before it asks for another member.  A text that is not JSON gets
    `json.load`'s own error."""

    def __init__(self, lists, data=None, path=None, text=""):
        self.lists, self.path, self.text, self.failed = lists, path, text, False
        self.data = {} if data is None else dict(data)  # each member is dropped once read
        self.members = self._walk() if data is None else iter(())

    def _not_json(self):
        """Raise `json.load`'s error for the text, which the walk found is not
        JSON: the file is parsed again, for the message only."""
        self.failed = True
        _read_json(self.path)
        raise AssertionError(f"{self.path} is JSON, yet its walk failed")

    def _delimiter(self, pos: int, allowed: str) -> tuple:
        m = _DELIMITER(self.text, pos)
        if m is None or m[1] not in allowed:
            self._not_json()
        return m[1], m.end()

    def _value(self, pos: int, allowed: str) -> tuple:
        """The value at pos, the delimiter after it, one of `allowed`, and the position past that."""
        try:
            value, end = _decode(self.text, pos)
        except ValueError:
            self._not_json()
        return (value, *self._delimiter(end, allowed))

    def _walk(self):
        """(key, value) for each member in order, a list that streams as `_items`."""
        text, seen = self.text, set()
        pos = _WS(text, _WS(text).end() + 1).end()  # past the opening brace
        delimiter, pos = ("}", pos + 1) if text.startswith("}", pos) else (",", pos)
        while delimiter == ",":
            key, _, pos = self._value(pos, ":")
            if type(key) is not str:
                self._not_json()
            if key in seen:  # `json.load` kept the last; the reader has read the first
                raise ValueError(f"{os.fspath(self.path)} repeats the top-level key {key!r}")
            seen.add(key)
            if key in self.lists and text.startswith("[", pos):
                yield key, (items := self._items(pos + 1))
                for _ in items:  # what a reader left at its own error
                    pass
                delimiter, pos = self._delimiter(self.pos, ",}")
            else:
                value, delimiter, pos = self._value(pos, ",}")
                yield key, value
        if _WS(text, pos).end() != len(text):
            self._not_json()

    def _items(self, pos: int):
        """The items of the list opened before pos; `self.pos` is then past it."""
        pos = _WS(self.text, pos).end()
        delimiter, pos = ("]", pos + 1) if self.text.startswith("]", pos) else (",", pos)
        while delimiter == ",":
            item, delimiter, pos = self._value(pos, ",]")
            yield item
        self.pos = pos

    def field(self, key: str, what=None, kind=None):
        """`_field` of the object, a list named in `lists` as an iterator over
        its items; with no `what`, the value or None, as `dict.get`."""
        for name, value in () if key in self.data else self.members:
            if isinstance(value, Iterator):  # a list that streams
                if name == key:
                    return value
                value = list(value)
            self.data[name] = value
            if name == key:
                break
        if what is None:
            return self.data.pop(key, None)
        value = _field(self.data, key, what, kind)
        del self.data[key]
        return iter(value) if key in self.lists and isinstance(value, list) else value

    def end(self):
        """Decode the rest of the text; past a reader's own error this finds a
        decode error, which `json.load` met first."""
        for _ in () if self.failed else self.members:
            pass


def _load(path, lists, read, from_dict):
    """`read` over a `_Stream` of the document at path, or `from_dict` over
    the parsed document if it is not a JSON object (or not UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except ValueError:  # not UTF-8: `_read_json` words the error
        text = ""
    if not text.startswith("{", _WS(text).end()):
        return from_dict(_read_json(path))
    doc = _Stream(lists, path=path, text=text)
    try:
        result = read(doc)
    except ValueError:
        doc.end()
        raise
    doc.end()
    return result


def _json(obj, depth: int = 0) -> str:
    """`json.dumps(obj, indent=2)` for a value nested `depth` levels deep."""
    return json.dumps(obj, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * depth)


def class_vector_terms(v: ClassVector) -> list[dict]:
    return [{"nu": _index(nu), "d": d, "coeff": format_rational(c)}
            for nu, d, c in v.flat_items()]


def class_vector_from_terms(n: int, terms) -> ClassVector:
    acc: dict = {}
    if not isinstance(terms, list):
        raise ValueError(f"terms must be a list, got {terms!r}")
    for t in terms:
        nu = _as_index(_field(t, "nu", "term"))
        d = _as_int(_field(t, "d", "term"))
        c = _field(t, "coeff", "term")
        c = c if type(c) is int else _parse_number(c)  # never a bool
        slot = acc.setdefault(nu, {})
        if d in slot:
            raise ValueError(f"term {nu}, q^{d} appears twice")
        slot[d] = c
    return ClassVector(n, acc)


# ---------------------------------------------------------------------------
# multiplication table cache


def _table_fragments(table: MultiplicationTable):
    """`_json` of the table document and a newline: the header and basis, then each product."""
    pair, term = ({lam: _pair_text(lam, depth) for lam in table.basis} for depth in (3, 5))

    def product(lam, mu):
        terms = []
        for (nu, d), c in sorted_terms(table.terms(lam, mu)):
            if type(c) is not int:  # the reader refuses a bool, a float or a Fraction
                raise ValueError(f"non-integer coefficient {c} in table serialization")
            terms.append(f'        {{\n          "nu": {term[nu]},\n          "d": {d},'
                         f'\n          "coeff": {c}\n        }}')
        # joined here, not by `_list_fragments`: a generator per product slows small saves
        body = "[\n" + ",\n".join(terms) + "\n      ]" if terms else "[]"
        return (f'    {{\n      "lambda": {pair[lam]},\n      "mu": {pair[mu]},'
                f'\n      "terms": {body}\n    }}')

    yield (f'{{\n  "version": {TABLE_FORMAT_VERSION},\n  "n": {table.n},\n  "basis": '
           + "".join(_list_fragments((f"    {_pair_text(lam, 2)}" for lam in table.basis), 1))
           + ',\n  "products": ')
    yield from _list_fragments((product(lam, mu) for lam, mu in table.pairs()), 1)
    yield "\n}\n"


_TABLE_LISTS = ("products",)


def _read_product(table: MultiplicationTable, keys: list, entry):
    """Check one product record of a cache and store it in table; `keys` is
    `table._key_list()`, q^d tau[nu] keyed by code d * N + pos(nu)."""
    n, pos, products, N = table.n, table.pos, table._products, len(table.pos)
    Q = len(keys) // N  # no product has a term past q^(Q-1)
    lam = _as_index(_field(entry, "lambda", "product"))
    mu = _as_index(_field(entry, "mu", "product"))
    if lam not in pos or mu not in pos:
        raise ValueError(f"product pair {lam}, {mu} is not in the rank-{n} basis")
    if pos[lam] > pos[mu]:
        raise ValueError(f"product pair {lam}, {mu} out of canonical order")
    if (lam, mu) in products:
        raise ValueError(f"product pair {lam}, {mu} appears twice")
    acc: dict = {}  # the table format has integers where other terms have "p/q"
    for t in _field(entry, "terms", "product", list):
        if type(t) is dict:  # the writer's shape, mapped to the table's interned key
            nu, d, c = t.get("nu"), t.get("d"), t.get("coeff")
            if (type(nu) is list and len(nu) == 2 and type(nu[0]) is int
                    and type(nu[1]) is int and type(d) is int and type(c) is int):
                p = pos.get((nu[0], nu[1]))
                if p is not None and 0 <= d < Q and (key := keys[d * N + p]) not in acc:
                    acc[key] = c
                    continue
        # anything else (a repeated term too) is checked field by field, one error line each
        nu, d = _as_index(_field(t, "nu", "term")), _as_int(_field(t, "d", "term"))
        if nu not in pos or d < 0:
            raise ValueError(f"term {nu}, q^{d} is not a rank-{n} class with d >= 0")
        if d >= Q:
            raise ValueError(f"term {nu}, q^{d} is past q^{Q - 1}, which no product reaches")
        key = keys[d * N + pos[nu]]
        if key in acc:  # refused, never summed, as a repeated pair is
            raise ValueError(f"product pair {lam}, {mu} lists the term {nu}, q^{d} twice")
        acc[key] = _as_int(_field(t, "coeff", "term"))
    products[(lam, mu)] = {key: c for key, c in acc.items() if c}


def _read_table(doc) -> MultiplicationTable:
    from .ring import MultiplicationTable
    version = doc.field("version")
    if type(version) is not int or version != TABLE_FORMAT_VERSION:
        raise ValueError(f"unsupported table format version {version!r}")
    n = check_ring_rank(_as_int(doc.field("n", "table")))
    basis = [_as_index(b) for b in doc.field("basis", "table", list)]
    # a rank-n basis has 2n^2 classes; checking that first means a cache that
    # claims a huge rank is rejected without enumerating that rank's basis
    if len(basis) != 2 * n * n or basis != enumerate_basis(n):
        raise ValueError("table basis does not match the canonical basis order")
    table = MultiplicationTable(n, basis, {})
    keys = table._key_list()
    for entry in doc.field("products", "table", list):
        _read_product(table, keys, entry)
    N = len(table.basis)
    missing = N * (N + 1) // 2 - table.stored_products()  # the keys are distinct pairs
    if missing:
        raise ValueError(f"table is missing {missing} products")
    return table


def table_from_dict(data: dict) -> MultiplicationTable:
    if not isinstance(data, dict):
        raise ValueError("table document is not a JSON object")
    return _read_table(_Stream(_TABLE_LISTS, data))


def save_table(table: MultiplicationTable, path):
    _write_atomic(path, _table_fragments(table))


def load_table(path, *, revalidate: bool = False) -> MultiplicationTable:
    table = _load(path, _TABLE_LISTS, _read_table, table_from_dict)
    if revalidate:
        from .ring import revalidate_table
        revalidate_table(table)
    return table


# ---------------------------------------------------------------------------
# deformation specs


def _key_to_json(per_pair: bool, key) -> dict:
    """A spec entry's deformation key as JSON."""
    if per_pair:
        return {"lambda": _index(key[0]), "mu": _index(key[1])}
    return {"mu": _index(key)}


def _key_from_json(mode: str, per_pair: bool, obj, what: str):
    """A deformation key (a spec entry's or a certificate unknown's) from JSON."""
    mu = _as_index(_field(obj, "mu", what))
    if per_pair:
        return (_as_index(_field(obj, "lambda", what)), mu)
    if "lambda" in obj:
        raise ValueError(f"{what} has a 'lambda' field in {mode} mode")
    return mu


def spec_to_dict(spec: DeformationSpec) -> dict:
    per_pair = spec.mode == MODE_PER_PAIR
    entries = [{**_key_to_json(per_pair, key), "a": format_rational(val)}
               for key, val in spec.items()]
    return {"n": spec.n, "mode": spec.mode, "entries": entries}


def spec_from_dict(data: dict) -> DeformationSpec:
    from .deformation import DeformationSpec
    n = _as_int(_field(data, "n", "deformation spec"))
    mode = _field(data, "mode", "deformation spec")
    per_pair = check_mode(mode)
    entries = {}
    first = {}                  # key -> position of the entry that states it
    for i, e in enumerate(_field(data, "entries", "deformation spec", list)):
        a = _parse_number(_field(e, "a", "spec entry"))
        key = _key_from_json(mode, per_pair, e, "spec entry")
        if first.setdefault(key, i) != i:
            raise ValueError(f"spec entry {i} repeats entry {first[key]}")
        entries[key] = a
    return DeformationSpec(n, mode, entries)


def save_spec(spec: DeformationSpec, path):
    _write_atomic(path, (_json(spec_to_dict(spec)) + "\n",))


def load_spec(path) -> DeformationSpec:
    return spec_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# certificates (self-contained: the constraint system is embedded)


def _entry(obj, key: str, what: str, items):
    """items[obj[key]], or ValueError if obj[key] is not a position in items."""
    i = _as_int(_field(obj, key, what))
    if not 0 <= i < len(items):
        raise ValueError(f"{what} field {key!r} is {i}, outside 0..{len(items) - 1}")
    return items[i]


def _certificate_fragments(cert: Certificate, system: ConstraintSystem):
    """`_json` of the certificate document and a newline, byte for byte, as text
    fragments: one per unknown, bound, witness entry and constraint."""
    pos = {k: i for i, k in enumerate(system.unknowns)}
    per_pair = cert.mode == MODE_PER_PAIR

    def unknown(key):
        if per_pair:
            return (f'    {{\n      "lambda": {_pair_text(key[0], 3)},'
                    f'\n      "mu": {_pair_text(key[1], 3)}\n    }}')
        return f'    {{\n      "mu": {_pair_text(key, 3)}\n    }}'

    def bound(b):
        weights = "".join(_list_fragments(
            (f'        {{\n          "constraint": {i},'
             f'\n          "weight": "{format_rational(w)}"\n        }}'
             for i, w in b.weights), 3))
        return (f'    {{\n      "unknown": {pos[b.unknown]},\n      "direction": '
                f'{_json(b.direction)},\n      "weights": {weights}\n    }}')

    def constraint(expr, provenance):
        mu, nu, d = provenance
        terms = "".join(_list_fragments(
            (f'        {{\n          "unknown": {i},'
             f'\n          "coeff": "{format_rational(v)}"\n        }}'
             for i, v in sorted((pos[k], v) for k, v in expr.linear.items())), 3))
        return (f'    {{\n      "provenance": {{\n        "mu": {_pair_text(mu, 4)},'
                f'\n        "nu": {_pair_text(nu, 4)},\n        "d": {d}\n      }},'
                f'\n      "constant": "{format_rational(expr.constant)}",'
                f'\n      "terms": {terms}\n    }}')

    yield (f'{{\n  "n": {cert.n},\n  "mode": {_json(cert.mode)},'
           f'\n  "conclusion": {_json(cert.conclusion)},\n  "unknowns": ')
    yield from _list_fragments(map(unknown, cert.unknowns), 1)
    yield ',\n  "bounds": '
    yield from _list_fragments(map(bound, cert.bounds), 1)
    yield ',\n  "witness": '
    if cert.witness is None:
        yield "null"
    else:
        yield from _list_fragments(
            (f'    {{\n      "unknown": {pos[k]},\n      "value": "{format_rational(v)}"\n    }}'
             for k, v in sorted(cert.witness.items(), key=lambda kv: pos[kv[0]])), 1)
    yield f',\n  "stats": {_json(cert.stats, 1)},\n  "constraint_dump": '
    yield from _list_fragments(map(constraint, system.constraints, system.provenance), 1)
    yield "\n}\n"


_CERTIFICATE_LISTS = ("unknowns", "bounds", "witness", "constraint_dump")


def _read_unknown(mode: str, per_pair: bool, i: int, obj, first: dict):
    """Unknown i's key; `first` maps each key read so far to its position."""
    key = _key_from_json(mode, per_pair, obj, "unknown")
    if first.setdefault(key, i) != i:
        raise ValueError(f"unknown {i} repeats unknown {first[key]}")
    return key


def _read_bound(b, unknowns: tuple) -> tuple:
    """A bound's record as `BoundProof` fields; the row each weight names is
    checked once the dump, which follows the bounds, is read."""
    unknown = _entry(b, "unknown", "bound", unknowns)
    direction = _field(b, "direction", "bound", str)
    # the writer's shape, {"constraint": int, "weight": "1"}, is read in place
    weights = tuple((i, 1) if type(w) is dict and type(i := w.get("constraint")) is int
                    and w.get("weight") == "1" else (_as_int(_field(w, "constraint", "weight")),
                                                     _parse_number(_field(w, "weight", "weight")))
                    for w in _field(b, "weights", "bound", list))
    return unknown, direction, weights


def _read_witness_entry(w, unknowns: tuple, values: dict):
    """Add one witness entry to `values`, refusing an unknown it already has."""
    key = _entry(w, "unknown", "witness entry", unknowns)
    value = _parse_number(_field(w, "value", "witness entry"))
    if key in values:
        raise ValueError("witness names an unknown in two entries")
    values[key] = value


def _read_constraint(j: int, c, unknowns: tuple) -> tuple:
    """Constraint j of the dump as (expression, provenance)."""
    terms = _field(c, "terms", "constraint", list)
    linear = {_entry(t, "unknown", "constraint term", unknowns):
              _parse_number(_field(t, "coeff", "constraint term"))
              for t in terms}
    if len(linear) != len(terms):
        raise ValueError(f"constraint {j} names an unknown in two terms")
    expr = AffineExpression(_parse_number(_field(c, "constant", "constraint")), linear)
    p = _field(c, "provenance", "constraint")
    return expr, (_as_index(_field(p, "mu", "provenance")),
                  _as_index(_field(p, "nu", "provenance")),
                  _as_int(_field(p, "d", "provenance")))


def _read_certificate(doc):
    from .proof import BoundProof, Certificate, ConstraintSystem
    n = _as_int(doc.field("n", "certificate"))
    mode = doc.field("mode", "certificate")
    per_pair = check_mode(mode)
    first: dict = {}
    unknowns = tuple(_read_unknown(mode, per_pair, i, u, first)
                     for i, u in enumerate(doc.field("unknowns", "certificate", list)))
    bounds = tuple(BoundProof(*_read_bound(b, unknowns))
                   for b in doc.field("bounds", "certificate", list))
    witness = doc.field("witness", "certificate")
    if witness is not None:
        if not isinstance(witness, Iterator):  # a list comes as an iterator over its items
            raise ValueError("certificate field 'witness' is not a list")
        values: dict = {}
        for w in witness:
            _read_witness_entry(w, unknowns, values)
        witness = values
    stats = {key: _as_int(count)
             for key, count in doc.field("stats", "certificate", dict).items()}
    conclusion = doc.field("conclusion", "certificate", str)
    rows = [_read_constraint(j, c, unknowns)
            for j, c in enumerate(doc.field("constraint_dump", "certificate", list))]
    count = len(rows)
    for bound in bounds:  # each weight names a row, checked once the dump is read
        for i, _ in bound.weights:
            if not 0 <= i < count:
                raise ValueError(f"weight field 'constraint' is {i}, outside 0..{count - 1}")
    system = ConstraintSystem(n, mode, unknowns, tuple(expr for expr, _ in rows),
                              tuple(p for _, p in rows))
    return Certificate(n, mode, conclusion, unknowns, bounds, witness, stats), system


def certificate_from_dict(data: dict):
    """Rebuild (certificate, constraint system) from a self-contained dump."""
    if not isinstance(data, dict):
        raise ValueError(f"certificate is not a JSON object: {data!r}")
    return _read_certificate(_Stream(_CERTIFICATE_LISTS, data))


def save_certificate(cert: Certificate, system: ConstraintSystem, path):
    _write_atomic(path, _certificate_fragments(cert, system))


def load_certificate(path):
    return _load(path, _CERTIFICATE_LISTS, _read_certificate, certificate_from_dict)


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by file name."""
    from importlib import resources
    text = resources.files("osglines").joinpath("schemas").joinpath(name) \
                    .read_text("utf-8")
    return json.loads(text)
