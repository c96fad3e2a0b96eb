"""The four benchmark workloads: certify, table, query and cli.

A workload is built from a seed, a private temporary directory and a tracer.
`setup()` does everything that comes before the first measured operation.
`ops(i)` yields the operations of pass i as (kind, run, check) triples: `run`
is timed and makes the calls into osglines, each through `tracer.call`;
`check` runs after the clock stops, raises CheckFailure on a wrong output and
adds the pass's exact counts to `self.counts`.  Every check runs on every
pass, traced or not.

The seed only generates inputs: the job order on `certify` and `table`, the
request stream on `query`, and the arguments of the scripted calls on `cli`.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

import osglines as osg
from osglines.basis import degree, enumerate_degree, max_degree
from osglines.deformation import MODE_PER_MU, MODE_PER_PAIR, MODES, mu_keys, pair_keys
from osglines.serialize import class_vector_from_terms, load_schema

# Every call the benchmark wraps in a span.  Each gets a per-layer `<name>.s`
# metric; the ones in LATENCY_CALLS also get `.p50_ms` and `.p99_ms`.
CALLS = (
    "ring.build_table", "ring.verify_identities", "ring.check_commutativity",
    "ring.gw_constant",
    "pieri.pieri_tau1", "pieri.pieri_tau11",
    "deformation.deformed_product", "deformation.check_positivity",
    "certify.build_constraints", "certify.certify_uniqueness",
    "certify.verify_certificate", "certify.replay_proof",
    "expr.parse_expression", "expr.evaluate_expression",
    "serialize.save_table", "serialize.load_table",
    "serialize.load_table_revalidate", "serialize.save_certificate",
    "serialize.load_certificate",
    "cli.startup", "cli.basis", "cli.mult", "cli.gw", "cli.pieri",
    "cli.check-positivity", "cli.certify", "cli.table-out", "cli.table-load",
)
LATENCY_CALLS = (
    "ring.gw_constant", "pieri.pieri_tau1", "pieri.pieri_tau11",
    "deformation.deformed_product", "deformation.check_positivity",
    "expr.parse_expression", "expr.evaluate_expression",
)
LAYERS = ("bench", "ring", "pieri", "deformation", "certify", "expr",
          "serialize", "cli")
# Exact per-pass counts reported as per-layer metrics (0 where a workload
# makes no such call).  Workloads may count more; the rest go to the record.
COUNTS = (
    "ring.build_table.calls", "ring.stored_products", "ring.identity_instances",
    "certify.constraints", "certify.unknowns", "certify.peak_working_rows",
    "certify.bound_weights", "certify.replay_steps",
    "serialize.table_bytes", "serialize.certificate_bytes",
    "deformation.violations",
)

# Share of query requests that are also answered by an independent route.
CROSS_CHECK_SHARE = 0.25


class CheckFailure(AssertionError):
    """An output of osglines is wrong."""


def expect(condition, message: str):
    if not condition:
        raise CheckFailure(message)


def expect_exact(values, what: str):
    for c in values:
        expect(type(c) in (int, Fraction), f"{what}: coefficient {c!r} is a "
                                           f"{type(c).__name__}, not int or Fraction")


def vector_coefficients(vec):
    return [c for _, _, c in vec.flat_items()]


def expect_exact_affine(expr, what: str):
    expect_exact([expr.constant, *expr.linear.values()], what)


class Workload:
    name = ""
    # Whether each pass draws new operations from the seed.  If not, every
    # pass repeats the same operations with the same exact counts.
    fresh_passes = False

    def __init__(self, seed: int, tmp: str, tracer):
        self.seed = seed
        self.tmp = tmp
        self.tr = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.counts: dict = {}

    def add(self, key: str, value: int = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def setup(self):
        pass

    def ops(self, pass_index: int):
        raise NotImplementedError


class Certify(Workload):
    """The CLI's certify path from nothing, then a certificate round trip."""
    name = "certify"
    JOBS = (("per-pair", 3), ("per-pair", 4), ("per-pair", 5),
            ("per-mu", 3), ("per-mu", 4), ("per-mu", 5), ("per-mu", 6))
    params = {"jobs": [list(job) for job in JOBS]}

    def setup(self):
        self.jobs = list(self.JOBS)
        self.rng.shuffle(self.jobs)

    def ops(self, pass_index):
        self.counts = {}
        for mode, n in self.jobs:
            yield f"{mode}-n{n}", partial(self._job, mode, n), self._check

    def _job(self, mode, n):
        call = self.tr.call
        table = call("ring.build_table", osg.build_table, n)
        system = call("certify.build_constraints", osg.build_constraints, table, mode)
        cert = call("certify.certify_uniqueness", osg.certify_uniqueness, system)
        verified = call("certify.verify_certificate", osg.verify_certificate,
                        system, cert)
        replay = call("certify.replay_proof", osg.replay_proof, table)
        path = os.path.join(self.tmp, f"cert-{mode}-n{n}.json")
        call("serialize.save_certificate", osg.save_certificate, cert, system, path)
        cert2, system2 = call("serialize.load_certificate", osg.load_certificate, path)
        reverified = call("certify.verify_certificate", osg.verify_certificate,
                          system2, cert2)
        return table, system, cert, verified, replay, path, cert2, system2, reverified

    def _check(self, out):
        table, system, cert, verified, replay, path, cert2, system2, reverified = out
        job = f"{system.mode} n={system.n}"
        expect(cert.conclusion == osg.CONCLUSION_UNIQUE_ZERO,
               f"{job}: FM concluded {cert.conclusion}")
        expect(verified, f"{job}: certificate does not verify")
        expect(reverified, f"{job}: reloaded certificate does not verify")
        expect(replay.conclusion == cert.conclusion,
               f"{job}: replay concluded {replay.conclusion}, FM {cert.conclusion}")
        expect(cert2.conclusion == cert.conclusion
               and system2.constraints == system.constraints,
               f"{job}: reloaded certificate differs from the saved one")
        for expr in system.constraints:
            expect_exact_affine(expr, f"{job} constraint")
        for bound in cert.bounds:
            expect_exact([w for _, w in bound.weights], f"{job} bound weight")
        self.add("ring.build_table.calls")
        self.add("ring.stored_products", table.stored_products())
        self.add("certify.constraints", len(system.constraints))
        self.add("certify.unknowns", len(system.unknowns))
        self.add("certify.peak_working_rows", cert.stats["peak_working_rows"])
        self.add("certify.bound_weights", sum(len(b.weights) for b in cert.bounds))
        self.add("certify.replay_steps", len(replay.steps))
        self.add("serialize.certificate_bytes", os.path.getsize(path))


class Table(Workload):
    """Table lifecycle: build, identity and commutativity suites, cache round trip."""
    name = "table"
    RANKS = (4, 5, 6)
    params = {"ranks": list(RANKS)}

    def setup(self):
        self.ranks = list(self.RANKS)
        self.rng.shuffle(self.ranks)

    def ops(self, pass_index):
        self.counts = {}
        for n in self.ranks:
            path = os.path.join(self.tmp, f"table-n{n}.json")
            copy = os.path.join(self.tmp, f"table-n{n}-copy.json")
            yield f"build-n{n}", partial(self._build, n), self._check_build
            yield f"identities-n{n}", self._identities, self._check_identities
            yield f"commutativity-n{n}", self._commutativity, self._check_commutativity
            yield (f"save-n{n}", partial(self._save, self.table, path),
                   partial(self._check_saved, path))
            yield f"load-n{n}", partial(self._load, path), self._check_loaded
            yield (f"load-revalidate-n{n}", partial(self._load, path, revalidate=True),
                   self._check_loaded)
            yield (f"resave-n{n}", partial(self._save, self.loaded, copy),
                   partial(self._check_same_bytes, path, copy))

    def _build(self, n):
        self.table = self.tr.call("ring.build_table", osg.build_table, n)
        return self.table

    def _identities(self):
        return [self.tr.call("ring.verify_identities", osg.verify_identities,
                             self.table, part) for part in osg.IDENTITY_PARTS]

    def _commutativity(self):
        return self.tr.call("ring.check_commutativity", osg.check_commutativity,
                            self.table)

    def _save(self, table, path):
        self.tr.call("serialize.save_table", osg.save_table, table, path)

    def _load(self, path, revalidate=False):
        name = "serialize.load_table_revalidate" if revalidate else "serialize.load_table"
        return self.tr.call(name, osg.load_table, path, revalidate=revalidate)

    def _check_build(self, table):
        for lam, mu in table.pairs():
            expect_exact(vector_coefficients(table.product(lam, mu)),
                         f"n={table.n} product {lam}*{mu}")
        self.add("ring.build_table.calls")
        self.add("ring.stored_products", table.stored_products())

    def _check_identities(self, reports):
        for rep in reports:
            expect(rep.holds, f"n={self.table.n}: identity part {rep.part} fails: "
                              f"{rep.counterexamples[:1]}")
            self.add("ring.identity_instances", rep.checked)

    def _check_commutativity(self, bad):
        expect(not bad, f"n={self.table.n}: products differ in the two orders: {bad[:3]}")

    def _check_saved(self, path, _):
        self.add("serialize.table_bytes", os.path.getsize(path))

    def _check_loaded(self, loaded):
        self.loaded = loaded
        for lam, mu in self.table.pairs():
            got = loaded.product(lam, mu)
            expect(got == self.table.product(lam, mu),
                   f"n={self.table.n}: loaded product {lam}*{mu} differs")
            expect_exact(vector_coefficients(got), f"loaded product {lam}*{mu}")

    def _check_same_bytes(self, path, copy, _):
        with open(path, "rb") as a, open(copy, "rb") as b:
            expect(a.read() == b.read(), f"re-saved {copy} differs from {path}")


class Query(Workload):
    """A closed loop of one client sending small requests to one built table.

    Pass i sends a fresh batch of requests drawn from Random((seed, i)), with a
    fixed number of each kind, so the same seed sends the same stream.
    """
    name = "query"
    fresh_passes = True
    N = 7
    # No usage record of the CLI or library exists to draw a mix from, so
    # every kind gets the same count.  README.md gives each kind's share of
    # the pass time and the kinds that op_p50_ms and op_p95_ms land on.
    MIX = (("expr", 200), ("gw", 200), ("pieri", 200), ("deformed", 200),
           ("positivity", 200))
    params = {"n": N, "mix": dict(MIX), "cross_check_share": CROSS_CHECK_SHARE}

    def setup(self):
        self.table = self.tr.call("ring.build_table", osg.build_table, self.N)
        self.basis = list(self.table.basis)
        self.keys = _deformation_keys(self.N)

    def ops(self, pass_index):
        self.counts = {}
        rng = random.Random(f"query:{self.seed}:{pass_index}")
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        rng.shuffle(kinds)
        requests = [(kind, *getattr(self, "_" + kind)(rng, rng.random() < CROSS_CHECK_SHARE))
                    for kind in kinds]
        for kind, run, check in requests:
            self.add("requests." + kind)
            yield kind, run, check

    def _expr(self, rng, cross):
        terms = [(rng.randint(1, 3), rng.randint(0, 2),
                  [rng.choice(self.basis) for _ in range(rng.randint(2, 3))])
                 for _ in range(rng.randint(1, 2))]
        signs = [""] + [rng.choice((" + ", " - ")) for _ in terms[1:]]
        text = _expression(signs, terms)
        swapped = _expression(signs, [(k, e, taus[::-1]) for k, e, taus in terms])

        def run():
            ast = self.tr.call("expr.parse_expression", osg.parse_expression, text)
            return self.tr.call("expr.evaluate_expression", osg.evaluate_expression,
                                ast, self.table)

        def check(value):
            expect_exact(vector_coefficients(value), text)
            if cross:
                other = osg.evaluate_expression(osg.parse_expression(swapped), self.table)
                expect(value == other, f"{text!r} differs from {swapped!r}")
        return run, check

    def _gw(self, rng, cross):
        n = self.N
        lam, mu = rng.choice(self.basis), rng.choice(self.basis)
        nu, d = _random_target(rng, n, lam, mu)

        def check(value):
            expect_exact([value], f"gw {lam} {mu} {nu} {d}")
            if cross:
                prod = osg.multiply(self.table, osg.ClassVector.basis(n, lam),
                                    osg.ClassVector.basis(n, mu))
                expect(value == prod.coefficient(nu, d),
                       f"gw_constant {lam} {mu} {nu} q^{d} = {value}, multiply "
                       f"gives {prod.coefficient(nu, d)}")
        return (partial(self.tr.call, "ring.gw_constant", osg.gw_constant,
                        self.table, lam, mu, nu, d), check)

    def _pieri(self, rng, cross):
        lam = rng.choice(self.basis)
        special, name, rule = rng.choice((((1, 0), "pieri.pieri_tau1", osg.pieri_tau1),
                                          ((1, 1), "pieri.pieri_tau11", osg.pieri_tau11)))

        def check(value):
            expect_exact(vector_coefficients(value), f"{name} {lam}")
            if cross:
                expect(value == self.table.product(special, lam),
                       f"{name} {lam} differs from the table")
        return partial(self.tr.call, name, rule, self.N, lam), check

    def _deformed(self, rng, cross):
        spec = _random_spec(rng, self.N, self.keys, rng.randint(1, 3))
        mu1, mu2 = rng.choice(self.basis), rng.choice(self.basis)

        def check(value):
            expect_exact(vector_coefficients(value), f"deformed {mu1}*{mu2}")
            if cross:
                other = osg.deformed_product(spec, self.table, mu2, mu1)
                expect(value == other, f"deformed product {mu1}*{mu2} is not "
                                       f"commutative under {spec!r}")
        return (partial(self.tr.call, "deformation.deformed_product",
                        osg.deformed_product, spec, self.table, mu1, mu2), check)

    def _positivity(self, rng, cross):
        # Uniqueness is certified at this rank in both modes, so a spec passes
        # exactly when it is zero.  That decides every request, not a subset.
        zero = rng.random() < 0.2
        spec = _random_spec(rng, self.N, self.keys, 0 if zero else rng.randint(1, 3))

        def check(report):
            if zero:
                expect(report.passes and not report.violations,
                       "the zero deformation fails positivity")
            else:
                expect(not report.passes and report.violations,
                       f"nonzero {spec!r} passes positivity")
            for _, _, _, value in report.violations:
                expect_exact([value], "violation")
                expect(value < 0, f"violation with nonnegative value {value}")
            self.add("deformation.violations", len(report.violations))
        return (partial(self.tr.call, "deformation.check_positivity",
                        osg.check_positivity, spec, self.table), check)


def _random_target(rng, n, lam, mu):
    """A random (nu, d) of the degree of tau[lam] * tau[mu]."""
    total = degree(lam) + degree(mu)
    d = rng.choice([d for d in range(total // (2 * n) + 1)
                    if total - 2 * n * d <= max_degree(n)])
    return rng.choice(enumerate_degree(n, total - 2 * n * d)), d


def _deformation_keys(n):
    return {MODE_PER_PAIR: pair_keys(n), MODE_PER_MU: mu_keys(n)}


def _random_spec(rng, n, keys, size):
    """A numeric deformation with `size` random nonzero coefficients."""
    mode = rng.choice(MODES)
    return osg.DeformationSpec(n, mode, {
        k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        for k in rng.sample(keys[mode], size)})


def _expression(signs, terms) -> str:
    parts = []
    for sign, (k, e, taus) in zip(signs, terms):
        factors = [str(k)] if k > 1 else []
        factors += ["q" if e == 1 else f"q^{e}"] if e else []
        factors += [f"tau[{a},{b}]" for a, b in taus]
        parts.append(sign + "*".join(factors))
    return "".join(parts)


def _no_floats(text):
    raise CheckFailure(f"float {text} in JSON output")


class Cli(Workload):
    """A fixed script of `--format json` invocations, each a fresh process."""
    name = "cli"
    N = 5             # mult, gw, check-positivity
    LARGE_N = 8       # basis, pieri, certify --method replay
    TABLE_N = 6       # table --out, table --load
    params = {"n": N, "large_n": LARGE_N, "table_n": TABLE_N}

    def setup(self):
        # The schema validator is the benchmark's checker, not part of the
        # program, so it is built on the first check, outside timed set-up.
        self.validator = None
        src = os.path.dirname(os.path.dirname(os.path.abspath(osg.__file__)))
        self.env = dict(os.environ, OSG_CACHE_DIR=self.tmp,
                        PYTHONPATH=os.pathsep.join(
                            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        rng, n = self.rng, self.N
        self.basis_degree = rng.randint(0, max_degree(self.LARGE_N))
        # mult and gw ask for a product with a special class, so the Pieri
        # rule gives the expected answer without a table.
        expected = None
        while not expected:
            lam = rng.choice(osg.enumerate_basis(n))
            mu, rule = rng.choice((((1, 0), osg.pieri_tau1), ((1, 1), osg.pieri_tau11)))
            expected = rule(n, lam)
        nu, d, _ = rng.choice(list(expected.flat_items()))
        self.mult = (rng.randint(2, 5), lam, mu, nu, d)
        self.mult_expected = expected
        self.pieri = (rng.choice(("1", "11")),
                      rng.choice(osg.enumerate_basis(self.LARGE_N)))
        self.spec_path = os.path.join(self.tmp, "spec.json")
        osg.save_spec(_random_spec(rng, n, _deformation_keys(n), 2), self.spec_path)
        self.table_path = os.path.join(self.tmp, "table.json")
        self.table_copy = os.path.join(self.tmp, "table-copy.json")

    def script(self):
        k, lam, mu, nu, d = self.mult
        idx = lambda x: f"{x[0]},{x[1]}"
        cls, with_index = self.pieri
        n, large, table_n = str(self.N), str(self.LARGE_N), str(self.TABLE_N)
        return (
            ("startup", ["basis", "--n", "3"], self._check_basis),
            ("basis", ["basis", "--n", large, "--degree", str(self.basis_degree)],
             self._check_basis),
            ("mult", ["mult", "--n", n, f"{k}*tau[{idx(lam)}]*tau[{idx(mu)}]"],
             self._check_mult),
            ("gw", ["gw", "--n", n, "--lambda", idx(lam), "--mu", idx(mu),
                    "--nu", idx(nu), "--d", str(d)], self._check_gw),
            ("pieri", ["pieri", "--n", large, "--class", cls, "--with", idx(with_index)],
             self._check_pieri),
            ("check-positivity", ["check-positivity", "--n", n,
                                  "--spec", self.spec_path], self._check_positivity),
            ("certify", ["certify", "--n", large, "--method", "replay"],
             self._check_certify),
            ("table-out", ["table", "--n", table_n, "--out", self.table_path],
             self._check_table_out),
            ("table-load", ["table", "--n", table_n, "--load", self.table_path,
                            "--out", self.table_copy], self._check_table_load),
        )

    def ops(self, pass_index):
        self.counts = {}
        for name, argv, check in self.script():
            cmd = [sys.executable, "-m", "osglines.cli", *argv, "--format", "json"]
            yield (name,
                   partial(self.tr.call, "cli." + name, subprocess.run, cmd,
                           capture_output=True, text=True, env=self.env,
                           cwd=self.tmp, timeout=170),
                   partial(self._check_output, name, check))

    def _check_output(self, name, check, proc):
        expect(proc.returncode == 0, f"{name}: exit {proc.returncode}: "
                                     f"{proc.stderr.strip()[-300:]}")
        payload = json.loads(proc.stdout, parse_float=_no_floats)
        if self.validator is None:
            import jsonschema
            self.validator = jsonschema.Draft202012Validator(
                load_schema("cli_output.schema.json"))
        errors = list(self.validator.iter_errors(payload))
        expect(not errors, f"{name}: output violates the schema: "
                           f"{errors[0].message if errors else ''}")
        self.add("cli.invocations")
        check(payload)

    def _terms(self, n, payload):
        vec = class_vector_from_terms(n, payload["terms"])
        expect_exact(vector_coefficients(vec), payload["command"])
        return vec

    def _check_basis(self, payload):
        n, deg = payload["n"], payload["degree"]
        want = osg.enumerate_basis(n) if deg is None else enumerate_degree(n, deg)
        expect([tuple(i) for i in payload["indices"]] == want,
               f"basis --n {n} --degree {deg} lists other indices")

    def _check_mult(self, payload):
        k = self.mult[0]
        expect(self._terms(self.N, payload) == self.mult_expected.scale(k),
               f"mult {payload['expression']!r} differs from the Pieri rule")

    def _check_gw(self, payload):
        _, _, _, nu, d = self.mult
        value = Fraction(payload["value"])
        want = self.mult_expected.coefficient(nu, d)
        expect(value == want, f"gw gives {value} at {nu}, q^{d}; the Pieri rule "
                              f"gives {want}")

    def _check_pieri(self, payload):
        cls, lam = self.pieri
        rule = osg.pieri_tau1 if cls == "1" else osg.pieri_tau11
        expect(self._terms(self.LARGE_N, payload) == rule(self.LARGE_N, lam),
               f"pieri {cls} {lam} differs")

    def _check_positivity(self, payload):
        # The spec is nonzero and uniqueness is certified at this rank.
        expect(not payload["passes"] and payload["violations"],
               "a nonzero deformation passes positivity")
        for v in payload["violations"]:
            expect(Fraction(v["value"]) < 0, f"violation {v} is not negative")

    def _check_certify(self, payload):
        (result,) = payload["results"]
        expect(result["conclusion"] == osg.CONCLUSION_UNIQUE_ZERO and payload["agree"],
               f"certify --method replay: {result}")
        self.add("certify.replay_steps", result["steps"])

    def _check_table_out(self, payload):
        b = len(osg.enumerate_basis(self.TABLE_N))
        expect(payload["source"] == "built" and payload["classes"] == b
               and payload["products"] == b * (b + 1) // 2,
               f"table --out reports {payload}")
        self.add("ring.stored_products", payload["products"])
        self.add("serialize.table_bytes", os.path.getsize(self.table_path))

    def _check_table_load(self, payload):
        expect(payload["source"] == "loaded", f"table --load reports {payload}")
        with open(self.table_path, "rb") as a, open(self.table_copy, "rb") as b:
            expect(a.read() == b.read(), "table --load --out copy differs")


WORKLOADS = {w.name: w for w in (Certify, Table, Query, Cli)}
