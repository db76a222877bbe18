"""The three workloads: seeded instance draws, the ops, and each op's check.

Every workload is a list of strata of instances of similar cost. A round
runs one instance from each stratum, each stratum walked in a seeded order;
in a cycle of rounds (the least common multiple of the strata's lengths)
every instance runs equally often, so a run of whole cycles holds the same
instances whatever the seed. The seed decides the order of the ops and,
round by round, the free choices within an instance: generators, element
sets, field moduli.

An op's run() is the timed call into sdfam. Its check() runs afterwards,
outside the timed region, and raises oracle.Mismatch when the result is
wrong. Expected values come from arith and oracle, never from sdfam.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

from sdfam import cli, constructions, endos, fields, groups

import arith
import oracle
from oracle import Mismatch, require


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_defect: Optional[str] = None  # the recorded wrong outcome, if any


class Draws:
    """One pick per stratum per round, each stratum walked in a seeded order."""

    def __init__(self, key: str, strata: list[list]):
        self.key = key
        rng = random.Random(key)
        self.orders = [rng.sample(s, len(s)) for s in strata]
        self.cycle = math.lcm(*map(len, strata))

    def round(self, r: int) -> tuple[list, random.Random]:
        """Round r's picks in seeded order, and the generator for their free choices."""
        rng = random.Random(f"{self.key}:{r}")
        picks = [order[r % len(order)] for order in self.orders]
        rng.shuffle(picks)
        return picks, rng


def _ladder(values: list, n: int) -> list:
    """The middle one of each of n equal strata of cost-sorted values."""
    return [values[(2 * i + 1) * len(values) // (2 * n)] for i in range(n)]


def _cert(cert) -> dict:
    return {"v": cert.v, "k": cert.k, "mu": cert.mu, "nu": cert.nu,
            "lambda_prime": cert.lam_prime, "lambda": cert.lam}


def _check_design_build(res, v: int, k: int, lam: int) -> None:
    """Certificate and developed design of a build promising a 2-(v,k,lam) design."""
    cert = _cert(res.certificate)
    oracle.check_certificate(cert, v, k, k * (k - 1))
    require(cert["lambda"] == lam, f"certificate lambda = {cert['lambda']}, expected {lam}")
    d = res.design
    require((d.v, d.k, d.lam) == (v, k, lam),
            f"design is ({d.v}, {d.k}, {d.lam}), expected ({v}, {k}, {lam})")
    oracle.check_design(v, k, lam, d.blocks)


# -- orbit-cyclic -----------------------------------------------------------

# Work of the translate-class scan grows like p^3/k; the cap keeps single
# ops under about 0.6 s, so a run holds enough rounds for steady figures.
CYCLIC_MAX_WORK = 600_000
CYCLIC_STRATA = 13  # odd: the median op of a round then comes from one stratum


def cyclic_instances() -> list[tuple[int, int]]:
    """(p, k): p prime in [61, 257], k in [3, 12] dividing p-1, work p^3/k
    under the cap (so p <= 193), in order of the op time measured on the
    reference machine, which grows like p^2.73 / k^0.84."""
    pairs = [(p, k) for p in range(61, 258) if arith.is_prime(p)
             for k in range(3, 13) if (p - 1) % k == 0 and p ** 3 // k <= CYCLIC_MAX_WORK]
    return sorted(pairs, key=lambda pk: (pk[0] ** 2.73 / pk[1] ** 0.84, pk))


def cyclic_ladder() -> list[tuple[int, int]]:
    """The middle instance of each of CYCLIC_STRATA equal cost strata. Two
    (p, k) of similar modelled cost can still differ by 40% in time, and a
    stratum holding both let op_p50_s jump by 20% from seed to seed."""
    return _ladder(cyclic_instances(), CYCLIC_STRATA)


class OrbitCyclic:
    """ferrero and ferrero_with_zero on Z_p, Phi the order-k subgroup of Z_p^*
    given by a seeded generator."""

    name = "orbit-cyclic"
    trace_rounds = 8

    def __init__(self, seed: int, workdir: str):
        strata = [[(p, k, m) for m in ("ferrero", "ferrero_with_zero")]
                  for p, k in cyclic_ladder()]
        self.draws = Draws(f"{self.name}:{seed}", strata)
        self.cycle = self.draws.cycle

    def round(self, r: int) -> list[Op]:
        picks, rng = self.draws.round(r)
        ops = []
        for p, k, method in picks:
            e = rng.choice([e for e in range(1, k) if gcd(e, k) == 1])
            ops.append(cyclic_op(p, k, arith.unit_of_order(p, k, e), method))
        return ops


def cyclic_op(p: int, k: int, c: int, method: str) -> Op:
    def run():
        group = groups.build_cyclic(p)
        phi = endos.closure([endos.scalar_endo(group, c)])
        return getattr(constructions, method)(group, phi)

    def check(res):
        if method == "ferrero":
            _check_design_build(res, p, k, k - 1)
        else:
            require(res.case == "non-subgroup-case", f"case {res.case!r}, expected non-subgroup-case")
            _check_design_build(res, p, k + 1, k + 1)

    return Op(f"{method} p={p} k={k} c={c}", run, check)


# -- field-transitive -------------------------------------------------------

# GF(q) for q = p^n, n >= 2, up to 81. Larger fields are left out: one op on
# GF(121) or GF(125) takes 0.8-1.7 s, and on GF(128)..GF(256) 1.4-13 s,
# which would leave a run too few rounds for steady figures.
FIELDS = {25: (5, 2), 27: (3, 3), 32: (2, 5), 49: (7, 2), 64: (2, 6), 81: (3, 4)}
# |H| for transnormal's S = {0} u H, one per field: transnormal's cost swings
# with |H| (on GF(121) from 0.45 s to 3 s). GF(27)'s |H| = 2 is the case
# where {0} u H is a subfield. GF(32)^* has prime order 31, so GF(32) has no
# proper H.
TRANSNORMAL_H = {25: 8, 27: 2, 49: 12, 64: 9, 81: 5}
# |T| for nearfield_family, one per field, so that every round holds the
# same instances whatever the seed; its cost hardly moves with |T|.
NEARFIELD_T = {25: 8, 27: 7, 32: 6, 49: 5, 64: 4, 81: 3}


def field_strata() -> list[list[tuple]]:
    """One single-instance stratum per field and method."""
    strata = [[("nearfield", q, t)] for q, t in NEARFIELD_T.items()]
    strata += [[("transnormal", q, h)] for q, h in TRANSNORMAL_H.items()]
    return strata


class FieldTransitive:
    """transnormal and nearfield_family over GF(p^n), each op's field under
    a seeded primitive modulus."""

    name = "field-transitive"
    trace_rounds = 16

    def __init__(self, seed: int, workdir: str):
        self.draws = Draws(f"{self.name}:{seed}", field_strata())
        self.cycle = self.draws.cycle

    def round(self, r: int) -> list[Op]:
        picks, rng = self.draws.round(r)
        ops = []
        for method, q, size in picks:
            p, n = FIELDS[q]
            modulus = rng.choice(arith.primitive_moduli(p, n))
            if method == "transnormal":
                ops.append(transnormal_op(p, n, size, modulus))
            else:
                indices = sorted(rng.sample(range(q), size))
                ops.append(nearfield_op(p, n, indices, modulus))
        return ops


def transnormal_op(p: int, n: int, h: int, modulus: tuple[int, ...]) -> Op:
    q = p ** n

    def run():
        field = fields.build_field(p, n, modulus)
        group = fields.additive_group(field)
        units = fields.unit_subgroup_elements(field, (q - 1) // h)
        maps = [endos.field_mult_endo(field, field.zero)]
        maps += [endos.field_mult_endo(field, u) for u in units]
        psi = endos.closure([endos.field_mult_endo(field, fields.primitive_element(field))])
        return constructions.transnormal(group, maps, psi)

    def check(res):
        require(res.doubly_transitive is True, "transnormal design is not doubly transitive")
        # {0} u H is a subfield exactly when |H| + 1 is the order of one; then
        # the blocks are subgroups and lambda is 1 (ferrero_with_zero's cases).
        lam = 1 if h + 1 in arith.subfield_orders(p, n) else h + 1
        _check_design_build(res, q, h + 1, lam)

    return Op(f"transnormal q={q} h={h} modulus={list(modulus)}", run, check)


def nearfield_op(p: int, n: int, indices: list[int], modulus: tuple[int, ...]) -> Op:
    q, t = p ** n, len(indices)

    def run():
        field = fields.build_field(p, n, modulus)
        return constructions.nearfield_family(field, [field.element_at(i) for i in indices])

    def check(res):
        cert = _cert(res.certificate)
        oracle.check_certificate(cert, q, t, t * (t - 1))
        blocks = [entry.block for entry in res.family.entries]
        require(len(blocks) == q - 1, f"{len(blocks)} family entries, expected {q - 1}")
        developed = oracle.develop(blocks, oracle.elementary_add(p, n))
        oracle.check_design(q, t, cert["lambda"], developed)

    return Op(f"nearfield q={q} T={indices} modulus={list(modulus)}", run, check)


# -- cli-roundtrip ----------------------------------------------------------

@dataclass
class CliOutcome:
    code: Optional[int]
    exc: Optional[str]
    out: str
    err: str

    @property
    def outcome(self) -> str:
        return f"uncaught {self.exc}" if self.exc else f"exit {self.code}"


def run_cli(argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is an outcome to check
            return CliOutcome(None, type(exc).__name__, out.getvalue(), err.getvalue())
    return CliOutcome(code, None, out.getvalue(), err.getvalue())


def cli_op(op_id: str, argv: list[str], expect_exit: int,
           check_ok: Optional[Callable[[CliOutcome], None]] = None,
           known_defect: Optional[str] = None) -> Op:
    def check(res: CliOutcome):
        if res.outcome != f"exit {expect_exit}":
            if res.outcome == known_defect:
                raise oracle.KnownDefect(f"{res.outcome}, expected exit {expect_exit}")
            raise Mismatch(f"{res.outcome}, expected exit {expect_exit}: {res.err.strip()[:200]}")
        require("Traceback" not in res.err, "a traceback was printed")
        if expect_exit == 0:
            check_ok(res)
        else:
            require(res.err.strip(), "rejected without a report on stderr")
            if expect_exit == 2:
                require("condition" in res.err, "exit 2 report names no condition")

    return Op(op_id, lambda: run_cli(argv), check, known_defect)


ANALYZE_BANDS = [(200, 279), (280, 359), (360, 439), (440, 512)]
ANALYZE_KINDS = ["cyclic", "elementary_abelian", "product", "cayley"]
ELEMENTARY = [(3, 5), (2, 8), (17, 2), (7, 3), (19, 2), (2, 9)]
# Segment sets {0, 1, 1/2} need 2 to have odd order mod p. Like the
# segments-order6 instances, they stop below 80: their translate classes
# pair up labels, and at p = 127 one construct takes 1.4 s.
SEGMENT_PRIMES = [p for p in range(23, 80) if arith.is_prime(p) and arith.mult_order(2, p) % 2]
CONSTRUCT_FIELDS = {25: (5, 2), 27: (3, 3), 49: (7, 2), 64: (2, 6), 81: (3, 4)}
METHODS = ["ferrero", "ferrero-zero", "orbit", "segments", "segments-order6",
           "transnormal", "nearfield"]
CONSTRUCT_SIZES = 4  # per method, two in text and two in JSON

# Inputs that must be rejected with exit 1 but are not, each with the wrong
# outcome recorded for it. They stay in every round, so the defects show in
# the error rate until the library is fixed.
KNOWN_DEFECTS = [
    ("cyclic-n-string", {"kind": "cyclic", "n": "abc"}, "uncaught ValueError"),
    ("cyclic-n-null", {"kind": "cyclic", "n": None}, "uncaught TypeError"),
    ("elementary-k-bool", {"kind": "elementary_abelian", "p": 3, "k": True}, "exit 0"),
]


def _analyze_size(kind: str, band: int):
    """The middle order of a band, or its middle elementary abelian (p, k)."""
    lo, hi = ANALYZE_BANDS[band]
    if kind == "elementary_abelian":
        sizes = [(p, k) for p, k in ELEMENTARY if lo <= p ** k <= hi]
        return sizes[len(sizes) // 2]
    return (lo + hi) // 2


def _construct_sizes(method: str) -> list:
    """The instances a construct method draws from, in order of cost."""
    if method == "segments":
        return SEGMENT_PRIMES
    if method == "segments-order6":
        return [(p, 6) for p in range(31, 80) if arith.is_prime(p) and p % 6 == 1]
    if method == "transnormal":
        sizes = [(q, h) for q in CONSTRUCT_FIELDS for h in range(2, 17)
                 if (q - 1) % h == 0 and h < q - 1]
        return sorted(sizes, key=lambda qh: (qh[0], -qh[1]))
    if method == "nearfield":
        return [(q, t) for q in CONSTRUCT_FIELDS for t in range(6, 2, -1)]
    pairs = [(p, d) for p in range(31, 114) if arith.is_prime(p)
             for d in range(3, 9) if (p - 1) % d == 0]
    return sorted(pairs, key=lambda pd: (pd[0] ** 3 / pd[1], pd))


def cli_strata() -> list[list[tuple]]:
    """Per round: each analyze band with one of the four kinds, each construct
    method with one of its sizes, a catalog, six of the eleven kinds of
    rejected input and the known defects. A cycle is 4 rounds."""
    strata = [[("analyze", kind, b) for kind in ANALYZE_KINDS] for b in range(len(ANALYZE_BANDS))]
    strata += [[("construct", m, size, ("text", "json")[i % 2])
                for i, size in enumerate(_ladder(_construct_sizes(m), CONSTRUCT_SIZES))]
               for m in METHODS]
    strata.append([("catalog", m) for m in _ladder(list(range(12, 25)), 4)])
    rejects = list(range(len(REJECTS)))
    strata += [[("reject", i) for i in rejects[j:j + 2]] for j in range(0, len(rejects), 2)]
    strata += [[("known", i)] for i in range(len(KNOWN_DEFECTS))]
    return strata


def _small_units(n: int) -> list[tuple[int, int]]:
    """Every unit c of Z_n with multiplicative order d in [2, 12], as (c, d)."""
    choices = []
    for c in range(2, n):
        if gcd(c, n) == 1:
            acc, d = c, 1
            while acc != 1 and d <= 12:
                acc, d = acc * c % n, d + 1
            if acc == 1:
                choices.append((c, d))
    return choices


def _scalar_report(c: int, d: int, n: int) -> dict:
    """analyze's report for Phi = <x -> c x> on a group of exponent n."""
    return {"order": d, "fpf": arith.units_fpf(c, d, n), "cyclic": True,
            "center_order": d, "quotient_order": 1, "member": True}


def _shift_matrix(k: int, j: int) -> list[list[int]]:
    """The coordinate shift by j on (Z_p)^k."""
    return [[1 if r == (c + j) % k else 0 for c in range(k)] for r in range(k)]


def _parse_fields(line: str, prefix: str) -> dict:
    require(line.startswith(prefix), f"line {line!r} does not start with {prefix!r}")
    return {key: int(val) for key, val in (item.split("=") for item in line[len(prefix):].split())}


def _read_design_text(path: str) -> tuple[list[int], list[list[int]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [int(x) for x in lines[0].split()], [[int(x) for x in ln.split()] for ln in lines[1:]]


class CliRoundtrip:
    """In-process sdfam.cli.main calls on spec files written during set-up."""

    name = "cli-roundtrip"
    trace_rounds = 8

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        self.produced: dict[str, dict] = {}  # output path -> fields its check verified
        self.draws = Draws(f"{self.name}:{seed}", cli_strata())
        self.cycle = self.draws.cycle
        # Set-up writes one cycle of rounds; a longer run repeats them.
        self.pool = [self._make_round(r) for r in range(self.cycle)]

    def round(self, r: int) -> list[Op]:
        return self.pool[r % self.cycle]

    def _write(self, d: str, name: str, doc) -> str:
        path = self._path(d, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def _path(self, d: str, name: str) -> str:
        return os.path.join(self.dir, d, name)

    def _make_round(self, r: int) -> list[Op]:
        """Round r of the pool; its files go to r<r>/."""
        d = f"r{r}"
        os.makedirs(os.path.join(self.dir, d))
        picks, rng = self.draws.round(r)
        ops, verify = [], []
        for kind, *args in picks:
            if kind == "analyze":
                ops.append(self._analyze(d, args[0], args[1], rng))
            elif kind == "construct":
                op, follow = self._construct(d, *args, rng)
                ops.append(op)
                verify.append(follow)
            elif kind == "catalog":
                out = self._path(d, "catalog.txt")
                ops.append(cli_op(f"catalog max={args[0]}",
                                  ["catalog", "--max-order", str(args[0]), "--output", out], 0,
                                  lambda res, m=args[0], out=out: _check_catalog(out, m)))
            elif kind == "reject":
                ops.append(REJECTS[args[0]](self, d, rng))
            else:
                name, spec, outcome = KNOWN_DEFECTS[args[0]]
                argv = ["analyze", "--group", self._write(d, f"{name}.json", spec),
                        "--autos", self._write(d, f"{name}-autos.json", [{"kind": "scalar", "c": 2}]),
                        "--output", self._path(d, f"{name}-report.json")]
                ops.append(cli_op(f"known-defect {name}", argv, 1, known_defect=outcome))
        return ops + verify  # verify ops read what this round's constructs wrote

    # analyze ---------------------------------------------------------------

    def _analyze(self, d, kind, b, rng) -> Op:
        size = _analyze_size(kind, b)
        if kind == "cyclic":
            n = size
            c, dc = rng.choice(_small_units(n))
            spec, autos, want = {"kind": "cyclic", "n": n}, [{"kind": "scalar", "c": c}], _scalar_report(c, dc, n)
            label = f"{n} c={c}"
        elif kind == "product":
            a = (4, 6, 8, 12)[b]
            bb = size // a
            e = a * bb // gcd(a, bb)
            c, dc = rng.choice(_small_units(e))
            spec = {"kind": "product", "factors": [{"kind": "cyclic", "n": a}, {"kind": "cyclic", "n": bb}]}
            autos, want = [{"kind": "scalar", "c": c}], _scalar_report(c, dc, e)
            label = f"{a}x{bb} c={c}"
        elif kind == "elementary_abelian":
            p, k = size
            spec = {"kind": "elementary_abelian", "p": p, "k": k}
            if p == 2:
                # A coordinate shift fixes (1, ..., 1), so <shift> is not fpf.
                j = rng.choice([j for j in range(1, k) if gcd(j, k) == 1])
                autos = [{"kind": "matrix", "entries": _shift_matrix(k, j)}]
                want = {"order": k, "fpf": False, "cyclic": True, "center_order": k,
                        "quotient_order": 1, "member": True}
                label = f"{p}^{k} shift={j}"
            else:
                c, dc = rng.choice(_small_units(p))
                autos, want = [{"kind": "scalar", "c": c}], _scalar_report(c, dc, p)
                label = f"{p}^{k} c={c}"
        else:
            n = size
            c, dc = rng.choice(_small_units(n))
            spec = {"kind": "cayley", "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
            autos, want = [{"kind": "table", "map": [c * x % n for x in range(n)]}], _scalar_report(c, dc, n)
            label = f"{n} c={c}"
        out = self._path(d, f"analyze{b}.json")
        argv = ["analyze", "--group", self._write(d, f"group{b}.json", spec),
                "--autos", self._write(d, f"autos{b}.json", autos), "--output", out]

        def check_ok(res):
            with open(out, encoding="utf-8") as fh:
                got = json.load(fh)
            for key, val in want.items():
                require(got.get(key) == val, f"analyze {key} = {got.get(key)!r}, expected {val!r}")
            require((got.get("fpf_witness") is None) == want["fpf"], "fpf_witness disagrees with fpf")

        return cli_op(f"analyze {kind} {label}", argv, 0, check_ok)

    # construct + verify ----------------------------------------------------

    def _construct(self, d, method, size, fmt, rng) -> tuple[Op, Op]:
        want: dict = {}
        if method in ("ferrero", "ferrero-zero", "orbit", "segments-order6"):
            p, dd = size
            c = arith.unit_of_order(p, dd, rng.choice([e for e in range(1, dd) if gcd(e, dd) == 1]))
            group = {"kind": "cyclic", "n": p}
            inputs = ["--group", self._write(d, f"{method}-group.json", group)]
            if method == "orbit":
                maps = [{"kind": "scalar", "c": 0}] + [{"kind": "scalar", "c": pow(c, i, p)} for i in range(dd)]
                inputs += ["--set", self._write(d, f"{method}-set.json", maps)]
            else:
                inputs += ["--autos", self._write(d, f"{method}-autos.json", [{"kind": "scalar", "c": c}])]
            v, k, lam = {"ferrero": (p, dd, dd - 1), "ferrero-zero": (p, dd + 1, dd + 1),
                         "orbit": (p, dd + 1, dd + 1), "segments-order6": (p, 4, 6)}[method]
            if method == "ferrero-zero":
                want["case"] = "non-subgroup-case"
            label = f"p={p} d={dd} c={c}"
        elif method == "segments":
            p = size
            group = {"kind": "cyclic", "n": p}
            maps = [{"kind": "scalar", "c": c} for c in (0, 1, (p + 1) // 2)]
            inputs = ["--group", self._write(d, f"{method}-group.json", group),
                      "--set", self._write(d, f"{method}-set.json", maps)]
            v, k, lam = p, 3, 3
            label = f"p={p}"
        else:
            q, h_or_t = size
            p, n = CONSTRUCT_FIELDS[q]
            modulus = rng.choice(arith.primitive_moduli(p, n))
            group = {"kind": "field", "p": p, "n": n, "modulus": list(modulus)}
            if method == "transnormal":
                h = h_or_t
                x = [0, 1] + [0] * (n - 2)  # x is primitive under a primitive modulus
                maps = [{"kind": "field_mult", "element": [0] * n}]
                maps += [{"kind": "field_mult", "element": list(u)}
                         for u in arith.unit_subgroup(p, n, h, modulus)]
                inputs = ["--group", self._write(d, f"{method}-group.json", group),
                          "--set", self._write(d, f"{method}-set.json", maps),
                          "--psi", self._write(d, f"{method}-psi.json", [{"kind": "field_mult", "element": x}])]
                v, k, lam = q, h + 1, (1 if h + 1 in arith.subfield_orders(p, n) else h + 1)
                want["doubly_transitive"] = True
                label = f"q={q} h={h} modulus={list(modulus)}"
            else:
                t = h_or_t
                idx = sorted(rng.sample(range(q), t))
                elems = [[(i // p ** j) % p for j in range(n)] for i in idx]
                inputs = ["--field", self._write(d, f"{method}-field.json", group),
                          "--elements", self._write(d, f"{method}-elements.json", elems)]
                v, k, lam = q, t, None  # lambda is the certificate's, checked on the design
                label = f"q={q} T={idx} modulus={list(modulus)}"
        out = self._path(d, f"{method}.{'txt' if fmt == 'text' else 'json'}")
        argv = ["construct", "--method", method, *inputs, "--dev", "--format", fmt, "--output", out]

        def check_cert(cert):
            oracle.check_certificate(cert, v, k, k * (k - 1))
            if lam is not None:
                require(cert["lambda"] == lam, f"certificate lambda = {cert['lambda']}, expected {lam}")

        vfmt = rng.choice(["text", "json"])
        if fmt == "text":
            def check_ok(res):
                lines = res.out.splitlines()
                cert = _parse_fields(lines[0], "certificate ")
                check_cert(cert)
                if "case" in want:
                    require(lines[1:] == [f"case {want['case']}"], f"case lines {lines[1:]!r}")
                header, blocks = _read_design_text(out)
                require(header == [v, k, cert["lambda"], len(blocks)], f"design header {header}")
                oracle.check_design(v, k, cert["lambda"], blocks)
                self.produced[out] = {"v": v, "k": k, "lambda": cert["lambda"], "b": len(blocks)}

            follow = cli_op(f"verify-design {method} {label} {vfmt}",
                            ["verify-design", "--design", out, "--format", vfmt], 0,
                            lambda res: _check_verify(res, vfmt, "design ", self.produced.get(out)))
        else:
            fam = self._path(d, f"{method}-family.json")

            def check_ok(res):
                with open(out, encoding="utf-8") as fh:
                    doc = json.load(fh)
                require(doc["method"] == method, f"method {doc['method']!r}")
                require(doc["family"]["group"] == group, "family group spec differs from the input")
                check_cert(doc["certificate"])
                for key, val in want.items():
                    require(doc.get(key) == val, f"{key} = {doc.get(key)!r}, expected {val!r}")
                design = doc["design"]
                lam_d = doc["certificate"]["lambda"]
                require((design["v"], design["k"], design["lambda"], design["b"])
                        == (v, k, lam_d, len(design["blocks"])), "design fields")
                oracle.check_design(v, k, lam_d, design["blocks"])
                with open(fam, "w", encoding="utf-8") as fh:
                    json.dump(doc["family"], fh)
                self.produced[fam] = doc["certificate"]

            follow = cli_op(f"verify-sdf {method} {label} {vfmt}",
                            ["verify-sdf", "--family", fam, "--format", vfmt], 0,
                            lambda res: _check_verify(res, vfmt, "sdf certificate ", self.produced.get(fam)))
        return cli_op(f"construct {method} {label} {fmt}", argv, 0, check_ok), follow

    # rejected inputs -------------------------------------------------------
    # Each kind has one size, as its cost grows with it; the seed draws only
    # where the input is broken.

    def _unknown_kind(self, d, rng):
        g = self._write(d, "bad-kind.json", {"kind": "dihedral", "n": rng.randint(8, 64)})
        a = self._write(d, "bad-kind-autos.json", [{"kind": "scalar", "c": 1}])
        return _reject("unknown-kind", ["analyze", "--group", g, "--autos", a], 1)

    def _bad_json(self, d, rng):
        g = self._write(d, "bad-json.json", '{"kind": "cyclic", "n": %d' % rng.randint(7, 64))
        a = self._write(d, "bad-json-autos.json", [{"kind": "scalar", "c": 2}])
        return _reject("bad-json", ["construct", "--method", "ferrero", "--group", g,
                                            "--autos", a], 1)

    def _non_group(self, d, rng):
        n = 40
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        x, a, b = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, n)
        b = b if b != a else a % (n - 1) + 1
        table[x][a], table[x][b] = table[x][b], table[x][a]  # column a now repeats a value
        g = self._write(d, "non-group.json", {"kind": "cayley", "table": table})
        a_ = self._write(d, "non-group-autos.json", [{"kind": "scalar", "c": 1}])
        return _reject("non-group-table", ["analyze", "--group", g, "--autos", a_], 1)

    def _non_hom(self, d, rng):
        n = 101
        table = list(range(n))
        table[1], table[2] = 2, 1  # f(1+1) = f(2) = 1, but f(1) + f(1) = 4
        g = self._write(d, "non-hom-group.json", {"kind": "cyclic", "n": n})
        a = self._write(d, "non-hom-autos.json", [{"kind": "table", "map": table}])
        return _reject("non-homomorphism", ["analyze", "--group", g, "--autos", a], 1)

    def _reducible(self, d, rng):
        p, n = CONSTRUCT_FIELDS[49]
        f = self._write(d, "reducible.json", {"kind": "field", "p": p, "n": n,
                                              "modulus": [0] * n + [1]})  # x^n has the root 0
        e = self._write(d, "reducible-elements.json", [[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)])
        return _reject("reducible-modulus", ["construct", "--method", "nearfield",
                                                     "--field", f, "--elements", e], 1)

    def _over_cap(self, d, rng):
        g = self._write(d, "over-cap.json", {"kind": "cyclic", "n": rng.randint(513, 600)})
        a = self._write(d, "over-cap-autos.json", [{"kind": "scalar", "c": 1}])
        return _reject("over-cap", ["analyze", "--group", g, "--autos", a], 1)

    def _missing_flag(self, d, rng):
        g = self._write(d, "missing-flag.json", {"kind": "cyclic", "n": rng.choice([7, 13, 19])})
        return _reject("missing-flag", ["construct", "--method", "ferrero", "--group", g], 1)

    def _non_fpf(self, d, rng):
        # Z_{pq} with c = 1 mod p: c - 1 is no unit, so <c> has fixed points.
        p, q = 5, 7
        n = p * q
        c = next(c for c in range(2, n) if c % p == 1 and gcd(c, n) == 1)
        g = self._write(d, "non-fpf.json", {"kind": "cyclic", "n": n})
        a = self._write(d, "non-fpf-autos.json", [{"kind": "scalar", "c": c}])
        return _reject("non-fpf", ["construct", "--method", "ferrero", "--group", g,
                                           "--autos", a], 2)

    def _even_segments(self, d, rng):
        p = 41  # 2 has even order 20 mod 41
        g = self._write(d, "even-segments.json", {"kind": "cyclic", "n": p})
        s = self._write(d, "even-segments-set.json",
                        [{"kind": "scalar", "c": c} for c in (0, 1, (p + 1) // 2)])
        return _reject("segments-even-closure", ["construct", "--method", "segments",
                                                         "--group", g, "--set", s], 2)

    def _broken_design(self, d, rng):
        p = 43
        qr = sorted({x * x % p for x in range(1, p)})  # a (p, (p-1)/2, (p-3)/4) difference set
        blocks = oracle.develop([qr], oracle.cyclic_add(p)).tolist()
        del blocks[rng.randrange(len(blocks))]
        text = "\n".join([f"{p} {len(qr)} {(p - 3) // 4} {len(blocks)}"] +
                         [" ".join(map(str, b)) for b in blocks]) + "\n"
        d = self._write(d, "broken-design.txt", text)
        return _reject("design-minus-block", ["verify-design", "--design", d], 2)

    def _broken_family(self, d, rng):
        p = 43
        c = arith.unit_of_order(p, 3)
        entries = [{"label": x, "block": sorted({x * pow(c, i, p) % p for i in range(3)})}
                   for x in range(1, p)]
        block = entries[rng.randrange(len(entries))]["block"]
        block[0] = next(y for y in range(p) if y not in block)
        block.sort()
        f = self._write(d, "broken-family.json", {"group": {"kind": "cyclic", "n": p},
                                                  "entries": entries})
        return _reject("family-altered-block", ["verify-sdf", "--family", f], 2)


def _reject(name: str, argv: list[str], expect: int) -> Op:
    return cli_op(f"reject {name}", argv, expect)


REJECTS = [CliRoundtrip._unknown_kind, CliRoundtrip._bad_json, CliRoundtrip._non_group,
           CliRoundtrip._non_hom, CliRoundtrip._reducible, CliRoundtrip._over_cap,
           CliRoundtrip._missing_flag, CliRoundtrip._non_fpf, CliRoundtrip._even_segments,
           CliRoundtrip._broken_design, CliRoundtrip._broken_family]


def _check_verify(res: CliOutcome, fmt: str, prefix: str, want: Optional[dict]) -> None:
    require(want is not None, "the construct op this verify reads did not pass its check")
    got = json.loads(res.out) if fmt == "json" else _parse_fields(res.out.strip(), prefix)
    require(got == want, f"verify reported {got}, expected {want}")


def _check_catalog(path: str, m: int) -> None:
    with open(path, encoding="utf-8") as fh:
        triples = [tuple(int(x) for x in ln.split()) for ln in fh.read().splitlines()]
    require(triples == sorted(set(triples)), "catalog lines are not sorted and distinct")
    for v, k, lam in triples:
        require(2 <= v <= m and k >= 2 and lam >= 1, f"catalog triple {(v, k, lam)} out of range")
        require(lam * (v - 1) % (k - 1) == 0 and lam * v * (v - 1) % (k * (k - 1)) == 0,
                f"catalog triple {(v, k, lam)} fails the design divisibility conditions")
    # Every fixed-point-free unit subgroup <u> of Z_n gives Ferrero's (n, |u|, |u|-1).
    for n in range(2, m + 1):
        for u in range(2, n):
            if gcd(u, n) == 1:
                d = arith.mult_order(u, n)
                if arith.units_fpf(u, d, n):
                    require((n, d, d - 1) in triples, f"catalog lacks {(n, d, d - 1)}")


WORKLOADS = {w.name: w for w in (OrbitCyclic, FieldTransitive, CliRoundtrip)}
