"""Batch command-line front end.

Exit codes separate "the math says no" from "the input is bad":

* 0 - success
* 1 - I/O, parse, or validation errors
* 2 - a verification or hypothesis check failed (witness on stderr)

All configuration comes from flags and files; outputs are byte-identical
across repeated runs on identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from math import gcd
from typing import Optional, Sequence

from . import constructions
from .endos import (
    classification_check,
    closure,
    fpf_failure,
    is_cyclic,
    is_fpf,
    scalar_endo,
)
from .errors import CheckFailure, InvalidParameterError, SdfamError
from .families import development, verify_bibd, verify_sdf
from .groups import all_subgroups, build_cyclic, build_from_cayley
from .specs import (
    ParsedGroup,
    certificate_to_doc,
    design_to_doc,
    design_to_text,
    dump_json,
    family_to_doc,
    load_design_file,
    load_json,
    parse_endo_list,
    parse_family,
    parse_field_elements,
    parse_group,
)

CATALOG_CAP = 64

METHOD_INPUTS = {
    "ferrero": ("autos",),
    "ferrero-zero": ("autos",),
    "orbit": ("set",),
    "segments": ("set",),
    "segments-order6": ("autos",),
    "transnormal": ("set", "psi"),
    "nearfield": ("field", "elements"),
}


class UsageError(InvalidParameterError):
    """Bad command line; mapped to exit code 1 like other input errors."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdfam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a family (and optionally its design)")
    con.add_argument("--method", required=True, choices=sorted(METHOD_INPUTS))
    con.add_argument("--group", help="group spec file (JSON)")
    con.add_argument("--autos", help="generator endo specs, closed into a group (JSON list)")
    con.add_argument("--set", dest="endo_set", help="endo-set spec, taken literally (JSON list)")
    con.add_argument("--psi", help="generator endo specs for the normalizing group (JSON list)")
    con.add_argument("--field", help="field spec file (JSON)")
    con.add_argument("--elements", help="field element list for the nearfield method (JSON)")
    con.add_argument("--dev", action="store_true", help="also develop and verify the design")
    con.add_argument("--format", choices=("json", "text"), default="json")
    con.add_argument("--output", help="output path (defaults to stdout)")

    ver = sub.add_parser("verify-sdf", help="verify a labeled family file")
    ver.add_argument("--family", required=True)
    ver.add_argument("--format", choices=("json", "text"), default="text")
    ver.add_argument("--output")

    vd = sub.add_parser("verify-design", help="verify a design file (JSON or text)")
    vd.add_argument("--design", required=True)
    vd.add_argument("--format", choices=("json", "text"), default="text")
    vd.add_argument("--output")

    ana = sub.add_parser("analyze", help="structural report for a generated automorphism group")
    ana.add_argument("--group", required=True)
    ana.add_argument("--autos", required=True)
    ana.add_argument("--output")

    cat = sub.add_parser("catalog", help="parameter triples of unit-multiplication designs")
    cat.add_argument("--max-order", type=int, required=True)
    cat.add_argument("--output", required=True)
    return parser


def _write(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require(args, flag: str):
    value = getattr(args, flag if flag != "set" else "endo_set")
    if value is None:
        raise UsageError(f"--{flag} is required for method {args.method!r}")
    return value


def _load_closed_group(path: str, parsed: ParsedGroup):
    gens = parse_endo_list(load_json(path), parsed, path)
    return closure(gens)


def run_construct(args) -> int:
    method = args.method
    extras: dict = {}
    group_spec = None

    if method == "nearfield":
        field_doc = load_json(_require(args, "field"))
        if not isinstance(field_doc, dict) or field_doc.get("kind") != "field":
            raise UsageError("--field must point to a spec of kind 'field'")
        parsed = parse_group(field_doc, args.field)
        elems = parse_field_elements(load_json(_require(args, "elements")), args.elements)
        build = constructions.nearfield_family(parsed.field, elems)
        group_spec = parsed.spec
    else:
        parsed = parse_group(load_json(_require(args, "group")), args.group)
        group_spec = parsed.spec
        if method == "ferrero":
            phi = _load_closed_group(_require(args, "autos"), parsed)
            result = constructions.ferrero(parsed.group, phi)
            build = constructions.FamilyBuild(result.family, result.certificate)
            extras["design"] = result.design
        elif method == "ferrero-zero":
            phi = _load_closed_group(_require(args, "autos"), parsed)
            result = constructions.ferrero_with_zero(parsed.group, phi)
            build = constructions.FamilyBuild(result.family, result.certificate)
            extras["design"] = result.design
            extras["case"] = result.case
        elif method == "segments-order6":
            phi = _load_closed_group(_require(args, "autos"), parsed)
            build = constructions.segments_order6(parsed.group, phi)
        elif method == "orbit":
            maps = parse_endo_list(load_json(_require(args, "set")), parsed, args.endo_set)
            build = constructions.orbit_family(parsed.group, maps)
        elif method == "segments":
            maps = parse_endo_list(load_json(_require(args, "set")), parsed, args.endo_set)
            build = constructions.segments(parsed.group, maps)
        elif method == "transnormal":
            maps = parse_endo_list(load_json(_require(args, "set")), parsed, args.endo_set)
            psi = _load_closed_group(_require(args, "psi"), parsed)
            result = constructions.transnormal(parsed.group, maps, psi)
            build = constructions.FamilyBuild(result.family, result.certificate)
            extras["design"] = result.design
            extras["doubly_transitive"] = result.doubly_transitive

    design = extras.get("design")
    if design is None and args.dev:
        design = verify_bibd(build.family.group.order, development(build.family))
        extras["design"] = design

    if args.format == "text":
        if design is None:
            raise UsageError("--format text writes the design file; pass --dev")
        cert = build.certificate
        sys.stdout.write(f"certificate v={cert.v} k={cert.k} mu={cert.mu} nu={cert.nu} "
                         f"lambda_prime={cert.lam_prime} lambda={cert.lam}\n")
        if "case" in extras:
            sys.stdout.write(f"case {extras['case']}\n")
        _write(design_to_text(design), args.output)
        return 0

    doc = {
        "method": method,
        "family": family_to_doc(build.family, group_spec),
        "certificate": certificate_to_doc(build.certificate),
    }
    if design is not None:
        doc["design"] = design_to_doc(design)
    if "case" in extras:
        doc["case"] = extras["case"]
    if "doubly_transitive" in extras:
        doc["doubly_transitive"] = extras["doubly_transitive"]
    _write(dump_json(doc), args.output)
    return 0


def run_verify_sdf(args) -> int:
    family, _ = parse_family(load_json(args.family), args.family)
    cert = verify_sdf(family)
    if args.format == "json":
        _write(dump_json(certificate_to_doc(cert)), args.output)
    else:
        _write(f"sdf certificate v={cert.v} k={cert.k} mu={cert.mu} nu={cert.nu} "
               f"lambda_prime={cert.lam_prime} lambda={cert.lam}\n", args.output)
    return 0


def run_verify_design(args) -> int:
    v, blocks, declared = load_design_file(args.design)
    design = verify_bibd(v, blocks)
    for key, actual in (("k", design.k), ("lambda", design.lam), ("b", len(design.rows))):
        if key in declared and declared[key] != actual:
            raise InvalidParameterError(
                f"file declares {key}={declared[key]} but the blocks give {key}={actual}")
    if args.format == "json":
        _write(dump_json({"v": design.v, "k": design.k, "lambda": design.lam,
                          "b": len(design.rows)}), args.output)
    else:
        _write(f"design v={design.v} k={design.k} lambda={design.lam} "
               f"b={len(design.rows)}\n", args.output)
    return 0


def run_analyze(args) -> int:
    parsed = parse_group(load_json(args.group), args.group)
    phi = _load_closed_group(args.autos, parsed)
    witness = fpf_failure(phi)
    cls = classification_check(phi)
    report = {
        "order": len(phi),
        "fpf": witness is None,
        "fpf_witness": None if witness is None else {
            "x": witness.x,
            "first": list(witness.first.table),
            "second": list(witness.second.table),
        },
        "cyclic": is_cyclic(phi),
        "center_order": cls.center_order,
        "quotient_order": cls.quotient_order,
        "member": cls.member,
    }
    _write(dump_json(report), args.output)
    return 0


def _unit_subgroups(n: int) -> list[tuple[int, ...]]:
    """All subgroups of the multiplicative group mod n, as sorted tuples."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    if len(units) == 1:
        return [(1,)]
    index = {u: i for i, u in enumerate(units)}  # the unit 1 gets index 0
    group = build_from_cayley([[index[a * b % n] for b in units] for a in units])
    return sorted(tuple(sorted(units[i] for i in h)) for h in all_subgroups(group))


def run_catalog(args) -> int:
    n_max = args.max_order
    if n_max < 2 or n_max > CATALOG_CAP:
        raise UsageError(f"--max-order must be in [2, {CATALOG_CAP}]")
    triples = set()
    for n in range(2, n_max + 1):
        group = build_cyclic(n)
        endo_cache = {u: scalar_endo(group, u) for u in range(1, n) if gcd(u, n) == 1}
        for subgroup in _unit_subgroups(n):
            if len(subgroup) < 2:
                continue
            maps = [endo_cache[u] for u in subgroup]
            if not is_fpf(maps):
                continue
            result = constructions.ferrero(group, tuple(sorted(maps, key=lambda e: e.table)))
            triples.add((result.design.v, result.design.k, result.design.lam))
            try:
                zero_result = constructions.ferrero_with_zero(
                    group, tuple(sorted(maps, key=lambda e: e.table)))
            except CheckFailure:
                continue  # mixed case: the zero-augmented family is not an sdf
            triples.add((zero_result.design.v, zero_result.design.k, zero_result.design.lam))
    lines = [f"{v} {k} {lam}" for v, k, lam in sorted(triples)]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _report_error(exc: Exception, fmt: str) -> None:
    if fmt == "json":
        doc = {"error": type(exc).__name__, "message": str(exc)}
        condition = getattr(exc, "condition", None)
        if condition is not None:
            doc["condition"] = condition
            doc["witness"] = getattr(exc, "witness", {})
        sys.stderr.write(dump_json(doc))
    else:
        condition = getattr(exc, "condition", None)
        if condition is not None:
            sys.stderr.write(f"check failed: condition {condition!r}, "
                             f"witness {getattr(exc, 'witness', {})!r}\n")
        else:
            sys.stderr.write(f"error: {exc}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    fmt = getattr(args, "format", "text")
    try:
        if args.command == "construct":
            return run_construct(args)
        if args.command == "verify-sdf":
            return run_verify_sdf(args)
        if args.command == "verify-design":
            return run_verify_design(args)
        if args.command == "analyze":
            return run_analyze(args)
        if args.command == "catalog":
            return run_catalog(args)
        raise UsageError(f"unknown command {args.command!r}")
    except CheckFailure as exc:
        _report_error(exc, fmt)
        return 2
    except (SdfamError, OSError) as exc:
        _report_error(exc, fmt)
        return 1


def entry() -> None:
    raise SystemExit(main())
