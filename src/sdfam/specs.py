"""JSON and text interchange formats.

Group specs::

    {"kind": "cyclic", "n": 7}
    {"kind": "elementary_abelian", "p": 3, "k": 2}
    {"kind": "product", "factors": [<group spec>, ...]}
    {"kind": "cayley", "table": [[...], ...], "names": [...]?}
    {"kind": "field", "p": 3, "n": 2, "modulus": [1, 0, 1]?}   # additive group

Endomorphism specs (an endo-set spec is a JSON list of these)::

    {"kind": "table", "map": [...]}
    {"kind": "scalar", "c": 2}
    {"kind": "matrix", "entries": [[...], ...]}
    {"kind": "field_mult", "element": [coeffs]}    # needs a field group spec

Family files carry a group spec plus labeled blocks; design files come in a
JSON form and a line-oriented text form ("v k lambda b" header, then one
sorted block per line) that is byte-stable under the deterministic ordering
used everywhere in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .endos import Endomorphism, field_mult_endo, make_endo, matrix_endo, scalar_endo
from .errors import InvalidParameterError, SpecFormatError
from .families import Design, LabeledFamily, SdfCertificate
from .fields import FiniteField, additive_group, build_field
from .groups import (
    FiniteGroup,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    build_from_cayley,
    check_order_cap,
)


@dataclass(frozen=True)
class ParsedGroup:
    group: FiniteGroup
    field: Optional[FiniteField]  # set when the spec kind is "field"
    spec: dict


def _need(doc: dict, key: str, where: str) -> Any:
    if not isinstance(doc, dict):
        raise SpecFormatError(where, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SpecFormatError(where, f"missing key {key!r}")
    return doc[key]


def _ints(value: Any, depth: int) -> bool:
    """Whether value is an int (depth 0) or a list of depth - 1 values.
    JSON booleans fail: their type is bool, a subclass of int."""
    if type(value) is not list:
        return depth == 0 and type(value) is int
    if depth == 1:
        return set(map(type, value)) <= {int}
    return depth > 1 and all(_ints(x, depth - 1) for x in value)


def _need_int(doc: dict, key: str, where: str, depth: int = 0) -> Any:
    """doc[key], which must be an integer or, for depth > 0, integers in
    lists nested depth deep (a vector for 1, a table for 2)."""
    value = _need(doc, key, where)
    if not _ints(value, depth):
        if depth == 0:
            raise SpecFormatError(where, f"{key!r} must be an integer, got {value!r}")
        raise SpecFormatError(where, f"{key!r} must be {'lists of ' * (depth - 1)}"
                                     "lists of integers")
    return value


def parse_group(doc: dict, where: str = "group spec") -> ParsedGroup:
    kind = _need(doc, "kind", where)
    if kind == "cyclic":
        return ParsedGroup(build_cyclic(_need_int(doc, "n", where)), None, dict(doc))
    if kind == "elementary_abelian":
        group = build_elementary_abelian(_need_int(doc, "p", where), _need_int(doc, "k", where))
        return ParsedGroup(group, None, dict(doc))
    if kind == "product":
        factors = _need(doc, "factors", where)
        if not isinstance(factors, list):
            raise SpecFormatError(where, "'factors' must be a list of group specs")
        groups = [parse_group(f, f"{where}.factors[{i}]").group for i, f in enumerate(factors)]
        return ParsedGroup(build_direct_product(groups), None, dict(doc))
    if kind == "cayley":
        table = _need(doc, "table", where)
        if type(table) is list:
            check_order_cap(len(table))
        table = _need_int(doc, "table", where, 2)
        names = doc.get("names")
        if names is not None and type(names) is not list:
            raise SpecFormatError(where, "'names' must be a list")
        if names is not None and len(names) != len(table):
            raise InvalidParameterError("name table length must equal the group order")
        return ParsedGroup(build_from_cayley(table), None, dict(doc))
    if kind == "field":
        modulus = None if doc.get("modulus") is None else _need_int(doc, "modulus", where, 1)
        field = build_field(_need_int(doc, "p", where), _need_int(doc, "n", where), modulus)
        return ParsedGroup(additive_group(field), field, dict(doc))
    raise SpecFormatError(where, f"unknown group kind {kind!r}")


def parse_endo(doc: dict, parsed: ParsedGroup, where: str = "endo spec") -> Endomorphism:
    kind = _need(doc, "kind", where)
    group = parsed.group
    if kind == "table":
        return make_endo(group, _need_int(doc, "map", where, 1))
    if kind == "scalar":
        return scalar_endo(group, _need_int(doc, "c", where))
    if kind == "matrix":
        return matrix_endo(group, _need_int(doc, "entries", where, 2))
    if kind == "field_mult":
        if parsed.field is None:
            raise SpecFormatError(where, "'field_mult' needs a group spec of kind 'field'")
        return field_mult_endo(parsed.field, tuple(_need_int(doc, "element", where, 1)))
    raise SpecFormatError(where, f"unknown endo kind {kind!r}")


def parse_field_elements(doc: Any, where: str = "elements") -> list[tuple[int, ...]]:
    """A JSON list of integer coefficient vectors."""
    if not _ints(doc, 2):
        raise SpecFormatError(where, "expected a JSON list of integer coefficient vectors")
    return [tuple(e) for e in doc]


def parse_endo_list(doc: Any, parsed: ParsedGroup, where: str = "endo set") -> list[Endomorphism]:
    if not isinstance(doc, list) or not doc:
        raise SpecFormatError(where, "expected a nonempty JSON list of endo specs")
    return [parse_endo(item, parsed, f"{where}[{i}]") for i, item in enumerate(doc)]


def parse_family(doc: dict, where: str = "family file") -> tuple[LabeledFamily, dict]:
    parsed = parse_group(_need(doc, "group", where), f"{where}.group")
    raw_entries = _need(doc, "entries", where)
    if not isinstance(raw_entries, list) or not raw_entries:
        raise SpecFormatError(where, "'entries' must be a nonempty list")
    entries = []
    for i, item in enumerate(raw_entries):
        label = _need(item, "label", f"{where}.entries[{i}]")
        block = _need_int(item, "block", f"{where}.entries[{i}]", 1)
        if type(label) not in (int, str):
            raise SpecFormatError(f"{where}.entries[{i}]", "labels must be integers or strings")
        entries.append((label, tuple(block)))
    return LabeledFamily(parsed.group, tuple(entries)), parsed.spec


def family_to_doc(family: LabeledFamily, group_spec: Optional[dict] = None) -> dict:
    if group_spec is None:
        group_spec = {"kind": "cayley", "table": family.group.array.tolist()}
    return {
        "group": group_spec,
        "entries": [{"label": label, "block": list(block)} for label, block in family.entries],
    }


def certificate_to_doc(cert: SdfCertificate) -> dict:
    return {"v": cert.v, "k": cert.k, "mu": cert.mu, "nu": cert.nu,
            "lambda_prime": cert.lam_prime, "lambda": cert.lam}


def design_to_doc(design: Design) -> dict:
    return {"v": design.v, "k": design.k, "lambda": design.lam,
            "b": len(design.rows), "blocks": design.rows.tolist()}


def parse_design_doc(doc: dict, where: str = "design file") -> tuple[int, list, dict]:
    """Returns (v, raw block list, declared parameters for cross-checking)."""
    v = _need_int(doc, "v", where)
    blocks = _need_int(doc, "blocks", where, 2)
    declared = {key: _need_int(doc, key, where) for key in ("k", "lambda", "b") if key in doc}
    return v, [list(b) for b in blocks], declared


def design_to_text(design: Design) -> str:
    lines = [f"{design.v} {design.k} {design.lam} {len(design.rows)}"]
    lines.extend(" ".join(map(str, row)) for row in design.rows.tolist())
    return "\n".join(lines) + "\n"


def parse_design_text(text: str, where: str = "design file") -> tuple[int, list, dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SpecFormatError(where, "empty design file")
    header = lines[0].split()
    if len(header) != 4:
        raise SpecFormatError(where, "line 1: header must be 'v k lambda b'")
    try:
        v, k, lam, b = (int(x) for x in header)
    except ValueError:
        raise SpecFormatError(where, "line 1: header fields must be integers") from None
    blocks = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            blocks.append([int(x) for x in line.split()])
        except ValueError:
            raise SpecFormatError(where, f"line {i}: blocks must be space-separated integers") from None
    if len(blocks) != b:
        raise SpecFormatError(where, f"header declares {b} blocks, file has {len(blocks)}")
    return v, blocks, {"k": k, "lambda": lam, "b": b}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SpecFormatError(path, f"not UTF-8 text ({exc.reason})") from None


def load_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_design_file(path: str) -> tuple[int, list, dict]:
    """Accept either the JSON or the text design format, sniffed by content."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        return parse_design_doc(doc, path)
    return parse_design_text(text, path)


def dump_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
