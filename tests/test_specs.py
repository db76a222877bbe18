from __future__ import annotations

import json

import pytest

from sdfam import SpecFormatError, verify_bibd, verify_sdf
from sdfam.specs import (
    design_to_doc,
    design_to_text,
    dump_json,
    family_to_doc,
    load_design_file,
    load_json,
    parse_design_doc,
    parse_design_text,
    parse_endo,
    parse_endo_list,
    parse_family,
    parse_group,
)


def test_parse_cyclic_group():
    parsed = parse_group({"kind": "cyclic", "n": 7})
    assert parsed.group.order == 7 and parsed.field is None


def test_parse_elementary_abelian_group():
    parsed = parse_group({"kind": "elementary_abelian", "p": 3, "k": 2})
    assert parsed.group.order == 9


def test_parse_product_group():
    parsed = parse_group({"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]})
    assert parsed.group.order == 6


def test_parse_cayley_group():
    parsed = parse_group({"kind": "cayley", "table": [[0, 1], [1, 0]]})
    assert parsed.group.order == 2


def test_parse_field_group_carries_field():
    parsed = parse_group({"kind": "field", "p": 3, "n": 2, "modulus": [1, 0, 1]})
    assert parsed.group.order == 9
    assert parsed.field is not None and parsed.field.modulus == (1, 0, 1)


def test_unknown_kind_is_a_spec_error():
    with pytest.raises(SpecFormatError):
        parse_group({"kind": "octonion", "n": 8})
    with pytest.raises(SpecFormatError):
        parse_group({"n": 8})


@pytest.mark.parametrize("doc", [
    {"kind": "cyclic", "n": 7.0},
    {"kind": "elementary_abelian", "p": "3", "k": 2},
    {"kind": "cayley", "table": [[0, "1"], [1, 0]]},
    {"kind": "cayley", "table": [[0, 1], [1, False]]},
    {"kind": "cayley", "table": [0, 1]},
    {"kind": "field", "p": 3, "n": 2, "modulus": "101"},
    {"kind": "field", "p": 3, "n": None},
])
def test_non_integer_group_fields_are_spec_errors(doc):
    with pytest.raises(SpecFormatError, match="must be"):
        parse_group(doc)


def test_field_modulus_null_means_default():
    parsed = parse_group({"kind": "field", "p": 3, "n": 2, "modulus": None})
    assert parsed.field.modulus == parse_group({"kind": "field", "p": 3, "n": 2}).field.modulus


@pytest.mark.parametrize("doc", [
    {"kind": "scalar", "c": True},
    {"kind": "table", "map": [0, 2, 4, 6, 1, 3, "5"]},
    {"kind": "matrix", "entries": [2]},
])
def test_non_integer_endo_fields_are_spec_errors(doc):
    with pytest.raises(SpecFormatError, match="must be"):
        parse_endo(doc, parse_group({"kind": "cyclic", "n": 7}))


def test_field_mult_element_must_be_integers():
    gf9 = parse_group({"kind": "field", "p": 3, "n": 2})
    with pytest.raises(SpecFormatError, match="must be"):
        parse_endo({"kind": "field_mult", "element": [0, 1.0]}, gf9)


def test_non_integer_family_and_design_fields_are_spec_errors():
    with pytest.raises(SpecFormatError, match="must be"):
        parse_family({"group": {"kind": "cyclic", "n": 7},
                      "entries": [{"label": 1, "block": [1, "a"]}]})
    for doc in ({"v": "abc", "blocks": [[0, 1]]}, {"v": 3, "blocks": [0, 1]},
                {"v": 3, "blocks": [[0, 1]], "lambda": "1"}):
        with pytest.raises(SpecFormatError, match="must be"):
            parse_design_doc(doc)


def test_parse_endo_kinds():
    parsed = parse_group({"kind": "cyclic", "n": 7})
    doubling = parse_endo({"kind": "scalar", "c": 2}, parsed)
    assert doubling.table == tuple((2 * x) % 7 for x in range(7))
    raw = parse_endo({"kind": "table", "map": list(doubling.table)}, parsed)
    assert raw.table == doubling.table

    ea = parse_group({"kind": "elementary_abelian", "p": 3, "k": 2})
    m = parse_endo({"kind": "matrix", "entries": [[0, 2], [1, 0]]}, ea)
    assert m.order() == 4

    f = parse_group({"kind": "field", "p": 3, "n": 2, "modulus": [1, 0, 1]})
    e = parse_endo({"kind": "field_mult", "element": [0, 1]}, f)
    assert e.order() == 4


def test_field_mult_requires_field_context():
    parsed = parse_group({"kind": "cyclic", "n": 7})
    with pytest.raises(SpecFormatError):
        parse_endo({"kind": "field_mult", "element": [2]}, parsed)


def test_parse_endo_list_rejects_non_lists():
    parsed = parse_group({"kind": "cyclic", "n": 7})
    with pytest.raises(SpecFormatError):
        parse_endo_list({"kind": "scalar", "c": 2}, parsed)


def test_family_round_trip(tmp_path):
    doc = {
        "group": {"kind": "cyclic", "n": 7},
        "entries": [{"label": x, "block": sorted({0, x, (2 * x) % 7, (4 * x) % 7})}
                    for x in range(1, 7)],
    }
    family, spec = parse_family(doc)
    cert = verify_sdf(family)
    assert cert.params == (7, 4, 4)
    again = family_to_doc(family, spec)
    assert again == doc


def test_family_requires_entries():
    with pytest.raises(SpecFormatError):
        parse_family({"group": {"kind": "cyclic", "n": 7}, "entries": []})


def test_design_text_round_trip():
    design = verify_bibd(3, [(0, 1), (0, 2), (1, 2)])
    text = design_to_text(design)
    assert text.splitlines()[0] == "3 2 1 3"
    v, blocks, declared = parse_design_text(text)
    assert v == 3 and declared == {"k": 2, "lambda": 1, "b": 3}
    assert verify_bibd(v, blocks).blocks == design.blocks


def test_design_text_is_byte_stable():
    design = verify_bibd(3, [(1, 2), (0, 2), (0, 1)])
    assert design_to_text(design) == design_to_text(design)
    assert design_to_text(design) == "3 2 1 3\n0 1\n0 2\n1 2\n"


def test_design_text_header_validation():
    with pytest.raises(SpecFormatError) as err:
        parse_design_text("3 2 1\n0 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(SpecFormatError):
        parse_design_text("3 2 1 5\n0 1\n0 2\n1 2\n")


def test_design_json_and_text_sniffing(tmp_path):
    design = verify_bibd(3, [(0, 1), (0, 2), (1, 2)])
    json_path = tmp_path / "d.json"
    json_path.write_text(dump_json(design_to_doc(design)))
    text_path = tmp_path / "d.txt"
    text_path.write_text(design_to_text(design))
    for path in (json_path, text_path):
        v, blocks, declared = load_design_file(str(path))
        assert v == 3 and declared["k"] == 2 and len(blocks) == 3


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "cyclic", "n": }')
    with pytest.raises(SpecFormatError) as err:
        load_json(str(path))
    assert "line 1" in str(err.value) and "column" in str(err.value)


def test_dump_json_is_deterministic():
    doc = {"b": 1, "a": [3, 2, 1]}
    assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))
    assert dump_json(doc).startswith('{\n  "a"')
