from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import support
from sdfam.cli import _unit_subgroups, main
from sdfam.specs import dump_json

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(dump_json(doc) if isinstance(doc, (dict, list)) else doc)
        return str(path)

    return tmp_path, write


def test_construct_ferrero_text_design(files, capsys):
    tmp, write = files
    group = write("z7.json", {"kind": "cyclic", "n": 7})
    autos = write("phi3.json", [{"kind": "scalar", "c": 2}])
    out = str(tmp / "design.txt")
    code = main(["construct", "--method", "ferrero", "--group", group,
                 "--autos", autos, "--dev", "--format", "text", "--output", out])
    assert code == 0
    lines = (tmp / "design.txt").read_text().splitlines()
    assert lines[0] == "7 3 2 14"
    assert len(lines) == 15
    cert_line = capsys.readouterr().out
    assert "lambda=2" in cert_line


def test_construct_segments_rejection_exit_code(files, capsys):
    tmp, write = files
    group = write("z5.json", {"kind": "cyclic", "n": 5})
    maps = write("s013.json", [{"kind": "scalar", "c": 0},
                               {"kind": "scalar", "c": 1},
                               {"kind": "scalar", "c": 3}])
    code = main(["construct", "--method", "segments", "--group", group,
                 "--set", maps, "--format", "json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["condition"] == "|⟨S*⟩| odd"
    assert err["witness"] == {"order": 4}


def test_construct_orbit_text_design(files, capsys):
    tmp, write = files
    group = write("z7.json", {"kind": "cyclic", "n": 7})
    maps = write("s0124.json", [{"kind": "scalar", "c": c} for c in (0, 1, 2, 4)])
    out = str(tmp / "d.txt")
    code = main(["construct", "--method", "orbit", "--group", group,
                 "--set", maps, "--dev", "--format", "text", "--output", out])
    assert code == 0
    assert (tmp / "d.txt").read_text().splitlines()[0] == "7 4 4 14"


def test_construct_json_document_contains_everything(files, capsys):
    tmp, write = files
    group = write("ea9.json", {"kind": "elementary_abelian", "p": 3, "k": 2})
    autos = write("scalars.json", [{"kind": "scalar", "c": 2}])
    code = main(["construct", "--method", "ferrero-zero", "--group", group,
                 "--autos", autos])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "ferrero-zero"
    assert doc["case"] == "subgroup-case"
    assert doc["certificate"]["lambda"] == 1
    assert doc["design"]["b"] == 12
    assert doc["family"]["group"] == {"kind": "elementary_abelian", "p": 3, "k": 2}


def test_construct_transnormal_reports_double_transitivity(files, capsys):
    tmp, write = files
    group = write("ea9.json", {"kind": "elementary_abelian", "p": 3, "k": 2})
    maps = write("s.json", [{"kind": "scalar", "c": c} for c in (0, 1, 2)])
    psi = write("psi.json", [{"kind": "matrix", "entries": [[1, 1], [0, 1]]},
                             {"kind": "matrix", "entries": [[0, 2], [1, 0]]}])
    code = main(["construct", "--method", "transnormal", "--group", group,
                 "--set", maps, "--psi", psi])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["doubly_transitive"] is True
    assert doc["design"]["v"] == 9 and doc["design"]["lambda"] == 1


def test_construct_nearfield(files, capsys):
    tmp, write = files
    field = write("gf9.json", {"kind": "field", "p": 3, "n": 2, "modulus": [1, 0, 1]})
    elems = write("t.json", [[1, 0], [2, 0], [0, 1], [0, 2]])
    code = main(["construct", "--method", "nearfield", "--field", field,
                 "--elements", elems, "--dev"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["lambda"] == 3
    assert doc["design"]["b"] == 18


def test_verify_sdf_pass_and_parse_error(files, capsys):
    tmp, write = files
    family = write("fam.json", {
        "group": {"kind": "cyclic", "n": 7},
        "entries": [{"label": x, "block": sorted({x, (2 * x) % 7, (4 * x) % 7})}
                    for x in range(1, 7)],
    })
    assert main(["verify-sdf", "--family", family]) == 0
    out = capsys.readouterr().out
    assert "v=7 k=3 mu=1 nu=3 lambda_prime=6 lambda=2" in out

    bad = tmp / "bad.json"
    bad.write_text("{not json")
    assert main(["verify-sdf", "--family", str(bad)]) == 1


@pytest.mark.parametrize("labels", [[True], [True, 1]], ids=["true", "true-beside-one"])
def test_boolean_family_labels_exit_one(files, capsys, labels):
    tmp, write = files
    blocks = [[0, 1, 3], [0, 2, 3]]
    family = write("fam.json", {
        "group": {"kind": "cyclic", "n": 7},
        "entries": [{"label": label, "block": block} for label, block in zip(labels, blocks)],
    })
    assert main(["verify-sdf", "--family", family]) == 1
    err = capsys.readouterr().err
    assert "labels must be integers or strings" in err and "Traceback" not in err


def test_verify_sdf_failure_exit_code(files, capsys):
    tmp, write = files
    family = write("fam.json", {
        "group": {"kind": "cyclic", "n": 7},
        "entries": [{"label": 1, "block": [0, 1]}, {"label": 2, "block": [0, 1, 2]}],
    })
    assert main(["verify-sdf", "--family", family, "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["condition"] == "block-size"


def test_verify_design_paths(files, capsys):
    tmp, write = files
    good = write("d.json", {"v": 3, "k": 2, "lambda": 1,
                            "blocks": [[0, 1], [0, 2], [1, 2]]})
    assert main(["verify-design", "--design", good]) == 0
    assert "v=3 k=2 lambda=1 b=3" in capsys.readouterr().out

    dup = write("dup.json", {"v": 3, "blocks": [[0, 1], [0, 1], [0, 2], [1, 2]]})
    assert main(["verify-design", "--design", dup]) == 2
    assert "repeated-block" in capsys.readouterr().err

    text = write("d.txt", "3 2 1 3\n0 1\n0 2\n1 2\n")
    assert main(["verify-design", "--design", text]) == 0
    capsys.readouterr()

    mismatched = write("lied.json", {"v": 3, "k": 2, "lambda": 2,
                                     "blocks": [[0, 1], [0, 2], [1, 2]]})
    assert main(["verify-design", "--design", mismatched]) == 1


def test_analyze_reports(files, capsys):
    tmp, write = files
    group = write("z7.json", {"kind": "cyclic", "n": 7})
    autos = write("gen.json", [{"kind": "scalar", "c": 3}])
    assert main(["analyze", "--group", group, "--autos", autos]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"order": 6, "fpf": True, "fpf_witness": None, "cyclic": True,
                   "center_order": 6, "quotient_order": 1, "member": True}

    z8 = write("z8.json", {"kind": "cyclic", "n": 8})
    assert main(["analyze", "--group", z8, "--autos", autos]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fpf"] is False and doc["fpf_witness"]["x"] == 4

    ea9 = write("ea9.json", {"kind": "elementary_abelian", "p": 3, "k": 2})
    quats = write("quat.json", [{"kind": "matrix", "entries": [[0, 2], [1, 0]]},
                                {"kind": "matrix", "entries": [[1, 1], [1, 2]]}])
    assert main(["analyze", "--group", ea9, "--autos", quats]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 8 and doc["fpf"] is True and doc["cyclic"] is False
    assert doc["center_order"] == 2 and doc["quotient_order"] == 4
    assert doc["member"] is False


def test_catalog_contents_and_determinism(files):
    tmp, write = files
    out1 = str(tmp / "cat1.txt")
    out2 = str(tmp / "cat2.txt")
    assert main(["catalog", "--max-order", "7", "--output", out1]) == 0
    lines = (tmp / "cat1.txt").read_text().splitlines()
    assert "7 3 2" in lines
    assert "5 2 1" in lines
    assert "3 2 1" in lines
    assert lines == sorted(lines, key=lambda s: [int(x) for x in s.split()])

    assert main(["catalog", "--max-order", "7", "--output", out2]) == 0
    assert (tmp / "cat1.txt").read_bytes() == (tmp / "cat2.txt").read_bytes()


def test_catalog_cap(files):
    tmp, write = files
    assert main(["catalog", "--max-order", "100", "--output", str(tmp / "x.txt")]) == 1


def test_catalog_entries_reverify(files, capsys):
    tmp, write = files
    out = str(tmp / "cat.txt")
    assert main(["catalog", "--max-order", "13", "--output", out]) == 0
    # spot-check: rebuild the (13, 6, 5) entry and verify it end to end
    lines = (tmp / "cat.txt").read_text().splitlines()
    assert "13 6 5" in lines
    group = write("z13.json", {"kind": "cyclic", "n": 13})
    autos = write("sq.json", [{"kind": "scalar", "c": 4}])
    design_path = str(tmp / "d13.txt")
    assert main(["construct", "--method", "ferrero", "--group", group,
                 "--autos", autos, "--dev", "--format", "text",
                 "--output", design_path]) == 0
    capsys.readouterr()
    assert main(["verify-design", "--design", design_path]) == 0
    assert "v=13 k=6 lambda=5" in capsys.readouterr().out


def test_usage_errors_exit_one(files, capsys):
    tmp, write = files
    group = write("z7.json", {"kind": "cyclic", "n": 7})
    assert main(["construct", "--method", "ferrero", "--group", group]) == 1
    assert main(["construct", "--method", "warp", "--group", group]) == 1
    assert main(["verify-sdf", "--family", str(tmp / "missing.json")]) == 1


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "n": "abc"},
    {"kind": "cyclic", "n": None},
    {"kind": "elementary_abelian", "p": 3, "k": True},
], ids=["n-string", "n-null", "k-bool"])
def test_non_integer_group_fields_exit_one(files, capsys, spec):
    tmp, write = files
    group = write("bad.json", spec)
    autos = write("autos.json", [{"kind": "scalar", "c": 2}])
    assert main(["analyze", "--group", group, "--autos", autos]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer" in err
    assert main(["construct", "--method", "ferrero", "--group", group,
                 "--autos", autos, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "SpecFormatError" and "must be an integer" in doc["message"]


def test_unit_subgroups_match_the_naive_closure():
    for n in range(2, 49):
        assert _unit_subgroups(n) == support.naive_unit_subgroups(n), n


@pytest.mark.parametrize("name, text, argv, message", [
    ("group.json", dump_json({"kind": "cyclic", "n": 1500}),
     ["analyze", "--group", "group.json", "--autos", "autos.json"],
     "group order 1500 exceeds the cap 512"),
    ("group.json", dump_json({"kind": "elementary_abelian", "p": 2305843009213693951, "k": 1}),
     ["analyze", "--group", "group.json", "--autos", "autos.json"],
     "group order 2305843009213693951 exceeds the cap 512"),
    ("group.json", dump_json({"kind": "field", "p": 2, "n": 40}),
     ["analyze", "--group", "group.json", "--autos", "autos.json"],
     "group order 2^40 exceeds the cap 512"),
    ("design.txt", "4000 2 1 1\n0 1\n",
     ["verify-design", "--design", "design.txt"],
     "design order 4000 exceeds the cap 512"),
], ids=["cyclic-1500", "elementary-abelian-huge-prime", "field-2^40", "design-v-4000"])
def test_caps_are_checked_before_the_work_they_bound(tmp_path, name, text, argv, message):
    # A subprocess with a timeout, so that a lost cap check fails instead of
    # holding the suite for seconds or exhausting memory.
    (tmp_path / name).write_text(text)
    (tmp_path / "autos.json").write_text(dump_json([{"kind": "scalar", "c": 1}]))
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "sdfam", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr == f"error: {message}\n"


def _analyze_error(files, capsys, spec):
    """analyze on a group spec: the exit code and stderr, which must hold no
    traceback (main would raise, not return, on an uncaught exception)."""
    _, write = files
    group = write("group.json", spec)
    autos = write("autos.json", [{"kind": "scalar", "c": 1}])
    code = main(["analyze", "--group", group, "--autos", autos])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_ragged_cayley_table_exits_one(files, capsys):
    code, err = _analyze_error(files, capsys, {"kind": "cayley", "table": [[0, 1], [1]]})
    assert (code, err) == (1, "error: addition table must be 2x2\n")


def test_cayley_entry_beyond_int64_exits_one(files, capsys):
    code, err = _analyze_error(files, capsys, {"kind": "cayley", "table": [[0, 1], [1, 10 ** 30]]})
    assert (code, err) == (1, "error: table entries must lie in [0,2)\n")


def test_cayley_table_over_the_cap_reports_the_cap_before_the_format(files, capsys):
    table = [[0] * 600 for _ in range(600)]
    table[-1][-1] = "x"
    code, err = _analyze_error(files, capsys, {"kind": "cayley", "table": table})
    assert (code, err) == (1, "error: group order 600 exceeds the cap 512\n")


@pytest.mark.parametrize("names, message", [
    (5, "'names' must be a list"),
    ("abc", "'names' must be a list"),
    (["a", "b"], "name table length must equal the group order"),
], ids=["int", "string", "wrong-length"])
def test_malformed_cayley_names_exit_one(files, capsys, names, message):
    spec = {"kind": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": names}
    code, err = _analyze_error(files, capsys, spec)
    assert code == 1 and err.startswith("error: ") and err.rstrip().endswith(message)


def test_cayley_names_of_the_right_length_are_accepted(files, capsys):
    spec = {"kind": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["e", "a", "b"]}
    assert _analyze_error(files, capsys, spec) == (0, "")


@pytest.mark.parametrize("elements", [
    [1, 2],
    [["a", 1], [1, 0]],
    [[1.5, 0], [1, 0]],
    [[True, 0], [1, 0]],
    "5",
], ids=["flat", "string-entry", "float-entry", "bool-entry", "not-a-list"])
def test_malformed_nearfield_elements_exit_one(files, capsys, elements):
    _, write = files
    field = write("gf9.json", {"kind": "field", "p": 3, "n": 2, "modulus": [1, 0, 1]})
    elems = write("t.json", elements)
    code = main(["construct", "--method", "nearfield", "--field", field, "--elements", elems,
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().err)
    assert code == 1 and doc["error"] == "SpecFormatError"
    assert "integer coefficient vectors" in doc["message"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "bad.json", "--autos", "autos.json"],
    ["verify-sdf", "--family", "bad.json"],
    ["verify-design", "--design", "bad.json"],
], ids=["group", "family", "design"])
def test_non_utf8_input_files_exit_one(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{\x00}\x00")
    (tmp_path / "autos.json").write_text(dump_json([{"kind": "scalar", "c": 1}]))
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: bad.json: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("field", [[1], {"kind": "cyclic", "n": 9}], ids=["list", "cyclic"])
def test_nearfield_field_file_must_hold_a_field_spec(files, capsys, field):
    _, write = files
    code = main(["construct", "--method", "nearfield", "--field", write("f.json", field),
                 "--elements", write("t.json", [[1, 0], [0, 1]])])
    doc = json.loads(capsys.readouterr().err)
    assert (code, doc["message"]) == (1, "--field must point to a spec of kind 'field'")
