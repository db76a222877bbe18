"""Golden CLI outputs: exit code, stdout, stderr and output file, byte for byte.

Each case runs ``cli.main`` in-process inside a fresh directory that holds
the input files of ``INPUTS``, so no message depends on where the test runs.
The expected outputs live in ``tests/golden/<case>.json``.  After an
intended output change, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from sdfam import Design
from sdfam.cli import main
from sdfam.specs import dump_json

GOLDEN = Path(__file__).parent / "golden"
OUTPUT = "out.txt"


def _scalars(*cs):
    return [{"kind": "scalar", "c": c} for c in cs]


INPUTS = {
    "z7.json": {"kind": "cyclic", "n": 7},
    "z8.json": {"kind": "cyclic", "n": 8},
    "z9.json": {"kind": "cyclic", "n": 9},
    "z13.json": {"kind": "cyclic", "n": 13},
    "ea9.json": {"kind": "elementary_abelian", "p": 3, "k": 2},
    "gf9.json": {"kind": "field", "p": 3, "n": 2, "modulus": [1, 0, 1]},
    "gf9-elements.json": [[1, 0], [2, 0], [0, 1], [0, 2]],
    "gen2.json": _scalars(2),
    "gen3.json": _scalars(3),
    "gen8.json": _scalars(8),
    "psi9.json": [{"kind": "matrix", "entries": [[1, 1], [0, 1]]},
                  {"kind": "matrix", "entries": [[0, 2], [1, 0]]}],
    "s0124.json": _scalars(0, 1, 2, 4),
    "s012.json": _scalars(0, 1, 2),
    "s014.json": _scalars(0, 1, 4),
    "s01.json": _scalars(0, 1),
    "s14.json": _scalars(1, 4),
    "s015.json": _scalars(0, 1, 5),
    "s13.json": _scalars(1, 3),
    "family-z7.json": {"group": {"kind": "cyclic", "n": 7},
                       "entries": [{"label": x, "block": sorted({x, 2 * x % 7, 4 * x % 7})}
                                   for x in range(1, 7)]},
    "family-sizes.json": {"group": {"kind": "cyclic", "n": 7},
                          "entries": [{"label": 1, "block": [0, 1]},
                                      {"label": 2, "block": [0, 1, 2]}]},
    "family-counts.json": {"group": {"kind": "cyclic", "n": 7},
                           "entries": [{"label": 1, "block": [0, 1, 2]}]},
    "fano.txt": "7 3 1 7\n0 1 3\n1 2 4\n2 3 5\n3 4 6\n0 4 5\n1 5 6\n0 2 6\n",
    "fano-json.json": {"v": 7, "k": 3, "lambda": 1,
                       "blocks": [[0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6],
                                  [0, 4, 5], [1, 5, 6], [0, 2, 6]]},
    "fano-minus-block.txt": "7 3 1 6\n0 1 3\n1 2 4\n2 3 5\n3 4 6\n0 4 5\n1 5 6\n",
    "repeated.json": {"v": 3, "blocks": [[0, 1], [0, 1], [0, 2], [1, 2]]},
}


def _construct(method, fmt, **files):
    argv = ["construct", "--method", method]
    for flag, name in files.items():
        argv += [f"--{flag}", name]
    argv += ["--dev", "--format", fmt]
    return argv + (["--output", OUTPUT] if fmt == "text" else [])


CONSTRUCTS = {
    "ferrero": dict(group="z13.json", autos="gen3.json"),
    "ferrero-zero": dict(group="ea9.json", autos="gen2.json"),
    "ferrero-zero-z7": dict(group="z7.json", autos="gen2.json"),
    "orbit": dict(group="z7.json", set="s0124.json"),
    "segments": dict(group="z7.json", set="s014.json"),
    "segments-order6": dict(group="z7.json", autos="gen3.json"),
    "transnormal": dict(group="ea9.json", set="s012.json", psi="psi9.json"),
    "nearfield": dict(field="gf9.json", elements="gf9-elements.json"),
}

# One failing input per hypothesis condition of the orbit and segment builders.
REJECTS = {
    "fpf": ("orbit", dict(group="z8.json", set="s13.json")),
    "phi-fpf": ("ferrero", dict(group="z8.json", autos="gen3.json")),
    "uniform-stabilizer": ("ferrero-zero", dict(group="z9.json", autos="gen8.json")),
    "zero-one": ("segments", dict(group="z7.json", set="s14.json")),
    "size": ("segments", dict(group="z7.json", set="s01.json")),
    "one-minus": ("segments", dict(group="z7.json", set="s012.json")),
    "closure-fpf": ("segments", dict(group="z9.json", set="s015.json")),
}

CASES = {}
for _name, _files in CONSTRUCTS.items():
    _method = _name[:-3] if _name.endswith("-z7") else _name
    for _fmt in ("text", "json"):
        CASES[f"construct-{_name}-{_fmt}"] = _construct(_method, _fmt, **_files)
for _name, (_method, _files) in REJECTS.items():
    for _fmt in ("text", "json"):
        CASES[f"reject-{_name}-{_fmt}"] = _construct(_method, _fmt, **_files)
for _fmt in ("text", "json"):
    CASES[f"verify-sdf-pass-{_fmt}"] = ["verify-sdf", "--family", "family-z7.json",
                                        "--format", _fmt]
    CASES[f"verify-sdf-block-size-{_fmt}"] = ["verify-sdf", "--family", "family-sizes.json",
                                              "--format", _fmt]
    CASES[f"verify-sdf-difference-count-{_fmt}"] = ["verify-sdf", "--family",
                                                    "family-counts.json", "--format", _fmt]
    CASES[f"verify-design-pass-{_fmt}"] = ["verify-design", "--design", "fano.txt",
                                           "--format", _fmt]
    CASES[f"verify-design-coverage-{_fmt}"] = ["verify-design", "--design",
                                               "fano-minus-block.txt", "--format", _fmt]
    CASES[f"verify-design-repeated-{_fmt}"] = ["verify-design", "--design", "repeated.json",
                                               "--format", _fmt]
CASES["verify-design-pass-json-input"] = ["verify-design", "--design", "fano-json.json",
                                          "--output", OUTPUT]
CASES["analyze-not-fpf"] = ["analyze", "--group", "z8.json", "--autos", "gen3.json"]
CASES["catalog-32"] = ["catalog", "--max-order", "32", "--output", OUTPUT]


def run_case(argv, workdir: Path) -> dict:
    """Run one CLI call in workdir and return everything it produced."""
    for name, doc in INPUTS.items():
        (workdir / name).write_text(doc if isinstance(doc, str) else dump_json(doc),
                                    encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    output = workdir / OUTPUT
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "output": output.read_bytes().decode("utf-8") if output.exists() else None}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    want = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[case], tmp_path) == want


@pytest.mark.parametrize("case", ["construct-ferrero-json", "construct-ferrero-text",
                                  "construct-transnormal-json", "verify-design-pass-json",
                                  "verify-design-pass-text", "verify-design-pass-json-input"])
def test_build_verify_and_emit_never_make_the_tuple_view(case, tmp_path, monkeypatch):
    def refuse(design):
        raise AssertionError("Design.blocks was read")

    monkeypatch.setattr(Design, "blocks", property(refuse))
    want = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[case], tmp_path) == want


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, Path(tmp))
        (GOLDEN / f"{case}.json").write_text(
            json.dumps(got, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES)} golden files to {GOLDEN}\n")
