"""Tests of the benchmark itself: seeded inputs, the oracle, and the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sdfam import Design  # noqa: E402
from worker import judge  # noqa: E402


def _tree(path: str) -> dict[str, bytes]:
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    made = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl = workloads.WORKLOADS[name](seed, str(tmp_path / sub))
        ids = [op.id for r in range(10) for op in wl.round(r)]
        made.append((ids, _tree(str(tmp_path / sub))))
    assert made[0] == made[1]
    assert made[0][0] != made[2][0]


def _verdicts(wl, rounds: int) -> list[tuple[str, str, str]]:
    out = []
    for r in range(rounds):
        for op in wl.round(r):
            try:
                result, error = op.run(), None
            except Exception as exc:
                result, error = None, exc
            out.append((op.id, *judge(op, result, error)))
    return out


def test_same_seed_gives_identical_verdicts(tmp_path):
    first = _verdicts(workloads.CliRoundtrip(3, str(tmp_path / "a")), 1)
    second = _verdicts(workloads.CliRoundtrip(3, str(tmp_path / "b")), 1)
    strip = [(i, v, reason.replace(str(tmp_path / "a"), "")) for i, v, reason in first]
    assert strip == [(i, v, reason.replace(str(tmp_path / "b"), "")) for i, v, reason in second]
    assert {v for _, v, _ in first} == {"pass", "known-defect"}
    assert sum(v == "known-defect" for _, v, _ in first) == len(workloads.KNOWN_DEFECTS)


def _small_ferrero():
    op = workloads.cyclic_op(31, 3, 5, "ferrero")
    return op, op.run()


def test_oracle_passes_a_correct_design():
    op, res = _small_ferrero()
    assert judge(op, res, None) == ("pass", "")


def test_oracle_fails_a_design_with_one_block_removed():
    op, res = _small_ferrero()
    d = res.design
    broken = dataclasses.replace(res, design=Design(d.v, d.k, d.lam, d.blocks[1:]))
    verdict, reason = judge(op, broken, None)
    assert verdict == "fail" and "b*k(k-1)" in reason


def test_oracle_fails_a_certificate_with_a_wrong_lambda():
    op, res = _small_ferrero()
    cert = res.certificate
    wrong = dataclasses.replace(cert, lam=cert.lam + 1,
                                lam_prime=(cert.lam + 1) * cert.mu * cert.nu)
    verdict, reason = judge(op, dataclasses.replace(res, certificate=wrong), None)
    assert verdict == "fail" and "lambda" in reason


def test_pair_coverage_catches_a_swapped_point():
    blocks = oracle.develop([[1, 2, 4]], oracle.cyclic_add(7)).tolist()
    oracle.check_design(7, 3, 1, blocks)
    blocks[0][2] = next(x for x in range(7) if x not in blocks[0])
    with pytest.raises(oracle.Mismatch):
        oracle.check_design(7, 3, 1, blocks)


def test_known_defect_outcomes():
    op = workloads.cli_op("x", [], 1, known_defect="uncaught ValueError")
    outcome = workloads.CliOutcome
    assert judge(op, outcome(None, "ValueError", "", ""), None)[0] == "known-defect"
    assert judge(op, outcome(1, None, "", "error: bad n\n"), None)[0] == "pass"
    assert judge(op, outcome(None, "TypeError", "", ""), None)[0] == "fail"
    assert judge(op, outcome(0, None, "", ""), None)[0] == "fail"


def test_tail_is_highest_percentile_with_ten_above():
    q, value = run.tail([float(i) for i in range(1, 31)])
    assert (q, value) == (66, 20.0)
    assert sum(t > value for t in range(1, 31)) >= 10


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.UNITS.items())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


TRACED = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import spans
tracer = spans.install()
import workloads
from sdfam import cli, constructions
assert hasattr(constructions.equivalence_classes, "__wrapped__")
assert hasattr(cli.verify_bibd, "__wrapped__") and hasattr(cli.closure, "__wrapped__")
for c, method in ((5, "ferrero_with_zero"), (25, "ferrero")):
    with tracer.op_span():
        workloads.cyclic_op(31, 3, c, method).run()
m = tracer.metrics()
modules = sum(m[f"{{mod}}.self_s"] for mod in spans.MODULES)
assert abs(modules + m["bench.unattributed_s"] - m["bench.traced_wall_s"]) < 1e-6
assert m["families.classes_calls"] == 2 and m["groups.builds"] == 1  # per op
assert m["families.translate_scans"] > 0 and m["endos.compositions"] > 0
print("ok")
"""


def test_traced_run_wraps_every_namespace_and_accounts_for_wall_time():
    code = TRACED.format(src=os.path.join(ROOT, "src"), bench=BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit-cyclic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
