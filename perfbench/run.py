"""Run one sdfam benchmark workload and print its metrics.

    python3 perfbench/run.py --workload orbit-cyclic --seed 1 --seconds 30 --trace 0

Workloads: orbit-cyclic, field-transitive, cli-roundtrip (see README.md).
Each runs in its own single-threaded worker process, started from the root
of a source checkout; sdfam is imported from its src/ directory.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups, each in a fresh process), ops_per_s (ops per second of op time),
op_p50_s, op_tail_s and peak_rss_mb. --trace 1 runs the workload's fixed
number of trace rounds untraced, then the same rounds with timing wrappers
installed, and reports the per-layer metrics, each per op run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Ops on inputs recorded as known defects
count as attempted, not failed, as long as they fail in the recorded way;
they show in the error rate printed above that line. The exit code is 1
when any other op fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("orbit-cyclic", "field-transitive", "cli-roundtrip")
SETUP_RUNS = 9
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mb": "MB"}
# One worker may not outlast this; a run must end within 180 s in all.
WORKER_TIMEOUT = 160


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten ops above it, and its
    value by nearest rank."""
    s, n = sorted(times), len(times)
    q = max(0, math.floor(100 * (n - 10) / n))
    return q, s[max(0, math.ceil(q * n / 100) - 1)]


def worker(args, mode: str, timeout: float) -> dict:
    path = os.path.join(OUT, f"worker-{os.getpid()}-{mode}.json")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--result", path,
           "--mode", mode]
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=timeout)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(path)


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "sdfam")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "sdfam_commit": commit, "sdfam_sources_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sdfam", "__init__.py")):
        sys.stderr.write(f"no sdfam sources under {ROOT}/src; run from a source checkout\n")
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        base = worker(args, "base", WORKER_TIMEOUT / 2)
        traced = worker(args, "traced", WORKER_TIMEOUT / 2)
        n = min(len(traced["op_times"]), len(base["op_times"]))
        metrics = dict(traced["trace_metrics"])
        metrics["bench.trace_overhead"] = sum(traced["op_times"][:n]) / sum(base["op_times"][:n])
        runs = [base, traced]
    else:
        setups = [worker(args, "setup", 60)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        base = worker(args, "run", WORKER_TIMEOUT)
        setups.append(base["setup_s"])
        q, tail_s = tail(base["op_times"])
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(base["op_times"]) / sum(base["op_times"]),
            "op_p50_s": statistics.median(base["op_times"]),
            "op_tail_s": tail_s,
            "peak_rss_mb": base["peak_rss_mb"],
        }
        runs = [base]

    attempted = sum(r["runs"] for r in runs)
    failed = sum(r["verdicts"].get("fail", 0) for r in runs)
    known = sum(r["verdicts"].get("known-defect", 0) for r in runs)
    facts = machine_facts()
    facts.update(numpy=base["numpy"], workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, rounds=base["rounds"],
                 instances=list(dict.fromkeys(base["op_ids"])))
    report = {"facts": facts, "ops": len(base["op_times"]), "attempted": attempted,
              "failed": failed, "known_defect_runs": known,
              "error_rate": (failed + known) / attempted,
              "known_defects": base["known_defects"],
              "failures": [f for r in runs for f in r["failures"]], "metrics": metrics}
    if not args.trace:
        report["op_tail_percentile"] = q
        report["setup_samples_s"] = setups
        report["op_times_s"] = list(zip(base["op_ids"], base["op_times"]))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("facts " + json.dumps(facts))
    for f in report["failures"][:10]:
        print(f"FAILED {f['op']}: {f['reason']}")
    print(f"op runs: {attempted} attempted, {failed} failed, {known} on known-defect inputs; "
          f"error_rate {report['error_rate']:.4f} ratio")
    if not args.trace:
        print(f"op_tail_s is the p{q} of {len(base['op_times'])} ops")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {UNITS.get(key) or unit_of(key)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit_of(k)}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    """The unit of a per-layer metric."""
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "s/op" if name.endswith("_s") else "count/op"


if __name__ == "__main__":
    sys.exit(main())
