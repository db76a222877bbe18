"""One workload in one single-threaded process: set up, run, check each op.

    python3 perfbench/worker.py --workload W --seed N --seconds S --result PATH
        --mode setup|run|base|traced

Set-up (timed as setup_s) imports sdfam and makes the seeded inputs; mode
setup stops there. Mode run then runs whole cycles of rounds for about
--seconds of op time. Each op is timed alone, and its result is checked
after the clock stops. Modes base and traced run the workload's fixed
trace_rounds rounds, base as they are and traced with timing wrappers
installed; traced writes its spans to out/spans-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_OPS = 20


def judge(op, result, error) -> tuple[str, str]:
    """("pass" | "fail" | "known-defect", reason) for one op."""
    import oracle  # not at the top: it imports numpy, which set-up must time
    if error is not None:
        return "fail", f"raised {type(error).__name__}: {error}"
    try:
        op.check(result)
    except oracle.KnownDefect as exc:
        return "known-defect", str(exc)
    except oracle.Mismatch as exc:
        return "fail", str(exc)
    except Exception as exc:  # a malformed output can break the check itself
        return "fail", f"check raised {type(exc).__name__}: {exc}"
    return "pass", ""


def run_loop(wl, seconds: float, rounds: int | None, wall_limit: float, tracer) -> dict:
    """Run rounds until the end of the cycle of rounds nearest to --seconds
    of op time, or for `rounds` rounds; stop early at the wall limit."""
    verdicts, failures, known = {}, [], {}
    wall0 = perf_counter()

    def run_round(r: int) -> list[float] | None:
        """Op times of round r, or None when the wall limit cut it short."""
        times = []
        for op in wl.round(r):
            with tracer.op_span() if tracer else contextlib.nullcontext():
                t = perf_counter()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # a library exception is a failed op
                    result, error = None, exc
                times.append(perf_counter() - t)
            verdict, reason = judge(op, result, error)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict == "fail" and len(failures) < 50:
                failures.append({"op": op.id, "reason": reason})
            if verdict == "known-defect":
                known[op.id] = reason
            if perf_counter() - wall0 > wall_limit:
                return None
        return times

    done: list[list[float]] = []
    timed = 0.0
    while rounds is None or len(done) < rounds:
        times = run_round(len(done))
        if times is None:
            break
        done.append(times)
        timed += sum(times)
        n = len(done)
        cycle_s = timed / n * wl.cycle
        if (rounds is None and n % wl.cycle == 0 and sum(map(len, done)) >= MIN_OPS
                and timed + cycle_s / 2 >= seconds):
            break
    return {"op_times": [t for times in done for t in times], "rounds": len(done),
            "op_ids": [op.id for r in range(len(done)) for op in wl.round(r)],
            "runs": sum(verdicts.values()), "verdicts": verdicts, "failures": failures,
            "known_defects": known}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "base", "traced"), required=True)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import sdfam
    if not os.path.abspath(sdfam.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sdfam was imported from {sdfam.__file__}, not from {SRC}")
    import numpy
    import workloads
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = perf_counter() - t0
        doc = {"setup_s": setup_s}
        if args.mode != "setup":
            tracer = None
            if args.mode == "traced":
                import spans
                tracer = spans.install()
            # A traced run holds two workers, each of which must end well
            # inside the time allowed for one run.
            if args.mode == "run":
                rounds, wall_limit = None, 100.0
            else:
                rounds, wall_limit = wl.trace_rounds, 70.0
            doc.update(run_loop(wl, args.seconds, rounds, wall_limit, tracer))
            doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            doc["numpy"] = numpy.__version__
            if tracer is not None:
                doc["trace_metrics"] = tracer.metrics()
                tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
