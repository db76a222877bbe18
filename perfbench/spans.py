"""Timing wrappers around sdfam's public functions, for the traced run only.

install() replaces each listed function, in every sdfam.* namespace that
binds it, with a wrapper that records a span (metric key, parent span,
start, end) in memory. `constructions` and `cli` import names directly, so
patching only the defining module would miss their calls. Three methods are
counted rather than spanned: they run once per block pair, field product or
map composition, and a span each would distort the times it is meant to
measure. Per-element helpers such as FiniteGroup.sub are not wrapped at
all; their work shows in the self time of the spanned caller.

The self time of a span is its duration minus the durations of its direct
children. Every span belongs to one sdfam module, except the op spans the
benchmark opens around each op; their self time is the time that no sdfam
span covers (bench.unattributed_s). The metrics are per op run.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from sdfam import cli, constructions, endos, families, fields, groups, specs
from sdfam.errors import HypothesisError

MODULES = ("groups", "fields", "endos", "families", "constructions", "specs", "cli")

# (owner, attribute, metric key). The key's prefix is the module the time is
# charged to; "<key>_s" is the self time of its spans.
SPANNED = [
    (groups.FiniteGroup, "__init__", "groups.build"),
    (groups, "build_cyclic", "groups.build"),
    (groups, "build_elementary_abelian", "groups.build"),
    (groups, "build_direct_product", "groups.build"),
    (groups, "build_from_cayley", "groups.build"),
    (groups, "subgroup_generated", "groups.subgroups"),
    (groups, "all_subgroups", "groups.subgroups"),
    (fields, "build_field", "fields.build"),
    (fields, "additive_group", "fields.build"),
    (fields, "primitive_element", "fields.units"),
    (fields, "unit_subgroup_elements", "fields.units"),
    (endos.Endomorphism, "__init__", "endos.make"),
    (endos, "make_endo", "endos.make"),
    (endos, "scalar_endo", "endos.make"),
    (endos, "matrix_endo", "endos.make"),
    (endos, "field_mult_endo", "endos.make"),
    (endos, "halving_endo", "endos.make"),
    (endos, "one_minus", "endos.make"),
    (endos, "closure", "endos.closure"),
    (endos, "cyclic_generated", "endos.closure"),
    (endos, "ensure_automorphism_group", "endos.structure"),
    (endos, "center", "endos.structure"),
    (endos, "is_cyclic", "endos.structure"),
    (endos, "classification_check", "endos.structure"),
    (endos, "normalizes", "endos.structure"),
    (endos, "centralizes", "endos.structure"),
    (endos, "order6_segment_set", "endos.structure"),
    (endos, "fpf_failure", "endos.fpf"),
    (endos, "is_fpf", "endos.fpf"),
    (families, "stabilizer", "families.stabilizer"),
    (families, "equivalence_classes", "families.classes"),
    (families, "verify_sdf", "families.verify_sdf"),
    (families, "development", "families.development"),
    (families, "verify_bibd", "families.verify_bibd"),
    (families, "is_design_automorphism", "families.automorphism"),
    (families, "is_doubly_transitive", "families.double_transitivity"),
    (constructions, "ferrero", "constructions.self"),
    (constructions, "ferrero_with_zero", "constructions.self"),
    (constructions, "transnormal", "constructions.self"),
    (constructions, "nearfield_family", "constructions.self"),
    (constructions, "orbit_family", "constructions.self"),
    (constructions, "segments", "constructions.self"),
    (constructions, "segments_order6", "constructions.self"),
    (constructions, "char2_segments_report", "constructions.self"),
    (specs, "load_json", "specs.parse"),
    (specs, "load_design_file", "specs.parse"),
    (specs, "parse_group", "specs.parse"),
    (specs, "parse_endo", "specs.parse"),
    (specs, "parse_endo_list", "specs.parse"),
    (specs, "parse_family", "specs.parse"),
    (specs, "parse_design_doc", "specs.parse"),
    (specs, "parse_design_text", "specs.parse"),
    (specs, "dump_json", "specs.emit"),
    (specs, "family_to_doc", "specs.emit"),
    (specs, "certificate_to_doc", "specs.emit"),
    (specs, "design_to_doc", "specs.emit"),
    (specs, "design_to_text", "specs.emit"),
    (cli, "main", "cli.self"),
]

COUNTED = [
    (families, "are_translates", "families.translate_scans"),
    (fields.FiniteField, "mul", "fields.mul_calls"),
    (endos.Endomorphism, "compose", "endos.compositions"),
]

TIME_KEYS = sorted({key for _, _, key in SPANNED})
CALL_KEYS = ("families.stabilizer", "families.classes")
COUNT_KEYS = (
    "groups.builds", "groups.elements_built", "fields.mul_calls", "fields.group_cache_hits",
    "endos.maps_made", "endos.closure_maps", "endos.compositions", "families.translate_scans",
    "families.developed_blocks", "families.pairs_counted", "families.automorphism_checks",
    "constructions.rejections", "specs.bytes_in", "specs.bytes_out",
    "cli.exit0", "cli.exit1", "cli.exit2", "cli.uncaught",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    times = [f"{key}_s" for key in TIME_KEYS]
    times += [f"{mod}.self_s" for mod in MODULES if f"{mod}.self_s" not in times]
    calls = [f"{key}_calls" for key in CALL_KEYS]
    bench = ["bench.traced_wall_s", "bench.unattributed_s", "bench.trace_overhead"]
    return sorted(times) + list(calls) + list(COUNT_KEYS) + ["families.translate_hit_ratio"] + bench


class Tracer:
    """Spans in memory, as parallel arrays, plus counters."""

    def __init__(self, cache_info):
        self.keys = ["bench.op"]
        self.span_key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {key: 0 for key in COUNT_KEYS}
        self.counts["families.translate_hits"] = 0
        self._cache_info = cache_info
        self._cache_hits0 = cache_info().hits

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, kid: int) -> int:
        idx = len(self.span_key)
        self.span_key.append(kid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def op_span(self):
        """The root span around one op."""
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def spanned(self, fn, key: str, on_result=None, on_error=None):
        if key not in self.keys:
            self.keys.append(key)
        kid = self.keys.index(key)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(kid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if on_error is not None:
                    on_error(idx, exc)
                raise
            self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts
        if key == "families.translate_scans":
            @wraps(fn)
            def scan(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if result is not None:
                    counts["families.translate_hits"] += 1
                return result
            return scan

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, idx: int, prefix: str) -> bool:
        """Whether an ancestor of span idx has a key starting with prefix."""
        p = self.parent[idx]
        while p >= 0:
            if self.keys[self.span_key[p]].startswith(prefix):
                return True
            p = self.parent[p]
        return False

    def self_times(self) -> dict[str, float]:
        n = len(self.span_key)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.keys, 0.0)
        for i in range(n):
            out[self.keys[self.span_key[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics derived from the spans and counters, all of
        metric_names() except bench.trace_overhead, which needs the untraced
        run. Times and counts are per op run, so that they do not depend on
        how many ops a run holds."""
        st = self.self_times()
        m: dict[str, float] = {f"{key}_s": st.get(key, 0.0) for key in TIME_KEYS}
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(v for k, v in st.items() if k.startswith(mod + "."))
        calls = Counter(self.keys[k] for k in self.span_key)
        for key in CALL_KEYS:
            m[f"{key}_calls"] = calls[key]
        self.counts["families.automorphism_checks"] = calls["families.automorphism"]
        self.counts["fields.group_cache_hits"] = self._cache_info().hits - self._cache_hits0
        m.update((key, self.counts[key]) for key in COUNT_KEYS)
        m["bench.traced_wall_s"] = sum(self.end[i] - self.start[i]
                                       for i in range(len(self.span_key)) if self.parent[i] < 0)
        m["bench.unattributed_s"] = st["bench.op"]
        ops = max(1, calls["bench.op"])
        m = {key: value / ops for key, value in m.items()}
        scans = self.counts["families.translate_scans"]
        m["families.translate_hit_ratio"] = (self.counts["families.translate_hits"] / scans
                                             if scans else 0.0)
        return m

    def write(self, path: str) -> None:
        """All spans as columns: key names, then key index, parent, start, end."""
        doc = {"keys": self.keys, "key": self.span_key.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(), "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install() -> Tracer:
    """Wrap every listed function in every sdfam namespace that binds it."""
    tracer = Tracer(fields.additive_group.cache_info)
    count = tracer.count

    def rejected(idx, exc):
        if isinstance(exc, HypothesisError) and not tracer.inside(idx, "constructions."):
            count("constructions.rejections")

    def uncaught(idx, exc):
        count("cli.uncaught")

    hooks = {
        "FiniteGroup.__init__": (lambda a, r: (count("groups.builds"),
                                               count("groups.elements_built", a[0].order)), None),
        "Endomorphism.__init__": (lambda a, r: count("endos.maps_made"), None),
        "closure": (lambda a, r: count("endos.closure_maps", len(r)), None),
        "development": (lambda a, r: count("families.developed_blocks", len(r)), None),
        "verify_bibd": (lambda a, d: count("families.pairs_counted",
                                           len(d.blocks) * d.k * (d.k - 1) // 2), None),
        "load_json": (lambda a, r: count("specs.bytes_in", os.path.getsize(a[0])), None),
        "load_design_file": (lambda a, r: count("specs.bytes_in", os.path.getsize(a[0])), None),
        "dump_json": (lambda a, r: count("specs.bytes_out", len(r.encode())), None),
        "design_to_text": (lambda a, r: count("specs.bytes_out", len(r.encode())), None),
        "main": (lambda a, code: count(f"cli.exit{code}"), uncaught),
    }
    for owner, attr, key in SPANNED:
        name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        on_result, on_error = hooks.get(name, (None, None))
        if key == "constructions.self":
            on_error = rejected
        orig = getattr(owner, attr)
        _replace(owner, attr, orig, tracer.spanned(orig, key, on_result, on_error))
    for owner, attr, key in COUNTED:
        orig = getattr(owner, attr)
        _replace(owner, attr, orig, tracer.counted(orig, key))
    return tracer


def _replace(owner, attr: str, orig, wrapper) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "sdfam" or name.startswith("sdfam.")):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
