"""Every function the benchmark's traced run wraps or counts must exist.

perfbench/spans.py names its targets by (owner, attribute); a renamed or
deleted function would only show when a traced benchmark run fails. The
module is loaded without install(), so nothing is wrapped.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_spanned_and_counted_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(owner, attr) for owner, attr, _ in spans.SPANNED + spans.COUNTED]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert not missing
    assert len(targets) == len(spans.SPANNED) + len(spans.COUNTED) > 60
