"""The benchmark's trace hooks still find every binding they patch.

``perfbench/spans.py`` wraps functions and methods by module and
attribute name. A rename or removal in the package makes a hook miss,
and the benchmark then reports that span's per-layer metrics as null.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
HOOK_COUNT = 46


def test_every_hook_resolves(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    assert capsys.readouterr().err == ""  # no "trace hook ... not found" warning
    assert tracer.absent == set()
    assert len(spans.HOOKS) == HOOK_COUNT
    assert len(tracer._resolved) == HOOK_COUNT
    assert None not in tracer.snapshot().values()

