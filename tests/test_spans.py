"""perfbench's span targets, checked against the package they wrap.

``perfbench/spans.py`` skips a target that no longer exists and reports its
metrics absent, so a renamed function would only show in a traced run.
This installs every span, as a traced run does, and checks that each span a
reported metric reads found at least one target.
"""

import importlib.util

from walkthrough import ROOT


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_a_layer_metric_reads_is_installed():
    spans = _spans_module()
    installer = spans.install(spans.Tracer())
    try:
        absent = sorted(name for name, (_, span, _) in spans.LAYER_METRICS.items()
                        if span not in installer.installed)
    finally:
        installer.uninstall()
    assert absent == []
