"""The benchmark's tracer still sees every layer of the package.

``perfbench/spans.py`` wraps each layer entry point where another module of
the package calls it.  A refactor that keeps such a name but stops calling it
from outside its own module would drop that layer from the benchmark's
per-layer metrics without any error; this traced `all` run catches it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bispectral  # noqa: E402
import bispectral.cli  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def test_traced_all_records_every_layer():
    with Tracer() as tracer, tracer.op(0):
        checks, _ = workloads.execute(bispectral, workloads.Op("all", seed=7))
    assert all(workloads.check_ok(c) for c in checks)
    seen = {sp.layer for sp in tracer.spans}
    for layer, _, _ in LAYERS:
        assert any(s == layer or s.startswith(layer + ".") for s in seen), layer
    # Phi once per shifted subset plus once unshifted: 3, 2, 4, 4 and 2 times in
    # the dual checks n = 2, r = 1, 2 and n = 3, r = 1, 2, 3
    out = metrics.layer_metrics(tracer.spans, checks)
    assert out["dual_ops.evals_per_check"] == 3.0
