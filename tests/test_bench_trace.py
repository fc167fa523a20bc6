"""The benchmark still runs against the package, and its tracer sees every layer.

``perfbench/workloads.py`` builds a ``RunConfig`` and calls the operators
directly; a change to either would break its operations, so one seeded point
runs each kind of operation here.  ``perfbench/spans.py`` wraps each layer
entry point where another module of the package calls it.  A refactor that
keeps such a name but stops calling it from outside its own module would drop
that layer from the benchmark's per-layer metrics without any error; the
traced `all` run catches it.
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


def test_every_op_kind_runs_at_a_seeded_point():
    # the first n2_sweep block: the oracle at grid 2, the four Sutherland operators
    # (hs1 and hs2 through the order keyword) and check-dual at r = 1, 2
    ids = []
    for op in next(workloads.blocks("n2_sweep", 7)):
        checks, digest = workloads.execute(bispectral, op)
        assert digest is None and all(workloads.check_ok(c) for c in checks), op
        ids += [c.check_id for c in checks]
    assert ids == ["oracle.ratio_spread", "sutherland.n2.h1", "sutherland.n2.h2",
                   "sutherland.n2.hs1", "sutherland.n2.hs2", "dual.n2.r1", "dual.n2.r2"]
