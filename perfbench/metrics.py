"""The benchmark's arithmetic: percentiles, accuracy digits, failure share,
span self time and the per-layer figures built from spans and checks."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# residuals at or below this read as 16 digits (also covers exact zeros)
RESIDUAL_FLOOR = 1e-16
# a tail percentile is reported as resolved only with this many samples beyond it
TAIL_MIN_BEYOND = 10


def tail_percentile(samples, q: float) -> tuple[float, int, bool]:
    """Nearest-rank q-quantile, the count of samples above its rank, and
    whether that count reaches TAIL_MIN_BEYOND."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    return ordered[rank - 1], beyond, beyond >= TAIL_MIN_BEYOND


def digits(residual: float) -> float:
    """Correct decimal digits of a relative residual, -log10(residual)."""
    return -math.log10(max(float(residual), RESIDUAL_FLOOR))


def digit_stats(residuals) -> tuple[float, float]:
    """(min, mean) digits over residuals; (0, 0) when there are none."""
    vals = [digits(r) for r in residuals]
    if not vals:
        return 0.0, 0.0
    return min(vals), statistics.fmean(vals)


def fail_share(outcomes) -> float:
    """Failed plus refused operations over operations attempted."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no operations attempted")
    return sum(1 for o in outcomes if o in ("failed", "refused")) / len(outcomes)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.span_id: sp.duration - _covered(children[sp.span_id]) for sp in spans}


def _ancestors(spans) -> dict[int, list]:
    """span_id -> the spans enclosing it, innermost first."""
    by_id = {sp.span_id: sp for sp in spans}
    out = {}
    for sp in spans:
        chain, parent = [], sp.parent
        while parent is not None:
            chain.append(by_id[parent])
            parent = by_id[parent].parent
        out[sp.span_id] = chain
    return out


# check-id prefix -> the layer whose accuracy it reports
CHECK_LAYER = {"sutherland": "sutherland_ops", "dual": "dual_ops",
               "legendre": "legendre", "oracle": "legendre",
               "macdonald": "macdonald"}
ACCURACY_LAYERS = ("sutherland_ops", "dual_ops", "legendre", "macdonald")


def layer_metrics(spans, checks) -> dict[str, float]:
    """Per-layer figures from one traced pass and the checks it produced."""
    chains = _ancestors(spans)
    anc = {sid: {a.layer for a in chain} for sid, chain in chains.items()}
    anc_funcs = {sid: {a.func for a in chain} for sid, chain in chains.items()}
    own = self_times(spans)
    # a layer's time and call count come from its outermost spans only, so
    # re-entry (macdonald operators applied inside one another) counts once
    outer = defaultdict(list)
    for sp in spans:
        if sp.layer not in anc[sp.span_id]:
            outer[sp.layer].append(sp)

    def total(layer):
        return sum(sp.duration for sp in outer[layer])

    wf3 = [sp for sp in spans if sp.layer == "wavefn.n3"]
    lg = [sp for sp in spans if sp.layer == "cgamma.log_gamma"]
    evals = [sp for sp in spans if sp.layer.startswith("wavefn.")]

    def evals_per_check(layer, func=None):
        calls = [sp for sp in outer[layer] if func is None or sp.func == func]
        inside = [sp for sp in evals if layer in anc[sp.span_id]
                  and (func is None or func in anc_funcs[sp.span_id])]
        return len(inside) / len(calls) if calls else 0.0

    out = {
        "cgamma.log_gamma.calls": len(lg),
        "cgamma.log_gamma.elems": sum(sp.elems for sp in lg),
        "cgamma.log_gamma.s": sum(sp.duration for sp in lg),
        "wavefn.n3.evals": len(wf3),
        "wavefn.n3.s": total("wavefn.n3"),
        "wavefn.n3.self_s": sum(own[sp.span_id] for sp in wf3),
        "wavefn.n3.eval_p50_s": statistics.median(sp.duration for sp in wf3) if wf3 else 0.0,
        "wavefn.n2.evals": sum(1 for sp in spans if sp.layer == "wavefn.n2"),
        "wavefn.n2.s": total("wavefn.n2"),
        "sutherland_ops.s": total("sutherland_ops"),
        "sutherland_ops.evals_per_check": evals_per_check("sutherland_ops"),
        "dual_ops.s": total("dual_ops"),
        "dual_ops.evals_per_check": evals_per_check("dual_ops", "apply_dual_hamiltonian"),
        "identities.s": total("identities"),
        "identities.calls": len(outer["identities"]),
        "macdonald.s": total("macdonald"),
        "legendre.s": total("legendre"),
        "legendre.calls": len(outer["legendre"]),
        "cli.self_s": sum(own[sp.span_id] for sp in spans if sp.layer == "cli"),
    }
    by_layer = defaultdict(list)
    for check in checks:
        layer = CHECK_LAYER.get(check.check_id.split(".")[0])
        if layer and check.residual is not None:
            by_layer[layer].append(check.residual)
    for layer in ACCURACY_LAYERS:
        out[f"{layer}.accuracy_digits_min"] = digit_stats(by_layer[layer])[0]
        out[f"{layer}.checks"] = len(by_layer[layer])
    return out
