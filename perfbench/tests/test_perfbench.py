"""Tests of the benchmark's own arithmetic and output gate.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402


class TestTailPercentile:
    def test_resolved_with_ten_beyond(self):
        value, beyond, resolved = metrics.tail_percentile(list(range(1, 101)), 0.9)
        assert (value, beyond, resolved) == (90, 10, True)

    def test_unresolved_with_nine_beyond(self):
        _, beyond, resolved = metrics.tail_percentile(list(range(1, 100)), 0.9)
        assert beyond == 9 and not resolved

    def test_few_samples_give_the_maximum_unresolved(self):
        assert metrics.tail_percentile([3.0, 1.0, 2.0], 0.9) == (3.0, 0, False)

    def test_order_does_not_matter(self):
        samples = [5, 1, 4, 2, 3] * 30
        assert metrics.tail_percentile(samples, 0.9) == metrics.tail_percentile(sorted(samples), 0.9)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            metrics.tail_percentile([], 0.9)


class TestDigits:
    def test_digits(self):
        assert metrics.digits(1e-6) == pytest.approx(6.0)

    def test_exact_zero_and_below_floor_read_sixteen(self):
        assert metrics.digits(0.0) == pytest.approx(16.0)
        assert metrics.digits(1e-30) == pytest.approx(16.0)

    def test_min_and_mean(self):
        lo, mean = metrics.digit_stats([1e-3, 1e-9, 1e-12])
        assert lo == pytest.approx(3.0)
        assert mean == pytest.approx(8.0)

    def test_mean_shows_a_loss_the_minimum_hides(self):
        base = metrics.digit_stats([1e-5, 1e-12, 1e-12])
        worse = metrics.digit_stats([1e-5, 1e-9, 1e-9])
        assert worse[0] == base[0] and worse[1] < base[1]

    def test_no_residuals(self):
        assert metrics.digit_stats([]) == (0.0, 0.0)


class TestFailShare:
    def test_refused_and_failed_both_count(self):
        assert metrics.fail_share(["ok", "failed", "refused", "ok"]) == 0.5

    def test_all_ok(self):
        assert metrics.fail_share(["ok"] * 7) == 0.0

    def test_nothing_attempted(self):
        with pytest.raises(ValueError):
            metrics.fail_share([])


def _span(span_id, parent, layer, start, end, func=None, elems=0):
    return Span(span_id, parent, 0, layer, func or layer, start, end, elems)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [_span(0, None, "op", 0.0, 10.0), _span(1, 0, "a", 1.0, 4.0),
                 _span(2, 0, "b", 5.0, 9.0), _span(3, 1, "c", 2.0, 3.0)]
        own = metrics.self_times(spans)
        assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [_span(0, None, "op", 0.0, 10.0), _span(1, 0, "a", 1.0, 4.0),
                 _span(2, 0, "b", 3.0, 6.0)]
        assert metrics.self_times(spans)[0] == pytest.approx(5.0)

    def test_self_times_sum_to_the_root(self):
        spans = [_span(0, None, "op", 0.0, 8.0), _span(1, 0, "a", 1.0, 7.0),
                 _span(2, 1, "b", 2.0, 3.0), _span(3, 1, "b", 4.0, 6.5)]
        assert sum(metrics.self_times(spans).values()) == pytest.approx(8.0)


class TestLayerMetrics:
    def spans(self):
        # op > cli > dual_ops(apply_dual_hamiltonian) > 2 x wavefn.n3 > log_gamma,
        # then op > macdonald re-entered inside itself
        return [
            _span(0, None, "op", 0.0, 20.0),
            _span(1, 0, "cli", 0.5, 10.0, "run"),
            _span(2, 1, "dual_ops", 1.0, 9.0, "apply_dual_hamiltonian"),
            _span(3, 2, "wavefn.n3", 1.0, 4.0, "eval_phi"),
            _span(4, 3, "cgamma.log_gamma", 1.5, 2.5, "log_gamma", elems=100),
            _span(5, 2, "wavefn.n3", 5.0, 8.0, "eval_phi"),
            _span(6, 5, "cgamma.log_gamma", 5.0, 7.0, "log_gamma", elems=50),
            _span(7, 0, "macdonald", 11.0, 15.0, "apply_macdonald"),
            _span(8, 7, "macdonald", 12.0, 14.0, "apply_macdonald"),
        ]

    def test_counts_and_times(self):
        checks = [workloads.Check("dual.n3.r1", 1e-7, None, 1e-3, "pass"),
                  workloads.Check("dual.n3.r2", 1e-9, None, 1e-3, "pass"),
                  workloads.Check("identities.binomial", None, True, None, "pass")]
        out = metrics.layer_metrics(self.spans(), checks)
        assert out["cgamma.log_gamma.calls"] == 2
        assert out["cgamma.log_gamma.elems"] == 150
        assert out["cgamma.log_gamma.s"] == pytest.approx(3.0)
        assert out["wavefn.n3.evals"] == 2
        assert out["wavefn.n3.s"] == pytest.approx(6.0)
        assert out["wavefn.n3.self_s"] == pytest.approx(3.0)
        assert out["wavefn.n3.eval_p50_s"] == pytest.approx(3.0)
        assert out["dual_ops.evals_per_check"] == 2.0
        assert out["sutherland_ops.evals_per_check"] == 0.0
        assert out["cli.self_s"] == pytest.approx(1.5)
        # the nested macdonald span lies inside the outer one: counted once
        assert out["macdonald.s"] == pytest.approx(4.0)
        assert out["dual_ops.accuracy_digits_min"] == pytest.approx(7.0)
        assert out["dual_ops.checks"] == 2
        assert out["macdonald.checks"] == 0


class TestOutputGate:
    def test_pass_within_tolerance(self):
        assert workloads.check_ok(workloads.Check("dual.n2.r1", 1e-9, None, 1e-5, "pass"))

    def test_residual_over_tolerance_fails_even_if_marked_pass(self):
        assert not workloads.check_ok(workloads.Check("dual.n2.r1", 1e-4, None, 1e-5, "pass"))

    def test_nan_residual_fails(self):
        assert not workloads.check_ok(workloads.Check("dual.n2.r1", math.nan, None, 1e-5, "pass"))

    def test_exact_check_needs_exact_pass(self):
        assert not workloads.check_ok(workloads.Check("identities.binomial", None, False, None, "pass"))
        assert workloads.check_ok(workloads.Check("identities.binomial", None, True, None, "pass"))

    def test_failed_status(self):
        assert not workloads.check_ok(workloads.Check("dual.n2.r1", 1e-9, None, 1e-5, "fail"))


class TestOperations:
    @pytest.fixture(scope="class")
    def bispectral(self):
        return run.load_package()

    def test_refused_failed_and_ok_ops_feed_fail_share(self, bispectral, capsys):
        point = dict(lam=(0.7j, -0.3j), x=(0.4, -0.2))
        ok = run.run_op(bispectral, 0, workloads.Op("sutherland", 1.5, name="h1", **point))
        # dual operators need g > 1: a typed domain error, so a refusal
        refused = run.run_op(bispectral, 1, workloads.Op("dual", 0.9, r=1, **point))
        failed = run.run_op(bispectral, 2, workloads.Op("no-such-kind", 1.5, **point))
        assert [r.outcome for r in (ok, refused, failed)] == ["ok", "refused", "failed"]
        assert "InfeasibleContourError" in refused.error
        assert "no-such-kind" in failed.error
        assert "refused" in capsys.readouterr().err
        assert metrics.fail_share([ok.outcome, refused.outcome, failed.outcome]) == pytest.approx(2 / 3)

    def test_tracer_sees_each_layer_and_restores_it(self, bispectral):
        original = bispectral.wavefn.log_gamma
        op = workloads.Op("sutherland", 1.5, (0.7j, -0.3j), (0.4, -0.2), name="h1")
        with Tracer() as tracer:
            assert bispectral.wavefn.log_gamma is not original
            rec = run.run_op(bispectral, 0, op, tracer)
        assert rec.outcome == "ok"
        assert bispectral.wavefn.log_gamma is original
        assert bispectral.cgamma.log_gamma is original
        by_id = {sp.span_id: sp for sp in tracer.spans}
        chain = []
        leaf = next(sp for sp in tracer.spans if sp.layer == "cgamma.log_gamma")
        while leaf is not None:
            chain.append(leaf.layer)
            leaf = by_id.get(leaf.parent)
        assert chain == ["cgamma.log_gamma", "wavefn.n2", "sutherland_ops", "op"]
        assert {sp.op_id for sp in tracer.spans} == {0}
        out = metrics.layer_metrics(tracer.spans, rec.checks)
        assert out["wavefn.n2.evals"] == 1
        assert out["sutherland_ops.evals_per_check"] == 1.0
        assert out["cgamma.log_gamma.elems"] > 0

    def test_digest_ignores_wall_time(self, bispectral):
        cli = bispectral.cli
        a = cli.CheckReport("x", {"seed": 1}, "pass", residual=1e-9, wall_time=0.5)
        b = cli.CheckReport("x", {"seed": 1}, "pass", residual=1e-9, wall_time=2.0)
        c = cli.CheckReport("x", {"seed": 2}, "pass", residual=1e-9, wall_time=0.5)
        assert workloads.report_digest([a]) == workloads.report_digest([b])
        assert workloads.report_digest([a]) != workloads.report_digest([c])

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            assert workloads.core_ops(name, 3) == workloads.core_ops(name, 3)
        assert workloads.core_ops("n2_sweep", 3) != workloads.core_ops("n2_sweep", 4)

    def test_inputs_stay_in_the_stated_domain(self):
        for op in workloads.core_ops("n2_sweep", 5):
            assert op.g in workloads.N2_G
            assert all(abs(v.imag) <= workloads.N2_IM_MAX for v in op.lam)
            assert abs(op.lam[0].imag - op.lam[1].imag) >= workloads.N2_IM_GAP
            assert workloads.N2_SEP[0] <= op.x[0] - op.x[1] <= workloads.N2_SEP[1]
        n3 = workloads.core_ops("n3_default", 5)
        assert sorted({op.g for op in n3}) == list(workloads.N3_G)
        assert all(max(op.x) - min(op.x) < 1.0 for op in n3)
