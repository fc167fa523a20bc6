"""Benchmark of the bispectral verification toolkit.

    python3 perfbench/run.py --workload battery --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, and the run stops with exit status 2 when that is
missing.  One process, one caller, closed loop: the next operation starts
when the previous one returns.  ``BISPECTRAL_THREADS`` and the OpenBLAS
thread count are pinned to 1 before numpy loads.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then blocks of operations from the seeded stream until
``--seconds`` have passed, stopping only between blocks and never before the
workload's core is done.  ``--trace 1`` replays
the core once untraced and once with spans recorded around every layer
entry point, and reports the per-layer metrics.  Every operation passes an
output gate.  The last stdout line is the JSON result; the run's records,
with each timing next to the residuals of the same operations (and the
spans, when traced), go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys

os.environ["BISPECTRAL_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import ctypes  # noqa: E402
import glob  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

DEFAULT_SEED = 7
SETUP_REPEATS = 7
LOG_GAMMA_REPEATS = 5
# the tail latency reported; p90 sits where two n = 2 op kinds meet, so over
# ten seeds its quartiles lay ~27 % apart, those of p99 ~8 %
TAIL_Q = 0.99
LOG_GAMMA_TOL = 1e-12  # relative to max(1, |log Gamma|), against mpmath

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import bispectral, bispectral.cli
import workloads
workloads.core_ops({workload!r}, {seed!r})
print(time.perf_counter() - t0)
"""


@dataclass
class OpRecord:
    op_id: int
    op: workloads.Op | None
    latency_s: float
    outcome: str  # ok | failed | refused
    checks: list = field(default_factory=list)
    digest: str | None = None
    error: str | None = None


def load_package():
    """The package from the checkout's src/; exit status 2 when it is not there."""
    if not (SRC / "bispectral" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'bispectral'}; "
              "run from the root of a bispectral checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bispectral
    import bispectral.cli
    if Path(bispectral.__file__).resolve().parent != SRC / "bispectral":
        print(f"perfbench: imported {bispectral.__file__}, not the checkout's source",
              file=sys.stderr)
        sys.exit(2)
    return bispectral


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy
    libdirs = [Path(numpy.__file__).parent.parent / "numpy.libs",
               Path(numpy.__file__).parent / ".libs"]
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for libdir in libdirs:
        for path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in names:
                if hasattr(lib, name):
                    return int(getattr(lib, name)())
    return None


def environment() -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "BISPECTRAL_THREADS": os.environ["BISPECTRAL_THREADS"],
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import the package and generate the inputs, each in a fresh interpreter."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def warm_up(bispectral, workload: str, seed: int) -> None:
    """Run the workload's first operation off the clock, so lazy state in
    numpy, BLAS and the package is loaded before anything is timed."""
    workloads.execute(bispectral, workloads.core_ops(workload, seed)[0])


def run_op(bispectral, op_id: int, op: workloads.Op, tracer: Tracer | None = None) -> OpRecord:
    """One operation through the output gate: domain errors are refusals,
    any other exception or a check off its tolerance is a failure."""
    checks, digest, outcome, error = [], None, "ok", None
    started = time.perf_counter()
    try:
        with tracer.op(op_id) if tracer else nullcontext():
            checks, digest = workloads.execute(bispectral, op)
    except bispectral.cli._DOMAIN_ERRORS as exc:
        outcome, error = "refused", f"{type(exc).__name__}: {exc}"
    except Exception:
        outcome, error = "failed", traceback.format_exc()
    latency = time.perf_counter() - started
    bad = [c.check_id for c in checks if not workloads.check_ok(c)]
    if outcome == "ok" and bad:
        outcome, error = "failed", f"checks off tolerance: {bad}"
    if outcome != "ok":
        print(f"perfbench: op {op_id} {op} {outcome}: {error}", file=sys.stderr)
    return OpRecord(op_id, op, latency, outcome, checks, digest, error)


def check_digests(records: list[OpRecord]) -> None:
    """Every `all` run of one seed must give the same reports, bar wall times."""
    reference = next((r.digest for r in records if r.digest), None)
    for rec in records:
        if rec.outcome == "ok" and rec.digest is not None and rec.digest != reference:
            rec.outcome, rec.error = "failed", f"digest {rec.digest} != {reference}"
            print(f"perfbench: op {rec.op_id} {rec.error}", file=sys.stderr)


def residuals(records: list[OpRecord]) -> list[float]:
    return [c.residual for r in records for c in r.checks if c.residual is not None]


def timed_run(bispectral, workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    """End-to-end metrics of one closed-loop run, untraced."""
    setup = setup_seconds(workload, seed)
    warm_up(bispectral, workload, seed)
    stream = workloads.blocks(workload, seed)
    records: list[OpRecord] = []

    def run_block(block):
        for op in block:
            records.append(run_op(bispectral, len(records), op))

    started = time.perf_counter()
    for block in itertools.islice(stream, workloads.CORE[workload]):
        run_block(block)
    core = len(records)
    # the program's peak is reached within the core; memory taken after it is
    # only these records, whose number scales with machine speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for block in stream:
        if time.perf_counter() - started >= seconds:
            break
        run_block(block)
    elapsed = time.perf_counter() - started
    check_digests(records)

    ok = [r.latency_s for r in records if r.outcome == "ok"]
    latencies = ok or [r.latency_s for r in records]
    p99, beyond, resolved = metrics.tail_percentile(latencies, TAIL_Q)
    digits_min, digits_mean = metrics.digit_stats(residuals(records[:core]))
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ok) / elapsed,
        "op_p50_s": statistics.median(latencies),
        "op_p99_s": p99,
        # fail_share itself is 0 when all is well; the result carries its complement
        "ok_share": 1.0 - metrics.fail_share(r.outcome for r in records),
        "accuracy_digits_min": digits_min,
        "accuracy_digits_mean": digits_mean,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "samples": len(latencies),
        "op_p99_beyond": beyond,
        "op_p99_resolved": resolved,
        "fail_share": metrics.fail_share(r.outcome for r in records),
        "refused": sum(r.outcome == "refused" for r in records),
        "elapsed_s": elapsed,
        "setup_runs_s": setup,
        "accuracy_checks": len(residuals(records[:core])),
        "digests": sorted({r.digest for r in records if r.digest}),
    }
    return values, detail, records


def log_gamma_probe(bispectral) -> tuple[float, float]:
    """ns per element of one untraced log_gamma call on the n = 3 inner-kernel
    argument at the default quadrature (859 x 599 nodes, g = 1.5), and its
    worst relative error against mpmath at a few fixed nodes."""
    import mpmath
    import numpy as np
    t_in = 0.1 * np.arange(-429, 430)
    t_out = 0.1 * np.arange(-299, 300)
    z = (1j * t_in[:, None] - 1j * t_out[None, :] + 1.5) / 2.0
    times = []
    for _ in range(LOG_GAMMA_REPEATS):
        started = time.perf_counter()
        out = bispectral.cgamma.log_gamma(z)
        times.append(time.perf_counter() - started)
    worst = 0.0
    for idx in ((0, 0), (429, 299), (858, 598), (100, 500), (700, 20), (858, 0)):
        ref = complex(mpmath.loggamma(mpmath.mpc(z[idx].real, z[idx].imag)))
        worst = max(worst, abs(out[idx] - ref) / max(1.0, abs(ref)))
    return statistics.median(times) / z.size * 1e9, worst


def traced_run(bispectral, workload: str, seed: int) -> tuple[dict, dict, list, list]:
    """Per-layer metrics: the core untraced, then traced, then the log_gamma probe."""
    warm_up(bispectral, workload, seed)
    ops = workloads.core_ops(workload, seed)
    started = time.perf_counter()
    plain = [run_op(bispectral, i, op) for i, op in enumerate(ops)]
    untraced_s = time.perf_counter() - started
    with Tracer() as tracer:
        started = time.perf_counter()
        traced = [run_op(bispectral, i, op, tracer) for i, op in enumerate(ops)]
        traced_s = time.perf_counter() - started
    records = plain + traced
    check_digests(records)

    ns_per_elem, lg_error = log_gamma_probe(bispectral)
    lg_ok = lg_error <= LOG_GAMMA_TOL
    records.append(OpRecord(len(records), None, 0.0, "ok" if lg_ok else "failed",
                            error=None if lg_ok else f"log_gamma off mpmath by {lg_error:.3g}"))
    checks = [c for r in traced for c in r.checks]
    layer = metrics.layer_metrics(tracer.spans, checks)
    layer["cgamma.log_gamma.ns_per_elem"] = ns_per_elem
    layer["trace.overhead_s"] = traced_s - untraced_s
    detail = {
        "ops_per_pass": len(ops),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "log_gamma_mpmath_error": lg_error,
        "fail_share": metrics.fail_share(r.outcome for r in records),
        "refused": sum(r.outcome == "refused" for r in records),
        "digests": sorted({r.digest for r in records if r.digest}),
    }
    return layer, detail, records, [asdict(sp) for sp in tracer.spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bispectral = load_package()
    env = environment()
    spans = []
    if args.trace:
        values, detail, records, spans = traced_run(bispectral, args.workload, args.seed)
    else:
        values, detail, records = timed_run(bispectral, args.workload, args.seed, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    failed = sum(r.outcome != "ok" for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "args": vars(args), "environment": env, "detail": detail, "result": result,
        "ops": [asdict(r) for r in records], "spans": spans},
        default=lambda z: [z.real, z.imag]) + "\n")  # complex lambda -> [re, im]
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
