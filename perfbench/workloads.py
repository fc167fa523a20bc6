"""Seeded workload inputs and the operations that run them.

Inputs are plain tuples made from the seed alone; the package only ever sees
the generated values.  Each workload is an endless stream of blocks of
operations: one `all` run, or the checks of one point.  Runs stop only at
block boundaries, so the mix of checks does not depend on machine speed.
The first ``CORE[name]`` blocks form the *core*: every run completes the
core, the accuracy metrics are taken over it (so they are deterministic for a
seed, whatever the machine speed), and the traced run replays exactly it.

Operations call the package through module attributes looked up at call
time (``bispectral.cli.run``, ``bispectral.apply_H1``), so the tracer in
``spans.py`` sees them when it swaps those attributes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("battery", "n3_default", "n2_sweep")

# core size in blocks: one `all` run; three n = 3 points (one per g, 7 checks
# each, 21 ops); 300 n = 2 points (7 checks each, 2100 ops)
CORE = {"battery": 1, "n3_default": 3, "n2_sweep": 300}

N3_G = (1.25, 1.5, 2.0)
N3_LAM_IM = (0.9, 0.1, -0.6)
N3_X = (0.45, 0.0, -0.4)
# g = 1.25 is left out of the n = 2 sweep: there the n = 2 dual check misses
# its 1e-5 tolerance on about 1 % of the points of this domain (104 of 12 000
# seeded points, residuals up to 7e-3), a defect of the default quadrature
# that would turn most runs into failed ones.  n3_default keeps g = 1.25.
N2_G = (1.5, 2.0, 3.0)
SUTHERLAND = ("h1", "h2", "hs1", "hs2")

# n = 2 spectral range: |Im lambda| <= 10 on purpose.  Beyond about 20 the
# 2F1 oracle silently loses digits, a defect for the oracle's own tests.  The
# range is stated here so that it is not narrowed later; fixing the oracle
# may widen it.
N2_IM_MAX = 10.0
N2_SEP = (0.2, 0.95)
N2_IM_GAP = 0.3
N2_ORACLE_GRID = 2


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a single check, or one full `all` run."""

    kind: str  # all | sutherland | dual | oracle
    g: float = 1.5
    lam: tuple = ()
    x: tuple = ()
    seed: int = 7
    name: str = ""  # sutherland operator name
    r: int = 0  # dual order


@dataclass
class Check:
    check_id: str
    residual: float | None
    exact_pass: bool | None
    tolerance: float | None
    status: str


def _separated(rng: random.Random, count: int, lo: float, hi: float,
               gap: float) -> list[float]:
    """count values in [lo, hi], sorted descending, pairwise >= gap apart."""
    while True:
        vals = sorted((rng.uniform(lo, hi) for _ in range(count)), reverse=True)
        if all(a - b >= gap for a, b in zip(vals, vals[1:])):
            return vals


def _n3_point(rng: random.Random, g: float) -> tuple:
    """Seeded jitter around the n = 3 point of `all`, plus common shifts.

    The g = 1.25 dual residual swings by a factor of ~15 over wider ranges
    (the grid's phase against the nearby pole lattice), which would make the
    accuracy metrics a lottery on the one g = 1.25 point a run holds.
    """
    shift = rng.uniform(-0.3, 0.3)
    lam = tuple(complex(0.0, shift + v + rng.uniform(-0.1, 0.1))
                for v in N3_LAM_IM)
    shift = rng.uniform(-0.2, 0.2)
    x = tuple(shift + v + rng.uniform(-0.04, 0.04) for v in N3_X)
    return g, lam, x


def _n2_point(rng: random.Random, g: float) -> tuple:
    lam = tuple(complex(0.0, v)
                for v in _separated(rng, 2, -N2_IM_MAX, N2_IM_MAX, N2_IM_GAP))
    if rng.random() < 0.5:
        lam = lam[::-1]
    sep = rng.uniform(*N2_SEP)
    centre = rng.uniform(-0.3, 0.3)
    return g, lam, (centre + sep / 2, centre - sep / 2)


def _points(rng: random.Random, values: tuple, point) -> Iterator[tuple]:
    """Blocks holding every g once, in seeded order, so each block sees all."""
    while True:
        block = list(values)
        rng.shuffle(block)
        for g in block:
            yield point(rng, g)


def _point_ops(g: float, lam: tuple, x: tuple, orders: range,
               oracle: bool) -> list[Op]:
    ops = [Op("oracle", g, lam, x)] if oracle else []
    ops += [Op("sutherland", g, lam, x, name=name) for name in SUTHERLAND]
    ops += [Op("dual", g, lam, x, r=r) for r in orders]
    return ops


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's blocks of operations, in order, from the seed only."""
    if workload == "battery":
        return itertools.repeat([Op("all", seed=seed)])
    rng = random.Random(f"{workload}:{seed}")
    if workload == "n3_default":
        return (_point_ops(*pt, range(1, 4), False) for pt in _points(rng, N3_G, _n3_point))
    if workload == "n2_sweep":
        return (_point_ops(*pt, range(1, 3), True) for pt in _points(rng, N2_G, _n2_point))
    raise ValueError(f"unknown workload {workload!r}")


def core_ops(workload: str, seed: int) -> list[Op]:
    core = itertools.islice(blocks(workload, seed), CORE[workload])
    return [op for block in core for op in block]


# ---------------------------------------------------------------------------
# execution


def _config(bispectral, op: Op, **extra):
    return bispectral.cli.RunConfig(n=len(op.lam), g=op.g, lam=op.lam, x=op.x,
                                    seed=op.seed, **extra)


def _report_checks(reports) -> list[Check]:
    return [Check(rep.check_id, rep.residual, rep.exact_pass,
                  rep.inputs.get("tolerance"), rep.status) for rep in reports]


def report_digest(reports) -> str:
    """sha256 of the NDJSON reports with their wall_time fields removed."""
    lines = []
    for rep in reports:
        payload = json.loads(rep.to_json())
        payload.pop("wall_time")
        lines.append(json.dumps(payload, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def execute(bispectral, op: Op) -> tuple[list[Check], str | None]:
    """Run one operation; returns its checks and, for `all`, the report digest."""
    cli = bispectral.cli
    if op.kind == "all":
        _, reports = cli.run("all", cli.RunConfig(seed=op.seed))
        return _report_checks(reports), report_digest(reports)
    if op.kind == "dual":
        _, reports = cli.run("check-dual", _config(bispectral, op, r=op.r))
        return _report_checks(reports), None
    if op.kind == "oracle":
        _, reports = cli.run("compare-oracle",
                             _config(bispectral, op, grid=N2_ORACLE_GRID))
        return _report_checks(reports), None
    if op.kind == "sutherland":
        config = _config(bispectral, op)
        quad = config.quad()
        n = len(op.lam)
        if op.name == "h1":
            res = bispectral.apply_H1(op.lam, op.x, op.g, quad)
        elif op.name == "h2":
            res = bispectral.apply_H2(op.lam, op.x, op.g, quad)
        else:
            res = bispectral.apply_reduced_HS(op.lam, op.x, op.g, quad,
                                              order=int(op.name[-1]))
        tol = config.tol("sutherland.n3" if n >= 3 else f"sutherland.{op.name}")
        residual = float(res.relative_residual)
        status = "pass" if residual <= tol else "fail"
        return [Check(f"sutherland.n{n}.{op.name}", residual, None, tol, status)], None
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_ok(check: Check) -> bool:
    """The output gate: the repo's own status, re-checked against its tolerance."""
    if check.status != "pass":
        return False
    if check.exact_pass is not None:
        return check.exact_pass is True
    return (check.residual is not None and math.isfinite(check.residual)
            and check.tolerance is not None and check.residual <= check.tolerance)
