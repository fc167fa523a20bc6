"""Batch verification front end.

Every check belongs to one family in an ordered registry.  A family maps a
RunConfig to its checks and draws their seeded inputs while it builds them,
so running a check is a pure function call.  ``all`` runs every family in
order; each check-* command runs its own, one check after another.

Reports are newline-delimited JSON on stdout, one object per check, and are
deterministic for a fixed config and seed except for their wall_time fields;
a human summary goes to stderr.  Configuration is an optional JSON file with
flat RunConfig keys, overridden by flags; complex numbers are "re:im" pairs.
Each check's residual gate is its constant in _DEFAULT_TOLS and every grid
width comes from the adaptive truncation rule: no key or flag sets either.
Exit status: 0 all checks passed, 1 a check failed, 2 a configuration error
(an unknown key, a non-finite number), 3 an infeasible domain, 4 an internal
error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .cgamma import GammaPoleError
from .dual_ops import (apply_dual_hamiltonian, gauge_relation_residual,
                       gauge_shift_residual, measure_shift_residual,
                       measure_weight)
from .identities import (_BINOMIAL_N_MAX, binomial_limit_check, residue_check,
                         substitution_check, verify_lemma1)
from .legendre import (HypergeometricError, closed_form_phi2,
                       dual_system_residuals, recurrence_check)
from .macdonald import (LaurentPolynomial, MacdonaldParams, TorusPoint,
                        apply_macdonald, tau_limit_check,
                        verify_gauge_equivalence, weight_limit_check,
                        weight_shift_residual)
from .sutherland_ops import apply_H1, apply_H2, apply_reduced_HS
from .symfun import elementary_symmetric
from .wavefn import (CoincidentCoordinatesError, ConvergenceWindowError,
                     InfeasibleContourError, QuadratureSpec,
                     TailNotConvergedError, eval_phi, eval_psi)

__all__ = ["RunConfig", "CheckReport", "REGISTRY", "checks", "run", "main"]

_DOMAIN_ERRORS = (InfeasibleContourError, TailNotConvergedError,
                  CoincidentCoordinatesError, ConvergenceWindowError,
                  GammaPoleError, HypergeometricError)

# the residual gate of each check family; no config or flag changes one
_DEFAULT_TOLS = {
    "sutherland.h1": 1e-7,
    "sutherland.h2": 1e-5,
    "sutherland.hs1": 1e-7,
    "sutherland.hs2": 1e-5,
    "sutherland.n3": 1e-3,
    "dual": 1e-5,
    "dual.n3": 1e-3,
    "gauge.shift": 1e-10,
    "gauge.relation": 1e-10,
    "measures.diffeq": 1e-11,
    "measures.sklyanin": 1e-11,
    "macdonald.shift": 1e-11,
    "macdonald.gauge": 1e-10,
    "macdonald.commutator": 1e-10,
    "macdonald.tau": 1e-10,
    "macdonald.weight_ode": 1e-10,
    "oracle.spread": 1e-6,
    "legendre.recurrence": 1e-10,
    "legendre.dual_system": 1e-9,
}


def parse_complex(text: str) -> complex:
    """Parse a "re:im" pair."""
    try:
        re_part, im_part = text.split(":")
        return complex(float(re_part), float(im_part))
    except Exception as exc:
        raise ValueError(f"cannot parse complex value {text!r}, expected re:im") from exc


def format_complex(z: complex) -> str:
    return f"{z.real!r}:{z.imag!r}"


# numeric RunConfig fields that map one-to-one to flags
_INTEGER_FIELDS = ("n", "seed", "trials", "n_max", "grid", "r")
_REAL_FIELDS = ("g", "step", "tail_tol")


# kinds of number, as concrete types: the numbers ABCs would cost tens of
# microseconds on every RunConfig built
_INTEGER = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)
_COMPLEX = _REAL + (complex, np.complexfloating)


def _is_finite(value, kind) -> bool:
    """A finite number of the given kind; bools do not count."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, _INTEGER) or cmath.isfinite(value)))


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; every field maps to a JSON key and a flag."""

    n: int = 2
    g: float = 1.5
    lam: tuple[complex, ...] = (0.7j, -0.3j)
    x: tuple[float, ...] = (0.4, -0.2)
    step: float = 0.1
    tail_tol: float = 1e-13
    seed: int = 7
    trials: int = 100
    n_max: int = 5
    grid: int = 5
    r: int | None = None

    def __post_init__(self):
        for name in _INTEGER_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            kind, what = ((_INTEGER, "an integer") if name in _INTEGER_FIELDS
                          else (_REAL, "a finite real number"))
            if not (value is None and name == "r" or _is_finite(value, kind)):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        # fewer trials, oracle points or identity sizes would test nothing
        for name, low in (("trials", 1), ("grid", 2), ("n_max", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name, values, kind, what in (("lambda", self.lam, _COMPLEX, "complex"),
                                         ("x", self.x, _REAL, "real")):
            if not all(_is_finite(v, kind) for v in values):
                raise ValueError(f"{name} must hold finite {what} numbers, got {values!r}")
        if len(self.lam) != len(self.x):
            raise ValueError(f"lambda has {len(self.lam)} entries, x has {len(self.x)}")
        if self.n != len(self.lam):
            raise ValueError(f"n = {self.n} does not match {len(self.lam)} lambda entries")

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(step=self.step, tail_tol=self.tail_tol)

    def tol(self, key: str) -> float:
        return _DEFAULT_TOLS[key]


@dataclass
class CheckReport:
    check_id: str
    inputs: dict
    status: str  # pass | fail
    residual: float | None = None
    exact_pass: bool | None = None
    wall_time: float = 0.0
    witness: dict | None = None
    value: str | None = None

    def to_json(self) -> str:
        payload = asdict(self)
        for key in ("witness", "value"):
            if payload[key] is None:
                del payload[key]
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# checks
#
# A check is (check_id, inputs, kind, thunk).  kind is a key of _DEFAULT_TOLS
# when the thunk returns a residual, EXACT when it returns a bool or a report
# with .passed (and maybe .witness), and VALUE when it returns a number.

EXACT, VALUE = "exact", "value"
Check = tuple[str, dict, str, Callable[[], object]]
Family = Callable[[RunConfig], list[Check]]


def _report(config: RunConfig, check: Check) -> CheckReport:
    """Run one check and report it."""
    check_id, inputs, kind, thunk = check
    started = time.perf_counter()
    result = thunk()
    rep = CheckReport(check_id=check_id, inputs=inputs, status="pass",
                      wall_time=time.perf_counter() - started)
    if kind == VALUE:
        rep.value = format_complex(result)
    elif kind == EXACT:
        rep.exact_pass = getattr(result, "passed", result)
        if not rep.exact_pass:
            rep.status = "fail"
            rep.witness = getattr(result, "witness", None) or {"inputs": inputs}
    else:
        tol = config.tol(kind)
        rep.inputs, rep.residual = dict(inputs, tolerance=tol), result
        if not result <= tol:
            rep.status = "fail"
            rep.witness = {"inputs": inputs, "residual": result, "tolerance": tol}
    return rep


def _worst(fn: Callable, draws: Sequence[tuple]) -> Callable[[], float]:
    """Thunk for the largest fn(*draw) over the drawn inputs; NaN if any is NaN."""
    return lambda: float(np.max([fn(*draw) for draw in draws]))


def _echo_point(config: RunConfig) -> dict:
    return {
        "g": config.g,
        "lambda": [format_complex(v) for v in config.lam],
        "x": list(config.x),
        "seed": config.seed,
    }


def _ratio_spread(ratios: Sequence[complex]) -> float:
    """max |ratio - mean| / |mean|: zero exactly when all ratios agree."""
    arr = np.asarray(ratios)
    return float(np.max(np.abs(arr - arr.mean())) / abs(arr.mean()))


def _sutherland(config: RunConfig) -> list[Check]:
    n, lam, x, g, quad = config.n, config.lam, config.x, config.g, config.quad()
    operators = (("h1", apply_H1, {}), ("h2", apply_H2, {}),
                 ("hs1", apply_reduced_HS, {"order": 1}), ("hs2", apply_reduced_HS, {"order": 2}))
    return [(f"sutherland.n{n}.{name}", _echo_point(config),
             "sutherland.n3" if n >= 3 else f"sutherland.{name}",
             lambda op=op, kw=kw: op(lam, x, g, quad, **kw).relative_residual)
            for name, op, kw in operators]


def _dual_metric(r: int, config: RunConfig) -> float:
    """|H_r Phi / Phi - e_r(e^{2x})|, the eigenvalue-space residual."""
    res = apply_dual_hamiltonian(r, config.lam, config.x, config.g, config.quad())
    e_r = elementary_symmetric(r, [cmath.exp(2.0 * xi) for xi in config.x])
    return res.relative_residual * abs(e_r)


def _dual(config: RunConfig) -> list[Check]:
    n = config.n
    orders = [config.r] if config.r is not None else range(1, n + 1)
    return [(f"dual.n{n}.r{r}", dict(_echo_point(config), r=r), "dual.n3" if n >= 3 else "dual",
             partial(_dual_metric, r, config)) for r in orders]


def _rand_generic_lambda(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    return tuple(complex(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
                 for _ in range(n))


def _rand_exp_probe(rng: np.random.Generator, n: int) -> Callable:
    coeffs = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n)]
    return lambda lam: cmath.exp(sum(c * v for c, v in zip(coeffs, lam)))


def _gauge(config: RunConfig) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    n, g, seed = 3, config.g, config.seed
    shifts = [(_rand_generic_lambda(rng, n), int(rng.integers(0, n)), g) for _ in range(10)]
    out = [("gauge.shift", {"n": n, "g": g, "seed": seed}, "gauge.shift",
            _worst(gauge_shift_residual, shifts))]
    for r in range(1, n + 1):
        draws = [(r, _rand_generic_lambda(rng, n), g, _rand_exp_probe(rng, n)) for _ in range(10)]
        out.append((f"gauge.relation.r{r}", {"n": n, "g": g, "r": r, "seed": seed},
                    "gauge.relation", _worst(gauge_relation_residual, draws)))
    return out


def _measures(config: RunConfig) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    n, g, seed = 3, config.g, config.seed
    out = []
    for kind in ("mu_g", "mu_1mg"):
        draws = [(_rand_generic_lambda(rng, n), int(rng.integers(0, n)), g, kind)
                 for _ in range(10)]
        out.append((f"measures.diffeq.{kind}", {"n": n, "g": g, "seed": seed},
                    "measures.diffeq", _worst(measure_shift_residual, draws)))

    # g = 1/2: both weights proportional to the Sklyanin measure
    for kind in ("mu_g", "mu_1mg"):
        lams = [tuple(complex(0.0, v) for v in np.sort(rng.uniform(-2.0, 2.0, size=n))[::-1])
                for _ in range(20)]
        out.append((f"measures.sklyanin.{kind}", {"n": n, "g": 0.5, "seed": seed},
                    "measures.sklyanin",
                    lambda kind=kind, lams=lams: _ratio_spread(
                        [cmath.exp(measure_weight(lam, 0.5, kind)
                                   - measure_weight(lam, 0.5, "sklyanin")) for lam in lams])))
    return out


def _rand_torus_point(rng: np.random.Generator, n: int) -> TorusPoint:
    return TorusPoint(tuple(
        complex(rng.uniform(0.6, 1.8), rng.uniform(-0.6, 0.6)) for _ in range(n)))


def _commutator_residual(params: MacdonaldParams, z: TorusPoint, f: Callable) -> float:
    """Largest relative [M_r, M_s] f at z over 1 <= r < s <= n."""
    def m(r: int, fn: Callable) -> Callable:
        return lambda zz: apply_macdonald(r, params, zz, fn)

    gaps = []
    for r, s in combinations(range(1, z.n + 1), 2):
        lhs, rhs = m(r, m(s, f))(z), m(s, m(r, f))(z)
        gaps.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return float(np.max(gaps, initial=0.0))


def _macdonald(config: RunConfig) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    params = MacdonaldParams(q=0.3, t=0.7)
    g, seed = config.g, config.seed

    # shift laws of the two-parameter weight (the only kind that reads this
    # (a, b)) and the scalar-product weights of (q, t) and (q, q/t), pointwise
    dual = MacdonaldParams(params.q, params.q / params.t)
    shifts = [(kind, at, _rand_torus_point(rng, 3), int(rng.integers(0, 3)),
               0.4 + 0.1j, 1.7 - 0.2j)
              for kind, at, count in (("phi_ab", params, 5), ("delta_qt", params, 10),
                                      ("delta_qt", dual, 5))
              for _ in range(count)]

    # gauge equivalence on random Laurent-polynomial test functions
    gauge = []
    for n in (2, 3):
        for _ in range(10):
            z, f = _rand_torus_point(rng, n), LaurentPolynomial.random(n, rng)
            gauge.append((int(rng.integers(1, n + 1)), params, z, f))

    # commutativity [M_r, M_s] = 0 on random Laurent polynomials
    commuting = [(params, _rand_torus_point(rng, n), LaurentPolynomial.random(n, rng))
                 for n in (2, 3)]

    # tau -> 0 degeneration of M_1 onto the reduced Hamiltonians
    tau = [(x_pt, g, f) for n, x_pt in ((2, (0.4, -0.2)), (3, (0.5, 0.1, -0.4)))
           for f in (LaurentPolynomial(n, {(0,) * n: 1.0}),
                     LaurentPolynomial.random(n, rng, max_degree=3, n_terms=3))]

    return [
        ("macdonald.shift",
         {"q": format_complex(params.q), "t": format_complex(params.t), "seed": seed},
         "macdonald.shift", _worst(weight_shift_residual, shifts)),
        ("macdonald.gauge", {"seed": seed}, "macdonald.gauge",
         _worst(verify_gauge_equivalence, gauge)),
        ("macdonald.commutator", {"seed": seed}, "macdonald.commutator",
         _worst(_commutator_residual, commuting)),
        ("macdonald.tau", {"g": g, "seed": seed}, "macdonald.tau",
         _worst(lambda x_pt, g, f: tau_limit_check(x_pt, g, f).error, tau)),
        # limiting weight differential equation
        ("macdonald.weight_ode", {"g": g}, "macdonald.weight_ode",
         _worst(weight_limit_check, [((0.4, -0.2), g), ((0.7, 0.1, -0.5), g)])),
    ]


def _identities(config: RunConfig) -> list[Check]:
    trials, seed = config.trials, config.seed
    out = [(f"identities.lemma1.n{n}r{r}", {"n": n, "r": r, "trials": trials, "seed": seed},
            EXACT, partial(verify_lemma1, n, r, trials=trials, seed=seed))
           for n in range(1, config.n_max + 1) for r in range(1, n + 1)]
    out += [(f"identities.residue.n{n}r{r}", {"n": n, "r": r, "seed": seed}, EXACT,
             partial(residue_check, n, r, seed=seed))
            for n in range(2, min(config.n_max, 4) + 1) for r in range(1, n + 1)]
    out.append(("identities.binomial", {"n_max": _BINOMIAL_N_MAX}, EXACT,
                partial(binomial_limit_check, seed=seed)))
    out.append(("identities.substitution", {"seed": seed}, EXACT,
                partial(substitution_check, seed)))
    return out


def _oracle(config: RunConfig) -> list[Check]:
    if len(config.lam) != 2:
        raise ValueError("compare-oracle is the n = 2 closed-form check")
    (l1, l2), g, quad = config.lam, config.g, config.quad()
    seps, shifts = np.linspace(0.2, 1.0, config.grid), np.linspace(-0.3, 0.3, config.grid)
    grid = [(float(c + s / 2), float(c - s / 2)) for s in seps for c in shifts]

    def spread():
        # one lambda at every x: the grid points share the pair-kernel columns
        lattice = {}
        return _ratio_spread([eval_phi((l1, l2), (x1, x2), g, quad=quad, lattice=lattice)
                              / closed_form_phi2(l1, l2, x1, x2, g) for x1, x2 in grid])

    return [("oracle.ratio_spread", dict(_echo_point(config), grid=config.grid),
             "oracle.spread", spread)]


def _legendre(config: RunConfig) -> list[Check]:
    rng = np.random.default_rng(config.seed)
    points = []
    for g in (0.5, 1.5, 2.0):
        for _ in range(10):
            lam = complex(rng.uniform(-0.3, 0.3), rng.uniform(-5.0, 5.0))
            if abs(lam) < 0.2:
                lam += 0.5
            points.append((lam, float(rng.uniform(0.1, 1.5)), g))
    return [
        ("legendre.recurrence", {"seed": config.seed}, "legendre.recurrence",
         _worst(recurrence_check, points)),
        ("legendre.dual_system", {"seed": config.seed}, "legendre.dual_system",
         _worst(lambda g: np.max(dual_system_residuals(0.7j, -0.3j, 0.4, -0.2, g)),
                [(1.25,), (1.5,), (2.0,)])),
    ]


# the n = 3 point of the full run, at the config's quadrature: well-separated
# imaginary spectral parameters, coordinates inside the convergence window
_N3_DEFAULTS = dict(n=3, lam=(0.9j, 0.1j, -0.6j), x=(0.45, 0.0, -0.4))


def _at_n3(family: Family) -> Family:
    return lambda config: family(replace(config, **_N3_DEFAULTS))


# (command, family) in the order `all` runs them; a check-* command runs the
# families registered under its name, and the n = 3 legs run only in `all`.
# eval-phi and eval-psi are single evaluations outside `all`.
REGISTRY: tuple[tuple[str, Family], ...] = (
    ("check-identities", _identities),
    ("compare-oracle", _oracle),
    ("check-sutherland", _sutherland),
    ("all", _at_n3(_sutherland)),
    ("check-dual", _dual),
    ("all", _at_n3(_dual)),
    ("check-gauge", _gauge),
    ("check-measures", _measures),
    ("check-macdonald", _macdonald),
    ("check-legendre", _legendre),
)
_EVALS = ("eval-phi", "eval-psi")


def checks(command: str, config: RunConfig) -> list[Check]:
    """The checks a command runs, in order, with their seeded inputs drawn."""
    if command in _EVALS:
        fn = eval_phi if command == "eval-phi" else eval_psi
        return [(command, _echo_point(config), VALUE,
                 lambda: fn(config.lam, config.x, config.g, quad=config.quad()))]
    families = [family for name, family in REGISTRY if command in (name, "all")]
    if not families:
        raise ValueError(f"unknown command {command!r}")
    return [check for family in families for check in family(config)]


def run(command: str, config: RunConfig) -> tuple[int, list[CheckReport]]:
    """Run one command; returns (exit_status, reports).

    Domain errors (infeasible contours etc.) propagate to the caller; main()
    maps them to exit status 3, a ValueError to 2 and any other error to 4.
    """
    reports = [_report(config, check) for check in checks(command, config)]
    status = 0 if all(rep.status != "fail" for rep in reports) else 1
    return status, reports


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bispectral",
        description="verification runs for the Sutherland wave function and its dual operators")
    parser.add_argument("command", choices=sorted({*_EVALS, *(name for name, _ in REGISTRY)}))
    parser.add_argument("--config", help="JSON config file with flat RunConfig keys")
    parser.add_argument("--lambda", dest="lam",
                        help="comma-separated re:im pairs, e.g. 0:0.7,0:-0.3")
    parser.add_argument("--x", help="comma-separated reals, e.g. 0.4,-0.2")
    for name in _INTEGER_FIELDS + _REAL_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"),
                            type=int if name in _INTEGER_FIELDS else float)
    return parser


# per-n points so n = 1 / n = 3, from a flag or the config file, work without
# explicit lambda and x (n = 2 is RunConfig's own default point)
_POINT_DEFAULTS = {
    1: ((0.5j,), (0.4,)),
    3: (_N3_DEFAULTS["lam"], _N3_DEFAULTS["x"]),
}


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    if args.lam is not None:
        data["lambda"] = args.lam.split(",")
    if args.x is not None:
        data["x"] = [float(v) for v in args.x.split(",")]
    for key in _INTEGER_FIELDS + _REAL_FIELDS:
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    # the n that file and flags settle on picks the default point
    n = data.get("n")
    if isinstance(n, int) and n in _POINT_DEFAULTS:
        data.setdefault("lam", _POINT_DEFAULTS[n][0])
        data.setdefault("x", _POINT_DEFAULTS[n][1])

    lam_raw = data.pop("lambda", None)
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if lam_raw is not None:
        data["lam"] = tuple(parse_complex(str(v)) for v in lam_raw)
        data.setdefault("n", len(data["lam"]))
    if "x" in data:
        data["x"] = tuple(float(v) for v in data["x"])
    return RunConfig(**data)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_sources(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        status, reports = run(args.command, config)
    except _DOMAIN_ERRORS as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in the program, not a failed check
        traceback.print_exc()
        return 4
    for rep in reports:
        print(rep.to_json())
    passed = sum(1 for rep in reports if rep.status == "pass")
    for rep in reports:
        detail = f"residual={rep.residual:.3e}" if rep.residual is not None else \
            (f"exact={rep.exact_pass}" if rep.exact_pass is not None else
             f"value={rep.value}")
        print(f"{rep.status.upper()} {rep.check_id:32s} {detail}", file=sys.stderr)
    print(f"{passed}/{len(reports)} checks passed "
          f"in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
