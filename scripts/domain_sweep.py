"""Run check-sutherland and check-dual on random points of the accepted domain.

    PYTHONPATH=src python scripts/domain_sweep.py --domain extreme --draws 300 --seed 1

Each draw runs ``bispectral.cli.main`` in this process with warnings raised as
errors and prints nothing unless it breaks the exit-status contract: every
accepted input exits 0 (every check passed) or 3 (refused, with its cause on
stderr).  At the end the script prints the exits of each command and the
refusals by cause.  The domains are those of the ROADMAP baseline:

* ordinary: g in [0.05, 12], |Im lambda| <= 40, |Re lambda| <= 0.4, coordinates
  within 0.55 of a common centre (separations up to 1.1, past the window 1.0);
* extreme: g within 1e-6 .. 0.1 of 1, or in [12, 40], or in [1e-4, 0.1];
  |Im lambda| <= 150; each coordinate, with even odds, within 1e-9 of the centre.

n is 1, 2 or 3 with equal odds.  A point is drawn by ``draw(rng, domain)``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
import warnings
from collections import Counter

from bispectral import cli

# the cause of a refusal, by a phrase of its message; the first that matches
CAUSES = (
    ("round-off floor", "round-off floor"),
    ("does not separate", "no separating line"),
    ("budget", "node budget"),
    ("tail above", "tail not converged"),
    ("convergence window", "convergence window"),
    ("coincide", "coincident coordinates"),
    ("out of range", "double range"),
    ("gamma pole", "gamma pole"),
)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(low, high)


def draw(rng: random.Random, domain: str) -> list[str]:
    """One command line of the domain: the command, n, g, lambda and x."""
    command = rng.choice(("check-sutherland", "check-dual"))
    n = rng.choice((1, 2, 3))
    if domain == "ordinary":
        g, im_max, near = rng.uniform(0.05, 12.0), 40.0, 0.0
    else:
        g = rng.choice((lambda: 1.0 + rng.choice((-1.0, 1.0)) * _log_uniform(rng, -6.0, -1.0),
                        lambda: rng.uniform(12.0, 40.0),
                        lambda: _log_uniform(rng, -4.0, -1.0)))()
        im_max, near = 150.0, 0.5
    lam = [complex(rng.uniform(-0.4, 0.4), rng.uniform(-im_max, im_max)) for _ in range(n)]
    centre = rng.uniform(-0.3, 0.3)
    x = [centre + (rng.uniform(-1e-9, 1e-9) if rng.random() < near else rng.uniform(-0.55, 0.55))
         for _ in range(n)]
    return [command, "--n", str(n), "--g", repr(g),
            "--lambda=" + ",".join(f"{v.real!r}:{v.imag!r}" for v in lam),
            "--x=" + ",".join(map(repr, x))]


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with warnings raised as errors: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cause(stderr: str) -> str:
    """The cause a refusal's message names, or "unnamed"."""
    return next((name for phrase, name in CAUSES if phrase in stderr), "unnamed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", choices=("ordinary", "extreme"), default="extreme")
    parser.add_argument("--draws", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    exits, causes, broken = Counter(), Counter(), 0
    for _ in range(args.draws):
        line = draw(rng, args.domain)
        code, out, err = run(line)
        exits[line[0], code] += 1
        if code == 3:
            causes[line[0], cause(err)] += 1
        if code not in (0, 3) or (code == 3 and (out or cause(err) == "unnamed")):
            broken += 1
            print(f"exit {code}: bispectral {' '.join(line)}\n  {err.strip()[-300:]}")
    for (command, code), count in sorted(exits.items()):
        print(f"{command} exit {code}: {count}")
    for (command, name), count in sorted(causes.items()):
        print(f"{command} refused, {name}: {count}")
    print(f"{broken} of {args.draws} draws broke the contract")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
