"""The exit-status contract on random accepted input: a check passes or is refused.

Draws n, g, lambda and x across the baseline's ordinary and extreme domains, each
coupling range with either bound on |Im lambda|, and runs ``check-sutherland`` or
``check-dual`` through ``cli.main``.  ``scripts/domain_sweep.py`` is the wider sweep; its
``run`` and ``cause`` are used here.  No value is planted, so an exit 1 is a correct value
failed, and an exit 2 or 4 a fault.
"""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from domain_sweep import cause, run  # noqa: E402

from bispectral.wavefn import _DISTINCT_TOL  # noqa: E402

COUPLINGS = st.one_of(
    st.floats(0.05, 12.0),                                     # ordinary
    st.floats(-6.0, -1.0).map(lambda e: 1.0 + 10.0 ** e),      # near 1, above
    st.floats(-6.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),      # near 1, below
    st.floats(12.0, 40.0),                                     # large
    st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e))            # small
# the separation of neighbouring coordinates, log-uniform from 1e-9 to 1.1 (past the
# window 1.0), either way round
STEPS = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-9.0, math.log10(1.1)),
                  st.sampled_from((-1.0, 1.0)))


@st.composite
def command_lines(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    im_max = draw(st.sampled_from((40.0, 150.0)))
    lam = draw(st.lists(st.builds(complex, st.floats(-0.4, 0.4), st.floats(-im_max, im_max)),
                        min_size=n, max_size=n))
    # coincident spectral parameters are a bad input (exit 2), not a point of the domain
    assume(all(abs(a - b) > _DISTINCT_TOL for i, a in enumerate(lam) for b in lam[i + 1:]))
    x = [draw(st.floats(-0.3, 0.3))]
    for _ in range(n - 1):
        x.append(x[-1] + draw(STEPS))
    return [draw(st.sampled_from(("check-sutherland", "check-dual"))), "--n", str(n),
            "--g", repr(draw(COUPLINGS)),
            "--lambda=" + ",".join(f"{v.real!r}:{v.imag!r}" for v in lam),
            "--x=" + ",".join(map(repr, x))]


@settings(derandomize=True, deadline=None, max_examples=200, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(command_lines())
def test_exit_is_zero_or_three(argv):
    code, out, err = run(argv)
    assert code in (0, 3), f"exit {code}: bispectral {' '.join(argv)}\n{err}"
    if code == 3:
        assert not out and err.startswith("infeasible: ") and cause(err) != "unnamed", err


@pytest.mark.parametrize("g", ["1e-300", "1e152", "1e170", "1e300"])
@pytest.mark.parametrize("command", ["check-dual", "check-gauge", "check-identities",
                                     "check-legendre", "check-macdonald", "check-measures",
                                     "check-sutherland", "compare-oracle"])
def test_extreme_coupling_passes_or_is_refused(command, g):
    # every check at a coupling near either end of the double range, warnings as errors
    code, out, err = run([command, "--g", g])
    assert code in (0, 3), f"exit {code}: bispectral {command} --g {g}\n{err}"
    if code == 3:
        assert not out and cause(err) != "unnamed", err
