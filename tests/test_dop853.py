"""The DOP853 module on a system of its own: a right side that depends on
the independent variable, run backward."""

import math

import numpy as np
import pytest

from extinction import dop853

# y' = y / r and z' = -z; from r = 2, (y, z) = (2, 1), y = r and z = e^(2 - r)
_TEMPLATE = "{ky} = {y} / {r}; {kz} = -{z}"
# the same system in t = -r, negated by hand: r read as -t, each
# derivative formed as the template forms it, then its sign flipped
_NEGATED = "{ky} = {y} / (-{r}); {kz} = -{z}; {ky} = -{ky}; {kz} = -{kz}"


def _no_event(t, y, z, dy0=None):
    return (-1.0,)


_no_event.at = (lambda t, seg: -1.0,)


def _solve(template, t0, t_bound, dense=False):
    kern = dop853.kernel(template, ("y", "z"), "c0, c1")
    return dop853.drive(kern, (0.0, 0.0), _no_event, t0, (2.0, 1.0),
                        t_bound, 1e-12, dense)


def test_backward_solve_reads_r_as_r():
    # from r = 2 back to r = 1 on the template as written: y = 1, z = e
    status, r_end, (y, z), _, _ = _solve(_TEMPLATE, 2.0, 1.0)
    assert (status, r_end) == (0, 1.0)
    assert y == pytest.approx(1.0, rel=1e-11)
    assert z == pytest.approx(math.e, rel=1e-11)


def test_backward_solve_is_the_negated_forward_solve_bit_for_bit():
    # negation is exact, so a step of size -h from r is the step of size h
    # from t = -r on the negated field: the same stages, error norm, step
    # control and interpolant coefficients; only r and h change sign
    status, r_end, y, _, back = _solve(_TEMPLATE, 2.0, 1.0, dense=True)
    status_t, t_end, y_t, _, fwd = _solve(_NEGATED, -2.0, -1.0, dense=True)
    assert (status, r_end, y) == (status_t, -t_end, y_t)
    assert len(back) == len(fwd) > 1
    for b, f in zip(back, fwd):
        assert b == (-f[0], -f[1], *f[2:])


def test_sample_reads_a_backward_solve():
    # descending radii, each on the earliest step whose closed interval
    # holds it: sample's vectorised interpolant equals interpolate there,
    # at the steps' own ends too
    _, r_end, _, _, segs = _solve(_TEMPLATE, 2.0, 1.0, dense=True)
    ends = [seg[0] for seg in segs] + [r_end]
    rs = np.sort(np.append(np.linspace(1.0, 2.0, 101), ends))[::-1]
    ys, zs = dop853.sample(segs, r_end, rs)
    for r, y, z in zip(rs, ys, zs):
        i = next(i for i in range(len(segs)) if ends[i + 1] <= r <= ends[i])
        assert (y, z) == dop853.interpolate(segs[i], r)
    assert np.allclose(ys, rs, rtol=1e-11, atol=0)
    assert np.allclose(zs, np.exp(2.0 - rs), rtol=1e-11, atol=0)
