"""The DOP853 module on a system of its own: a right side that depends on
the independent variable, run backward; and its kernels, built once per
system."""

import math

import numpy as np
import pytest
from scipy.integrate._ivp.rk import Dop853DenseOutput

from extinction import dop853

# y' = y / r and z' = -z; from r = 2, (y, z) = (2, 1), y = r and z = e^(2 - r)
_TEMPLATE = "{ky} = {y} / {r}; {kz} = -{z}"
# the same system in t = -r, negated by hand: r read as -t, each
# derivative formed as the template forms it, then its sign flipped
_NEGATED = "{ky} = {y} / (-{r}); {kz} = -{z}; {ky} = -{ky}; {kz} = -{kz}"


def _no_event(t, y, z):
    return (-1.0,)


def _kernel(template):
    return dop853.kernel(template, ("y", "z"), "c0, c1")


def test_kernel_is_built_once_per_system():
    # the same record for the same system; a new one, with its own
    # generated functions, for a different atol or var
    kern = _kernel(_TEMPLATE)
    assert _kernel(_TEMPLATE) is kern
    for field, value in (("atol", 1e-30), ("var", "t")):
        other = dop853.kernel(_TEMPLATE, ("y", "z"), "c0, c1",
                              **{field: value})
        assert other is not kern and other.trial is not kern.trial
        assert getattr(other, field) == value != getattr(kern, field)
        assert dop853.kernel(_TEMPLATE, ("y", "z"), "c0, c1",
                             **{field: value}) is other


def _solve(template, t0, t_bound, dense=False):
    return dop853.drive(_kernel(template), (0.0, 0.0), _no_event, t0,
                        (2.0, 1.0), t_bound, 1e-12, dense)


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
    # holds it: sample's vectorised interpolant equals the kernel's
    # interpolant of that step there, at the steps' own ends too
    _, r_end, _, _, segs = _solve(_TEMPLATE, 2.0, 1.0, dense=True)
    kern = _kernel(_TEMPLATE)
    ends = [seg[0] for seg in segs] + [r_end]
    rs = np.sort(np.append(np.linspace(1.0, 2.0, 101), ends))[::-1]
    ys, zs = dop853.sample(kern, segs, r_end, rs)
    for r, y, z in zip(rs, ys, zs):
        i = next(i for i in range(len(segs)) if ends[i + 1] <= r <= ends[i])
        assert (y, z) == kern.interp(segs[i], r)
    assert np.allclose(ys, rs, rtol=1e-11, atol=0)
    assert np.allclose(zs, np.exp(2.0 - rs), rtol=1e-11, atol=0)


def _bits(ys):
    return np.asarray(ys, dtype=float).tobytes()


@pytest.mark.parametrize("names", [("y", "z"), ("X", "Y", "Z")],
                         ids=["2", "3"])
@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["fwd", "back"])
def test_interpolant_is_scipys_bit_for_bit(names, direction):
    # the generated interpolant evaluates a step's seven coefficients a
    # component in the order of scipy's Dop853DenseOutput, at one radius
    # and at an array of radii, on random steps forward and backward
    kern = dop853.kernel("; ".join(f"{{k{y}}} = {{{y}}}" for y in names),
                         names, "c0")
    rng = np.random.default_rng(47)
    n = len(names)
    for _ in range(50):
        r = rng.uniform(-10.0, 10.0)
        h = (r + direction * rng.uniform(1e-3, 2.0)) - r
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        F = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-3, 4, (7, n))
        seg = (r, h, *y, *F.T.ravel())
        dense = Dop853DenseOutput(r, r + h, y, F)
        rs = r + h * np.append(rng.uniform(0.0, 1.0, 20), (0.0, 1.0))
        assert _bits(kern.interp(seg, rs)) == _bits(dense(rs))
        for x in rs[::7]:
            assert _bits(kern.interp(seg, float(x))) == _bits(dense(x))
