"""The DOP853 module on a system of its own: a right side that depends on
the independent variable, run backward on the template negated."""

import math

import pytest

from extinction import dop853


def _no_event(t, y, z, dy0=None):
    return (-1.0,)


_no_event.at = (lambda t, seg: -1.0,)


def test_negated_reads_r_as_minus_t():
    # y' = y / r and z' = -z from r = 2, (y, z) = (2, 1), back to r = 1,
    # solved in t = -r: y = r and z = e^(2 - r) give y = 1 and z = e.
    # Negating the derivatives alone, with r kept as t, gives y = 4.
    template = "{ky} = {y} / {r}; {kz} = -{z}"
    kern = dop853.kernel(dop853.negated(template, ("y", "z")), ("y", "z"),
                         "c0, c1", var="-r")
    status, t_end, (y, z), _, _ = dop853.drive(
        kern, (0.0, 0.0), _no_event, -2.0, (2.0, 1.0), -1.0, 1e-12, False)
    assert (status, t_end) == (0, -1.0)
    assert y == pytest.approx(1.0, rel=1e-11)
    assert z == pytest.approx(math.e, rel=1e-11)


def test_negated_autonomous_template_only_flips_signs():
    # a template without {r} keeps its source: only the sign flips follow
    template = "{kx} = -{x}"
    assert dop853.negated(template, ("x",)) == "{kx} = -{x}; {kx} = -{kx}"
