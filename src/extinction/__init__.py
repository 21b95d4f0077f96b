"""Numerical laboratory for self-similar extinction profiles of the
singular diffusion equation with gradient absorption

    u_t - div(|grad u|^{p-2} grad u) + |grad u|^q = 0,
    2N/(N+1) < p < 2,  p-1 < q < p/2.

Modules: exponents (closed-form constants and spectra, plus what the
other modules share: the 5-point ln-r derivative, the pinned-basis log
regression, the one fit of the Z-gap decay that gives the tail's theta
and A and the phase rates' lambda3 and Vinf, and the JSON and CSV
writers that fix the byte format of every artifact), dop853 (the one ODE
integrator, its kernels generated from a right side's source template,
its solves run forward or backward towards their bound),
shooter (profile ODE shooting and classification), tail (w-transform,
certification, tail fitting), phase (autonomous phase-space system and
rate extraction), pde (radial solver verifying the extinction rates),
cli (the pipeline driver; the scripts only call it).  The package's
public names are each library module's `__all__`, re-exported below.
"""

from .exponents import *
from .dop853 import *
from .shooter import *
from .tail import *
from .phase import *
from .pde import *

__version__ = "0.1.0"
