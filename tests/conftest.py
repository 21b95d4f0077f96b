"""Shared fixtures.

The two parameter sets exercised throughout are the ones used in the
experiments: N=1, p=1.2, q=0.5 (all certificates attainable) and
N=2, p=1.5, q=0.6 (tail exponents land in band but the asymptotic
certificate is out of reach at bisection-limited radii).  Profile
bisections are expensive, so the located trajectories are session-scoped.
"""

import pytest

from extinction import (
    derive_constants,
    find_bracket,
    find_profile,
    trajectory_csv,
)


@pytest.fixture(scope="session")
def consts1():
    return derive_constants(1, 1.2, 0.5)


@pytest.fixture(scope="session")
def consts2():
    return derive_constants(2, 1.5, 0.6)


@pytest.fixture(scope="session")
def star1(consts1):
    """(a_star, trajectory, transcript) for the N=1 fast-decay profile."""
    br = find_bracket(consts1, r_max=100.0)
    return find_profile(consts1, br, a_tol=1e-10, r_max=100.0)


@pytest.fixture(scope="session")
def star2(consts2):
    """N=2 candidate at the radius where the tail window is clean."""
    br = find_bracket(consts2, r_max=30.0)
    return find_profile(consts2, br, a_tol=3e-16, r_max=60.0)


@pytest.fixture(scope="session")
def profile_csv1(star1, consts1, tmp_path_factory):
    _, traj, _ = star1
    path = tmp_path_factory.mktemp("prof") / "profile.csv"
    path.write_text(trajectory_csv(traj, consts1))
    return path
