import math

import numpy as np
import pytest

from curvex.circle import Arc, admissible_arcs
from curvex.linesys import LineSystem
from curvex.sphere import ProjectiveCurve, _cross3, contact_map
from curvex.trig import VectorSeries, cos_series, sin_series
from curvex.width import SupportFunction, contact_system


def sphere_curve(g):
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), g))


def admissible_angles(A, B):
    """admissible_arcs of one row of samples, as an Arc or None."""
    [start], [length] = admissible_arcs(np.asarray(A, dtype=float)[None],
                                        np.asarray(B, dtype=float)[None])
    return Arc(start, length) if length >= 0.0 else None


def anti_convexity_grid_test(unit_many, n_base: int = 128, n_arc: int = 1024,
                             fd_step: float = 1e-5) -> bool:
    """Anti-convexity on a grid, independent of the solver: at every base
    sample some great circle through the point and its antipode keeps the
    forward open arc strictly on one side, with the tangent taken by
    central differences of unit_many."""
    for t in np.linspace(0.0, math.pi, n_base, endpoint=False):
        u = unit_many(np.array([t]))[0]
        tv = unit_many(np.array([t + fd_step]))[0] - unit_many(np.array([t - fd_step]))[0]
        tv = tv - u * float(np.dot(u, tv))
        tv /= np.linalg.norm(tv)
        nu = _cross3(u, tv)
        P = unit_many(t + np.linspace(1e-3, math.pi - 1e-3, n_arc))
        if admissible_angles(P @ nu, P @ tv) is None:
            return False
    return True


@pytest.fixture(scope="session")
def curve3():
    return sphere_curve(sin_series(3, 0.1))


@pytest.fixture(scope="session")
def curve5():
    return sphere_curve(sin_series(3, 0.05) + sin_series(5, 0.05))


@pytest.fixture(scope="session")
def curve7():
    return sphere_curve(sin_series(3, 0.05) + sin_series(5, 0.05)
                        + sin_series(7, 0.025))


@pytest.fixture(scope="session")
def curve7_gl3(curve7):
    """curve7 under the linear map F -> M F, a curve that is no lift; CI
    runs the same curve through sphere-census and axioms."""
    M = [[1.0, 0.2, 0.5], [-0.3, 1.0, 0.4], [0.1, -0.2, 1.0]]
    x, y, z = curve7.F.components
    return ProjectiveCurve(VectorSeries(*(x.scaled(p) + y.scaled(q) + z.scaled(r)
                                          for p, q, r in M)))


@pytest.fixture(scope="session")
def sys3(curve3):
    return LineSystem(contact_map(curve3))


@pytest.fixture(scope="session")
def sys5(curve5):
    return LineSystem(contact_map(curve5))


@pytest.fixture(scope="session")
def sys7(curve7):
    return LineSystem(contact_map(curve7))


@pytest.fixture(scope="session")
def sf_sin3():
    return SupportFunction(20.0, sin_series(3))


@pytest.fixture(scope="session")
def sf_mix25():
    # d = 20 is not strictly convex for this deviation; 30 clears the
    # curvature bound
    return SupportFunction(30.0, sin_series(3) + sin_series(5, 0.25))


@pytest.fixture(scope="session")
def sf_mix4():
    return SupportFunction(40.0, sin_series(3) + sin_series(5, 0.4))


@pytest.fixture(scope="session")
def sf_mix7():
    return SupportFunction(120.0, sin_series(3) + sin_series(5, 1.0)
                           + sin_series(7, 0.5))


@pytest.fixture(scope="session")
def wsys_sin3(sf_sin3):
    return contact_system(sf_sin3)


@pytest.fixture(scope="session")
def wsys_mix25(sf_mix25):
    return contact_system(sf_mix25)


@pytest.fixture(scope="session")
def wsys_mix4(sf_mix4):
    return contact_system(sf_mix4)
