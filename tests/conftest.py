import pytest

from curvex.linesys import LineSystem
from curvex.sphere import ProjectiveCurve, contact_map
from curvex.trig import VectorSeries, cos_series, sin_series
from curvex.width import SupportFunction, contact_system


def sphere_curve(g):
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), g))


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
