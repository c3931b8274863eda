import pytest

from polypath.parser import parse_input_file

CIRCLES = """
vars x, y;
f1 = x^2 + y^2 - 1;
f2 = (x - 1)^2 + y^2 - 1;
"""

CIRCLE_LINE = """
vars x, y;
f1 = x^2 + y^2 - 1;
f2 = x - y;
"""

FAMILY = """
vars x, y;
params a, b, c;
f1 = a*x^2 + b*y^2 - c;
f2 = y;
"""

SPHERE_LINE = """
vars x, y, z;
f1 = (y^2 + x^2 + z^2 - 1)*x;
f2 = (y^2 + x^2 + z^2 - 1)*y;
"""

QUADRICS = """
vars x, y, z;
projective;
f1 = y^2 - 4*z^2;
f2 = 16*x^2 - y^2;
"""

CONIC_POINT = """
vars x, y, z;
projective;
f1 = (x^2 + y^2 - z^2)*(z - x);
f2 = (x^2 + y^2 - z^2)*(z + y);
"""

XY_LINES = """
vars x, y;
f1 = x*y;
"""

KATSURA4 = """
vars x0, x1, x2, x3, x4;
f1 = x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 - x0;
f2 = 2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 - x1;
f3 = 2*x0*x2 + x1^2 + 2*x1*x3 + 2*x2*x4 - x2;
f4 = 2*x0*x3 + 2*x1*x2 + 2*x1*x4 - x3;
f5 = x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 - 1;
"""

KATSURA5 = """
vars x0, x1, x2, x3, x4, x5;
f1 = x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 + 2*x5^2 - x0;
f2 = 2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5 - x1;
f3 = 2*x0*x2 + x1^2 + 2*x1*x3 + 2*x2*x4 + 2*x3*x5 - x2;
f4 = 2*x0*x3 + 2*x1*x2 + 2*x1*x4 + 2*x2*x5 - x3;
f5 = 2*x0*x4 + 2*x1*x3 + x2^2 + 2*x1*x5 - x4;
f6 = x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 + 2*x5 - 1;
"""

CYCLIC5 = """
vars z0, z1, z2, z3, z4;
f1 = z0 + z1 + z2 + z3 + z4;
f2 = z0*z1 + z1*z2 + z2*z3 + z3*z4 + z4*z0;
f3 = z0*z1*z2 + z1*z2*z3 + z2*z3*z4 + z3*z4*z0 + z4*z0*z1;
f4 = z0*z1*z2*z3 + z1*z2*z3*z4 + z2*z3*z4*z0 + z3*z4*z0*z1 + z4*z0*z1*z2;
f5 = z0*z1*z2*z3*z4 - 1;
"""


def _system(text):
    return parse_input_file(text).system


@pytest.fixture(scope="session")
def circles():
    return _system(CIRCLES)


@pytest.fixture(scope="session")
def circle_line():
    return _system(CIRCLE_LINE)


@pytest.fixture(scope="session")
def family():
    return _system(FAMILY)


@pytest.fixture(scope="session")
def sphere_line():
    return _system(SPHERE_LINE)


@pytest.fixture(scope="session")
def quadrics():
    return _system(QUADRICS)


@pytest.fixture(scope="session")
def conic_point():
    return _system(CONIC_POINT)


@pytest.fixture(scope="session")
def xy_lines():
    return _system(XY_LINES)


@pytest.fixture(scope="session")
def katsura4():
    return _system(KATSURA4)


@pytest.fixture(scope="session")
def katsura5():
    return _system(KATSURA5)


@pytest.fixture(scope="session")
def cyclic5():
    return _system(CYCLIC5)
