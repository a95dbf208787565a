import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypca import geometry as geo

finite = st.floats(-3.0, 3.0, allow_nan=False)


def unit_direction(angles):
    a = np.asarray(angles)
    return np.array([np.cos(a[0]), np.sin(a[0])])


@given(st.floats(0.1, 2.5), st.floats(0.0, 6.28))
def test_point_at_on_hyperboloid(dist, angle):
    x = geo.point_at(dist, unit_direction([angle]))
    assert abs(geo.mdot(x, x) - 1.0) < 1e-12
    assert x[0] >= 1.0


@given(st.floats(0.1, 2.5), st.floats(0.0, 6.28))
def test_plane_normal_unit_and_foot(dist, angle):
    d = unit_direction([angle])
    n = geo.plane_normal_through(dist, d)
    assert abs(geo.mdot(n, n) + 1.0) < 1e-12
    # the foot of the plane lies on it
    assert abs(geo.mdot(geo.point_at(dist, d), n)) < 1e-12


@given(st.floats(0.1, 2.0), st.floats(0.0, 6.28), st.floats(0.1, 2.0),
       st.floats(0.0, 6.28))
def test_reflection_is_lorentz_involution(pd, pa, qd, qa):
    n = geo.plane_normal_through(pd, unit_direction([pa]))
    r = geo.reflection(n)
    x = geo.point_at(qd, unit_direction([qa]))
    y = r @ x
    assert abs(geo.mdot(y, y) - 1.0) < 1e-9
    assert np.allclose(r @ r, np.eye(3), atol=1e-12)
    # a point on the plane is fixed
    foot = geo.point_at(pd, unit_direction([pa]))
    assert np.allclose(r @ foot, foot, atol=1e-12)


@given(st.floats(0.0, 4.0), st.floats(0.0, 6.28))
def test_poincare_disk_inside_unit_circle(dist, angle):
    x = geo.point_at(dist, unit_direction([angle]))
    uv = geo.to_poincare_disk(x)
    assert np.linalg.norm(uv) < 1.0


def test_line_frame_orthonormal():
    n = geo.plane_normal_through(0.7, np.array([0.0, 1.0]))
    p0, w = geo.line_frame([n])
    assert abs(geo.mdot(p0, p0) - 1.0) < 1e-10
    assert abs(geo.mdot(w, w) + 1.0) < 1e-10
    assert abs(geo.mdot(p0, w)) < 1e-10
    assert abs(geo.mdot(p0, n)) < 1e-10 and abs(geo.mdot(w, n)) < 1e-10


def test_line_frame_rejects_bad_cut():
    n = geo.plane_normal_through(0.5, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        geo.line_frame([n, n])

