"""Triangulation, projection, and resolution math.

Expected values are hand evaluations of the closed-form equations, written
out in full so the oracle is visible next to each assertion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sltrack import (RigConfig, TriangulationError, WorldPosition,
                     depth_resolution, project, triangulate)


def reference_triangulate(rig, u, v, v_b):
    """The two formulas ``triangulate`` replaced, as they read: depth from
    the row disparity, then the column offset from ``u0`` scaled out to that
    depth, then the position."""
    def depth(v_f, v_b):
        if v_f == v_b:
            return rig.z_b
        denom = rig.d * rig.f + rig.z_b * (v_f - v_b)
        if denom <= 0:
            raise TriangulationError(
                f"non-positive depth denominator {denom:.6g} "
                f"(disparity {v_f - v_b:.3f} px): reflection behind camera"
            )
        return rig.d * rig.f * rig.z_b / denom

    def lateral(u_f, z_f):
        if not z_f > 0:
            raise ValueError("z_f: must be > 0")
        return u_f * z_f / rig.f

    z = depth(v, v_b)
    return WorldPosition(x=lateral(u - rig.u0, z), z=z)


def test_depth_zero_disparity_returns_wall_depth_exactly(rig):
    assert triangulate(rig, 160.0, 160.0, 160.0).z == 400.0
    # exactness must not depend on round numbers
    odd = RigConfig(d=37.3, f=411.7, z_b=389.9, width=320, height=240)
    assert triangulate(odd, 160.0, 123.456, 123.456).z == 389.9


def test_depth_hand_evaluated_case(rig):
    # 40*400*400 / (40*400 + 400*40) = 6_400_000 / 32_000 = 200
    assert triangulate(rig, 160.0, 200.0, 160.0).z == pytest.approx(200.0, rel=1e-9)


def test_depth_denominator_zero_raises(rig):
    # disparity -40: denominator 16000 + 400*(-40) = 0
    with pytest.raises(TriangulationError, match="non-positive depth denominator 0 "):
        triangulate(rig, 160.0, 120.0, 160.0)
    with pytest.raises(TriangulationError):
        triangulate(rig, 160.0, 100.0, 160.0)  # negative denominator


def test_depth_strictly_decreasing_in_row(rig):
    rows = np.linspace(160.0, 238.0, 300)
    depths = [triangulate(rig, 160.0, v, 160.0).z for v in rows]
    assert all(a > b for a, b in zip(depths, depths[1:]))


def test_lateral_hand_evaluated_cases(rig):
    # row 184: 6_400_000 / (16000 + 400*24) = 250
    assert triangulate(rig, 160.0, 184.0, 160.0) == WorldPosition(0.0, 250.0)
    # (260 - 160) * 200 / 400 = 50
    assert triangulate(rig, 260.0, 200.0, 160.0).x == pytest.approx(50.0, rel=1e-9)
    assert triangulate(rig, 60.0, 200.0, 160.0).x == pytest.approx(-50.0, rel=1e-9)


def test_lateral_linear_and_odd(rig):
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = float(rng.uniform(-160, 160))
        v = float(rng.uniform(160.0, 16_120.0))  # depths from ~1 cm to the wall
        k = float(rng.uniform(-3, 3))
        base = triangulate(rig, rig.u0 + u, v, 160.0).x
        assert triangulate(rig, rig.u0 - u, v, 160.0).x == pytest.approx(-base, abs=1e-12)
        assert (triangulate(rig, rig.u0 + k * u, v, 160.0).x
                == pytest.approx(k * base, rel=1e-12, abs=1e-12))


@st.composite
def _rigs(draw) -> RigConfig:
    """A rig of random baseline, focal length, depth, principal point and
    sensor, its wall row on the sensor."""
    d = draw(st.floats(0.5, 100.0))
    f = draw(st.floats(10.0, 2000.0))
    z_b = draw(st.floats(50.0, 1000.0))
    v0 = draw(st.floats(0.0, 500.0))
    height = int(v0 + d * f / z_b) + draw(st.integers(1, 500))
    width = draw(st.integers(1, 2**24 // height))
    u0 = draw(st.floats(0.0, width, exclude_max=True))
    return RigConfig(d=d, f=f, z_b=z_b, width=width, height=height, u0=u0, v0=v0)


def _outcome(fn, *args):
    try:
        pos = fn(*args)
    except TriangulationError as exc:
        return "TriangulationError", str(exc)
    except ValueError:
        return "ValueError"
    return pos.x.hex(), pos.z.hex()


# ints as detect_feet and calibrate give rows, floats as project gives them
_coordinate = st.one_of(st.integers(-500, 5000), st.floats(-500.0, 5000.0))


@settings(max_examples=1000, deadline=None, database=None)
@given(rig=_rigs(), u=_coordinate, v=_coordinate, v_b=_coordinate,
       same_row=st.booleans())
# a denominator of exactly zero: 16000 + 400 * (120 - 160)
@example(rig=RigConfig(d=40.0, f=400.0, z_b=400.0, width=320, height=240),
         u=160.0, v=120, v_b=160, same_row=False)
def test_triangulate_is_the_reference_formulas_to_the_bit(rig, u, v, v_b, same_row):
    # the CSV's three decimals hide a one-ulp change; this compares every bit
    if same_row:
        v = v_b
    assert _outcome(triangulate, rig, u, v, v_b) == _outcome(
        reference_triangulate, rig, u, v, v_b)


def test_project_back_wall_point_on_axis(rig):
    pt = project(rig, WorldPosition(x=0.0, z=400.0))
    assert pt == (160.0, 160.0)  # v0 + d*f/z_b = 120 + 40


def test_project_hand_evaluated_row(rig):
    # d*f/z = 16000/200 = 80 below the principal row
    _, v = project(rig, WorldPosition(x=0.0, z=200.0))
    assert v == pytest.approx(120.0 + 80.0, rel=1e-12)


def test_project_rejects_bad_depth(rig):
    with pytest.raises(ValueError):
        project(rig, WorldPosition(x=0.0, z=401.0))
    with pytest.raises(ValueError):
        WorldPosition(x=0.0, z=0.0)


def test_project_triangulate_round_trip_10k(rig):
    # project followed by triangulation is the algebraic identity
    rng = np.random.default_rng(7)
    v_b = rig.back_wall_row
    for _ in range(10_000):
        z = float(rng.uniform(1.0, rig.z_b))
        x = float(rng.uniform(-500.0, 500.0))
        u, v = project(rig, WorldPosition(x=x, z=z))
        pos = triangulate(rig, u, v, v_b)
        assert pos.z == pytest.approx(z, rel=1e-9)
        assert pos.x == pytest.approx(x, rel=1e-9, abs=1e-9)


def test_depth_resolution_hand_evaluated(rig):
    assert depth_resolution(rig, 200.0) == pytest.approx(2.5, rel=1e-12)   # 200^2/16000
    assert depth_resolution(rig, 400.0) == pytest.approx(10.0, rel=1e-12)  # 400^2/16000


def test_depth_resolution_monotone_in_depth(rig):
    depths = np.linspace(10.0, 400.0, 100)
    res = [depth_resolution(rig, z) for z in depths]
    assert all(a < b for a, b in zip(res, res[1:]))


def test_depth_resolution_matches_finite_difference_row_slope(rig):
    # resolution * |dv/dz| == 1, dv/dz estimated by central differences
    for z in (60.0, 135.0, 200.0, 333.0, 399.0):
        h = z * 1e-4
        _, v_plus = project(rig, WorldPosition(0.0, z + h))
        _, v_minus = project(rig, WorldPosition(0.0, z - h))
        slope = abs((v_plus - v_minus) / (2 * h))
        assert depth_resolution(rig, z) * slope == pytest.approx(1.0, abs=1e-6)


def test_rig_validation():
    with pytest.raises(ValueError, match="d"):
        RigConfig(d=0.0, f=400, z_b=400, width=320, height=240)
    with pytest.raises(ValueError, match="u0"):
        RigConfig(d=40, f=400, z_b=400, width=320, height=240, u0=320.0)
    # wall row at v0 + 160 = 280: off the 240-row sensor
    with pytest.raises(ValueError, match="back-wall"):
        RigConfig(d=40, f=400, z_b=100, width=320, height=240, v0=120.0)


@pytest.mark.parametrize("name,value", [
    ("width", 320.0), ("height", 240.0), ("width", True),
], ids=["float-width", "float-height", "bool-width"])
def test_rig_refuses_dimensions_that_are_not_ints(name, value):
    # a float width was accepted, and render then failed on it
    with pytest.raises(ValueError, match=f"^{name}: must be an int, got {value}$"):
        RigConfig(**{"d": 40, "f": 400, "z_b": 400, "width": 320, "height": 240,
                     name: value})


def test_principal_point_defaults_to_frame_center():
    rig = RigConfig(d=40, f=400, z_b=400, width=320, height=240)
    assert (rig.u0, rig.v0) == (160.0, 120.0)
