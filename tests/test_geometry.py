"""Triangulation, projection, and resolution math.

Expected values are hand evaluations of the closed-form equations, written
out in full so the oracle is visible next to each assertion.
"""

from __future__ import annotations

import numpy as np
import pytest

from sltrack import (RigConfig, TriangulationError, WorldPosition,
                     depth_resolution, project, triangulate_depth,
                     triangulate_lateral)


def test_depth_zero_disparity_returns_wall_depth_exactly(rig):
    assert triangulate_depth(rig, 160.0, 160.0) == 400.0
    # exactness must not depend on round numbers
    odd = RigConfig(d=37.3, f=411.7, z_b=389.9, width=320, height=240)
    assert triangulate_depth(odd, 123.456, 123.456) == 389.9


def test_depth_hand_evaluated_case(rig):
    # 40*400*400 / (40*400 + 400*40) = 6_400_000 / 32_000 = 200
    assert triangulate_depth(rig, 200.0, 160.0) == pytest.approx(200.0, rel=1e-9)


def test_depth_denominator_zero_raises(rig):
    # disparity -40: denominator 16000 + 400*(-40) = 0
    with pytest.raises(TriangulationError):
        triangulate_depth(rig, 120.0, 160.0)
    with pytest.raises(TriangulationError):
        triangulate_depth(rig, 100.0, 160.0)  # negative denominator


def test_depth_strictly_decreasing_in_row(rig):
    rows = np.linspace(160.0, 238.0, 300)
    depths = [triangulate_depth(rig, v, 160.0) for v in rows]
    assert all(a > b for a, b in zip(depths, depths[1:]))


def test_lateral_hand_evaluated_cases(rig):
    assert triangulate_lateral(rig, 0.0, 250.0) == 0.0
    # 100 * 200 / 400 = 50
    assert triangulate_lateral(rig, 100.0, 200.0) == pytest.approx(50.0, rel=1e-9)
    assert triangulate_lateral(rig, -100.0, 200.0) == pytest.approx(-50.0, rel=1e-9)


def test_lateral_linear_and_odd(rig):
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = float(rng.uniform(-160, 160))
        z = float(rng.uniform(1.0, 400.0))
        k = float(rng.uniform(-3, 3))
        base = triangulate_lateral(rig, u, z)
        assert triangulate_lateral(rig, -u, z) == pytest.approx(-base, abs=1e-12)
        assert triangulate_lateral(rig, k * u, z) == pytest.approx(k * base, rel=1e-12, abs=1e-12)


def test_lateral_requires_positive_depth(rig):
    with pytest.raises(ValueError):
        triangulate_lateral(rig, 10.0, 0.0)


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
    v_b = rig.v0 + rig.d * rig.f / rig.z_b
    for _ in range(10_000):
        z = float(rng.uniform(1.0, rig.z_b))
        x = float(rng.uniform(-500.0, 500.0))
        u, v = project(rig, WorldPosition(x=x, z=z))
        z_hat = triangulate_depth(rig, v, v_b)
        x_hat = triangulate_lateral(rig, u - rig.u0, z_hat)
        assert z_hat == pytest.approx(z, rel=1e-9)
        assert x_hat == pytest.approx(x, rel=1e-9, abs=1e-9)


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
