from __future__ import annotations

from pathlib import Path

import pytest

from sltrack import (Calibration, DetectParams, Frame, IntensityModel, NoiseParams,
                     RigConfig)

REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent
                       / "configs" / "reference.json")


# The sha256 of each reference output, by name, from the one file that pins
# them, in sha256sum format, which CI's installed-command script checks too.
# simulate.bin is the reference config's simulate clip: its frames in name
# order, then truth.csv. estimates.csv and metrics.json are track and
# evaluate --json of that clip, calibrated on the README's empty frame.
REFERENCE_DIGESTS = {
    name: digest for digest, name in map(str.split, (
        Path(__file__).resolve().parent / "reference-outputs.sha256"
    ).read_text(encoding="ascii").splitlines())
}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Append an expected failure's message to its reason, so that
    ``pytest -rx`` prints what the test measured beside the reason."""
    outcome = yield
    rep = outcome.get_result()
    if getattr(rep, "wasxfail", "") and call.excinfo is not None:
        measured = str(call.excinfo.value).partition("\n")[0]
        rep.wasxfail += f" | {measured}"


def file_of(data: bytes | str, path: Path) -> str:
    """``data``, text as UTF-8, written to ``path``; the path as a str."""
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return str(path)


@pytest.fixture
def rig() -> RigConfig:
    """Reference rig used across the suite: 40 cm baseline, 400 px focal
    length, 4 m deep room, 320x240 sensor centered at (160, 120)."""
    return RigConfig(d=40.0, f=400.0, z_b=400.0, width=320, height=240,
                     u0=160.0, v0=120.0)


@pytest.fixture
def full_depth_rig() -> RigConfig:
    """The reference rig with its sensor extended from 240 to 480 rows, for
    acceptance criteria 2 and 3, whose depth windows reach 60 cm.

    Everything the geometry depends on is the reference rig's, so the wall
    still images at row 160 and depth resolution is unchanged; the extra
    rows image foot reflections down to 16000/358 ~ 44.7 cm.
    """
    return RigConfig(d=40.0, f=400.0, z_b=400.0, width=320, height=480,
                     u0=160.0, v0=120.0)


@pytest.fixture
def quiet() -> NoiseParams:
    return NoiseParams(background_sigma=0.0, background_mean=0.0, seed=0)


@pytest.fixture
def intensity() -> IntensityModel:
    return IntensityModel(i_ref=60.0, z_ref=400.0)


@pytest.fixture
def detect_params() -> DetectParams:
    return DetectParams(ath_base=10.0, ath_slope=0.5, ath_min=1.0,
                        ath_max=255.0, min_run=3)


# --- scalar oracles of the vectorized detector ----------------------------------

def ath(delta_v: float, p: DetectParams) -> float:
    """Adaptive threshold for a row delta_v pixels below the wall line."""
    if delta_v < 0:
        raise ValueError("delta_v: must be >= 0")
    return min(p.ath_base + p.ath_slope * delta_v, p.ath_max)


def edge_test(frame: Frame, u: int, v: int, cal: Calibration, p: DetectParams) -> bool:
    """Horizontal-edge test at one pixel.

    True iff P(u,v) - (P(u,v+1) + P(u,v-1))/2 exceeds the adaptive
    threshold strictly; an exactly-zero margin is not an edge. Only
    defined below the wall row with both vertical neighbors in frame, and
    read: row v - 1 must not lie above the frame's ``top``.
    """
    if not cal.v_b < v < frame.height - 1:
        raise ValueError(f"v={v} outside scan domain ({cal.v_b}, {frame.height - 1})")
    if v - 1 < frame.top:
        raise ValueError(f"v={v}: row {v - 1} lies above the rows read, {frame.top}..")
    if not 0 <= u < frame.width:
        raise ValueError(f"u={u} outside frame")
    px = frame.pixels
    r = v - frame.top  # the row of v in pixels
    response = (
        float(px[r, u])
        - (float(px[r + 1, u]) + float(px[r - 1, u])) / 2.0
        - ath(v - cal.v_b, p)
    )
    return response > 0.0
