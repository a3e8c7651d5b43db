"""Photometric geometry for LED downlinks.

Lambertian emission orders, one line-of-sight kernel (`channel_gain_many`),
and the per-configuration beam poses used by the three light-source layouts
(a: wide fixed, b: steered narrow data beam, c: multi-chip with fixed narrow
beams). The kernel gives the channel gain seen by a photodiode and, as the
gain of a unit aperture facing up with no concentrator and no field-of-view
cutoff, the horizontal illuminance gain on the desk plane (Komine and
Nakagawa 2004 use the one law for both).

The kernel takes points and directions component first, shape (3, ...):
each of x, y and z is then one contiguous array, and every product and sum
runs over those arrays rather than over strided views of an (..., 3) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .scenario import AccessPoint, Chip

Vec3 = tuple[float, float, float]

_UNIT_TOL = 1e-9


def lambertian_order(theta_half_deg: float) -> float:
    """Lambertian mode number for a source with the given half-power semi-angle.

    Defined for semi-angles strictly between 0 and 90 degrees; tends to
    +inf as the beam narrows and to 0 as it widens toward a hemisphere.
    """
    if not 0.0 < theta_half_deg < 90.0:
        raise ValueError(
            f"theta_half_deg={theta_half_deg!r}: semi-angle must lie in (0, 90) degrees"
        )
    return -math.log(2.0) / math.log(math.cos(math.radians(theta_half_deg)))


@dataclass(frozen=True)
class BeamPose:
    """Origin, unit pointing direction and Lambertian order of one emitter."""

    origin: Vec3
    direction: Vec3
    ml: float

    def __post_init__(self) -> None:
        norm = math.hypot(*self.direction)
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"beam direction must be a unit vector, |d|={norm}")
        if not self.ml > 0.0:
            raise ValueError(f"lambertian order must be positive, got {self.ml}")


def _unit(v: Sequence[float]) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        raise ValueError("zero-length vector has no direction")
    return a / n


def as_components(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Points or directions given one per row, (n, 3), as the contiguous
    component-first (3, n) array the kernel takes."""
    return np.array(points, dtype=float).reshape(-1, 3).T.copy()


def pose_arrays(poses: Sequence[BeamPose]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origins (3, n), directions (3, n) and Lambertian orders (n,) of the
    given emitters, for the vectorised gains."""
    return (as_components([p.origin for p in poses]),
            as_components([p.direction for p in poses]),
            np.array([p.ml for p in poses], dtype=float).reshape(len(poses)))


def channel_gain(
    tx: BeamPose,
    rx_position: Sequence[float],
    rx_normal: Sequence[float],
    *,
    area_m2: float,
    fov_half_deg: float,
    filter_gain: float = 1.0,
    lens_index: float = 1.5,
) -> float:
    """LOS DC channel gain at a photodiode, zero outside its field of view.

    Uses an idealised non-imaging concentrator: gain lens_index^2 / sin^2(FOV)
    inside the field of view, nothing outside.
    """
    # evaluated on 1-element arrays: a numpy scalar's ** calls libm pow, which
    # differs in the last ulp from the array loop on some inputs, so only
    # arrays give a link's own gain bit for bit what a batch gives it
    return float(channel_gain_many(
        *pose_arrays([tx]), np.reshape(rx_position, (3, 1)), np.reshape(rx_normal, (3, 1)),
        area_m2=area_m2, fov_half_deg=fov_half_deg, filter_gain=filter_gain,
        lens_index=lens_index)[0])


def channel_gain_many(
    origin: np.ndarray,
    direction: np.ndarray,
    ml: np.ndarray,
    rx_position: np.ndarray,
    rx_normal: np.ndarray,
    *,
    area_m2: float | np.ndarray,
    fov_half_deg: float | np.ndarray,
    filter_gain: float | np.ndarray = 1.0,
    lens_index: float | np.ndarray = 1.5,
) -> np.ndarray:
    """Vectorised channel_gain over emitters and receivers that broadcast
    against each other; points and directions are (3, ...) arrays, x, y and
    z along the first axis, and the Lambertian orders and receiver numbers
    broadcast against what follows it.

    Emitter directions must be unit vectors (a BeamPose checks that);
    receiver normals are normalised here.
    """
    (ox, oy, oz), (ex, ey, ez), (px, py, pz), (nx, ny, nz) = (
        np.asarray(v, dtype=float) for v in (origin, direction, rx_position, rx_normal))
    n_len = np.sqrt(nx * nx + ny * ny + nz * nz)
    if np.any(n_len < 1e-12):
        raise ValueError("zero-length vector has no direction")
    dx, dy, dz = px - ox, py - oy, pz - oz
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(dist < 1e-12):
        raise ValueError("transmitter and receiver are co-located")
    ux, uy, uz = dx / dist, dy / dist, dz / dist
    cos_rad = np.maximum(ux * ex + uy * ey + uz * ez, 0.0)
    cos_inc = -(ux * (nx / n_len) + uy * (ny / n_len) + uz * (nz / n_len))
    fov = np.radians(fov_half_deg)
    sin_fov = np.sin(fov)  # squared as a product: a scalar's ** 2 calls pow
    gain = (
        (ml + 1.0)
        * area_m2
        / (2.0 * math.pi * dist * dist)
        * cos_rad**ml
        * filter_gain
        * (lens_index * lens_index / (sin_fov * sin_fov))
        * cos_inc
    )
    # a ray exactly on the edge of the field of view still counts
    return np.where((cos_inc >= np.cos(fov)) & (cos_inc > 0.0), gain, 0.0)


def illum_gain_many(txs: Sequence[BeamPose], points: np.ndarray) -> np.ndarray:
    """Horizontal illuminance gains (1/m^2), (len(txs), K), at K desk-plane
    points: the channel gain of a unit aperture facing +z with no
    concentrator (lens index 1) and no field-of-view cutoff (90 degrees).

    Equal poses (the data beams of links that one chip serves) are evaluated
    once, and their rows copied."""
    row: dict[BeamPose, int] = {}
    index = [row.setdefault(tx, len(row)) for tx in txs]
    origin, direction, ml = pose_arrays(list(row))
    return channel_gain_many(origin[:, :, None], direction[:, :, None], ml[:, None],
                             as_components(points)[:, None], (0.0, 0.0, 1.0),
                             area_m2=1.0, fov_half_deg=90.0, lens_index=1.0)[index]


def _vertical_pose(origin: Vec3, theta_half_deg: float) -> BeamPose:
    return BeamPose(origin, (0.0, 0.0, -1.0), lambertian_order(theta_half_deg))


def _aimed_pose(origin: Vec3, target: Sequence[float], theta_half_deg: float) -> BeamPose:
    d = _unit(np.asarray(target, float) - np.asarray(origin, float))
    return BeamPose(origin, (float(d[0]), float(d[1]), float(d[2])), lambertian_order(theta_half_deg))


def coverage_center(ap: "AccessPoint", chip: "Chip", plane_z: float) -> Vec3:
    """Desk-plane point a fixed narrow-beam chip is aimed at."""
    o = np.asarray(ap.position, float)
    d = np.asarray(chip.beam_direction, float)
    if d[2] >= -1e-12:
        raise ValueError("chip beam does not point down toward the desk plane")
    t = (plane_z - o[2]) / d[2]
    p = o + t * d
    return (float(p[0]), float(p[1]), float(plane_z))


def lighting_pose(ap: "AccessPoint", chip: "Chip") -> BeamPose:
    """Pose of a lighting chip's DC emission: straight down with its wide
    semi-angle, in every layout (config c lights with its central chip)."""
    return _vertical_pose(ap.position, chip.theta_half_dc_deg)


def beam_for_link(
    config_kind: str,
    ap: "AccessPoint",
    chip: "Chip",
    ut_position: Sequence[float],
) -> BeamPose:
    """AC (data) pose for a link served by `chip`.

    Config a: vertical with the chip's wide semi-angle.
    Config b: the data beam tracks the terminal.
    Config c: the data beam is the serving peripheral chip's fixed pose;
    asking for AC on any other chip of the same access point is an error.
    """
    if config_kind == "a":
        return _vertical_pose(ap.position, chip.theta_half_ac_deg)
    if config_kind == "b":
        return _aimed_pose(ap.position, ut_position, chip.theta_half_ac_deg)
    if config_kind == "c":
        if chip.role != "peripheral":
            raise ValueError("config c carries data only on peripheral chips")
        serving = serving_chip_index(ap, ut_position)
        if ap.chips[serving] is not chip:
            raise ValueError(
                "config c: requested chip is not the serving chip for this terminal"
            )
        return BeamPose(ap.position, chip.beam_direction, lambertian_order(chip.theta_half_ac_deg))
    raise ValueError(f"unknown config kind {config_kind!r}")


def serving_chip_index(ap: "AccessPoint", ut_position: Sequence[float]) -> int:
    """Index of the peripheral chip whose coverage center is nearest the terminal."""
    ut = np.asarray(ut_position, float)
    best = -1
    best_d = math.inf
    for i, chip in enumerate(ap.chips):
        if chip.role != "peripheral":
            continue
        c = np.asarray(coverage_center(ap, chip, float(ut[2])), float)
        d = float(np.linalg.norm(c[:2] - ut[:2]))
        if d < best_d - 1e-12 or (abs(d - best_d) <= 1e-12 and best < 0):
            best, best_d = i, d
    if best < 0:
        raise ValueError("access point has no peripheral chips")
    return best

