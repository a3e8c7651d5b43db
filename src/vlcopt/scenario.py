"""Deployment description: room, luminaires, terminals, channels, lighting grid.

A scenario is loaded from a JSON document (or built from the equivalent dict),
validated eagerly, and then treated as immutable. Candidate downlinks are
derived here because they fix per-link beam poses and interference-free rates
that every later stage shares.

The `Receiver` and `PhysicalConstants` dataclasses hold the only copy of
their defaults, and the canonical form that `Scenario.digest` hashes takes
their fields, and `Chip`'s, from the dataclasses themselves.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import capacity, optics
from .optics import BeamPose, Vec3

CONFIG_KINDS = ("a", "b", "c")
ORIENTATIONS = ("face_up", "face_serving_tx")


class ScenarioError(ValueError):
    """Raised when a scenario document violates a structural rule."""


def _require(cond: bool, field_name: str, rule: str) -> None:
    if not cond:
        raise ScenarioError(f"{field_name}: {rule}")


def _object(raw: Any, field_name: str) -> dict:
    _require(isinstance(raw, dict), field_name, "must be a JSON object")
    return raw


_NOT_NUMBERS = (TypeError, ValueError, OverflowError)  # what int()/float() raise


def _numbers(raw: dict, where: str, defaults: dict) -> dict:
    """`defaults` with `raw`'s values for the same names, each converted to
    its default's type; an int field takes only a whole number (not 2.5)."""
    out = dict(defaults)
    try:
        for name, default in defaults.items():
            value = raw.get(name, default)
            out[name] = number = type(default)(value)
            if isinstance(default, int) and number != value:
                raise ValueError(name)
    except _NOT_NUMBERS:
        kind = "a whole number" if isinstance(defaults[name], int) else "a number"
        raise ScenarioError(f"{where}{name}: must be {kind}") from None
    return out


@dataclass(frozen=True)
class Receiver:
    area_m2: float = 1e-4
    fov_half_deg: float = 60.0
    filter_gain: float = 1.0
    lens_index: float = 1.5


@dataclass(frozen=True)
class Channel:
    index: int
    bandwidth_hz: float


@dataclass(frozen=True)
class Chip:
    role: str  # sole | central | peripheral
    beam_direction: Vec3
    theta_half_ac_deg: float
    theta_half_dc_deg: float
    p_max: float
    p_ac_pp: float
    p_ac_avg: float
    eta_ac: float
    eta_dc: float

    @property
    def dc_capable(self) -> bool:
        return self.role in ("sole", "central")


@dataclass(frozen=True)
class AccessPoint:
    index: int
    position: Vec3
    chips: tuple[Chip, ...]


@dataclass(frozen=True)
class UserTerminal:
    index: int
    position: Vec3
    demand_bps: float
    n_receivers: int = 1


@dataclass(frozen=True)
class IlluminanceGrid:
    lower_lux: float
    upper_lux: float
    ambient_lux: float
    positions: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class PhysicalConstants:
    noise_variance: float = 4.7e-14
    luminosity_efficacy: float = 300.0
    responsivity: float = 0.54


@dataclass(frozen=True)
class Link:
    """One candidate downlink: (access point, chip) -> (terminal, receiver)."""

    index: int
    ap_index: int
    chip_index: int
    ut_index: int
    rx_index: int
    channel_index: int
    ac_pose: BeamPose
    rx_position: Vec3
    rx_normal: Vec3
    receiver: Receiver
    bandwidth_hz: float
    gain: float
    capacity_protocol: float
    p_ac_pp: float
    p_ac_avg: float
    eta_ac: float


@dataclass(eq=False)
class Scenario:
    room: Vec3
    desk_height: float
    config_kind: str
    association_k: int
    aps: tuple[AccessPoint, ...]
    uts: tuple[UserTerminal, ...]
    channels: tuple[Channel, ...]
    receiver: Receiver
    illum: IlluminanceGrid
    constants: PhysicalConstants
    rx_orientation: str
    source: dict = field(default_factory=dict, repr=False)

    def grid_points(self) -> np.ndarray:
        return self._grid_points

    @cached_property
    def _grid_points(self) -> np.ndarray:
        pts = np.array(
            [(x, y, self.desk_height) for x, y in self.illum.positions], dtype=float
        )
        pts.setflags(write=False)
        return pts

    def dc_transmitters(self) -> tuple[tuple[int, int], ...]:
        """(ap_index, chip_index) pairs that can carry lighting current."""
        return self._dc_transmitters

    @cached_property
    def _dc_transmitters(self) -> tuple[tuple[int, int], ...]:
        out = []
        for ap in self.aps:
            for ci, chip in enumerate(ap.chips):
                if chip.dc_capable:
                    out.append((ap.index, ci))
        return tuple(out)

    def ap_concurrency_cap(self, ap_index: int) -> int:
        """How many links one access point may activate at the same time.

        Config c interleaves its narrow-beam chips, so despite having several
        data-capable chips an access point drives at most one of them at once.
        """
        if self.config_kind == "c":
            return 1
        return len(self.aps[ap_index].chips)

    def canonical_dict(self) -> dict:
        return _canonicalize(self)

    def digest(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# construction

_DEFAULT_CHIP = {
    "p_max": 12.5,
    "p_ac_pp": 0.1,
    "p_ac_avg": 0.05,
    "eta_ac": 0.02,
    "eta_dc": 0.1,
    "theta_half_wide_deg": 70.0,
    "theta_half_narrow_deg": 30.0,
}

# what the parser fills in for each missing field, in the document's own
# shape; `default_config` writes out a copy
_DEFAULTS: dict[str, Any] = {
    "desk_height": 0.8,
    "config_kind": "a",
    "association_k": 1,
    "aps": {"grid": {"nx": 6, "ny": 6, "spacing": 1.0}},
    "uts": {"demand_bps": 2e7},
    "channels": [{"bandwidth_hz": 1e8}],
    "illum": {"lower_lux": 300.0, "upper_lux": 500.0, "spacing": 0.25, "ambient_lux": 0.0},
    "config_c_n": 2,
}

_VERTICAL: Vec3 = (0.0, 0.0, -1.0)


def default_config(
    config_kind: str = _DEFAULTS["config_kind"],
    n_uts: int = 30,
    seed: int = 7,
    demand_bps: float = _DEFAULTS["uts"]["demand_bps"],
    **extra: Any,
) -> dict:
    """Paper-scale 6 m x 6 m office with a 6 x 6 luminaire grid."""
    return {
        "room": [6.0, 6.0, 3.0],
        **copy.deepcopy(_DEFAULTS),
        "config_kind": config_kind,
        "uts": {"count": n_uts, "seed": seed, "demand_bps": demand_bps},
        "chip": dict(_DEFAULT_CHIP),
        "receiver": asdict(Receiver()),
        "constants": asdict(PhysicalConstants()),
        **extra,
    }


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("document: must be a JSON object")
    room_raw = doc.get("room")
    _require(isinstance(room_raw, (list, tuple)) and len(room_raw) == 3, "room", "must be [Lx, Ly, H]")
    try:
        room = tuple(float(v) for v in room_raw)
    except _NOT_NUMBERS:
        raise ScenarioError("room: dimensions must be numbers") from None
    _require(all(v > 0 for v in room), "room", "dimensions must be positive")
    top = _numbers(doc, "", {k: _DEFAULTS[k] for k in ("desk_height", "association_k", "config_c_n")})
    desk = top["desk_height"]
    _require(0.0 < desk < room[2], "desk_height", "must lie strictly between floor and ceiling")
    kind = doc.get("config_kind", _DEFAULTS["config_kind"])
    _require(kind in CONFIG_KINDS, "config_kind", f"must be one of {CONFIG_KINDS}")

    chip_cfg = _numbers(_object(doc.get("chip", {}), "chip"), "chip.", _DEFAULT_CHIP)
    for name in ("p_max", "p_ac_pp", "p_ac_avg", "eta_ac", "eta_dc"):
        _require(chip_cfg[name] > 0, f"chip.{name}", "must be positive")
    _require(chip_cfg["p_ac_pp"] <= chip_cfg["p_max"], "chip.p_ac_pp", "must not exceed chip.p_max")
    _require(chip_cfg["p_ac_avg"] <= chip_cfg["p_ac_pp"], "chip.p_ac_avg", "must not exceed chip.p_ac_pp")
    for name in ("eta_ac", "eta_dc"):
        _require(chip_cfg[name] <= 1.0, f"chip.{name}", "must be <= 1")
    _require(chip_cfg["eta_ac"] <= chip_cfg["eta_dc"], "chip.eta_ac",
             "must not exceed chip.eta_dc")
    for name in ("theta_half_wide_deg", "theta_half_narrow_deg"):
        _require(0.0 < chip_cfg[name] < 90.0, f"chip.{name}", "must lie in (0, 90) degrees")

    n_grid_spacing, ap_positions = _expand_aps(doc.get("aps"), room)
    cfg_c_n, cell = top["config_c_n"], 1.0
    if kind == "c":
        _require(cfg_c_n > 0 and cfg_c_n % 2 == 0, "config_c_n", "must be a positive multiple of 2")
        cell = _numbers(doc, "", {"config_c_cell_size": n_grid_spacing or 0.0})
        cell = cell["config_c_cell_size"]
        _require(cell > 0, "config_c_cell_size",
                 "must be positive; required when access points are listed explicitly")
    aps = tuple(
        AccessPoint(i, pos, _build_chips(kind, pos, chip_cfg, cfg_c_n, cell, desk))
        for i, pos in enumerate(ap_positions)
    )
    _require(len(aps) > 0, "aps", "at least one access point required")
    for ap in aps:
        _require(abs(ap.position[2] - room[2]) <= 1e-9, f"aps[{ap.index}]", "must sit on the ceiling plane")
        _require(0.0 <= ap.position[0] <= room[0] and 0.0 <= ap.position[1] <= room[1],
                 f"aps[{ap.index}]", "must lie inside the room footprint")

    uts = _expand_uts(doc.get("uts"), room, desk)
    _require(len(uts) > 0, "uts", "at least one terminal required")

    ch_raw = doc.get("channels", _DEFAULTS["channels"])
    _require(isinstance(ch_raw, list) and len(ch_raw) > 0, "channels", "must be a non-empty list")
    channels = []
    for i, ch in enumerate(ch_raw):
        bw = _numbers(_object(ch, f"channels[{i}]"), f"channels[{i}].",
                      _DEFAULTS["channels"][0])["bandwidth_hz"]
        _require(bw > 0, f"channels[{i}].bandwidth_hz", "must be positive")
        channels.append(Channel(i, bw))

    receiver = Receiver(**_numbers(_object(doc.get("receiver", {}), "receiver"), "receiver.",
                                   vars(Receiver())))
    _require(receiver.area_m2 > 0, "receiver.area_m2", "must be positive")
    _require(0.0 < receiver.fov_half_deg <= 90.0, "receiver.fov_half_deg", "must lie in (0, 90]")
    _require(receiver.filter_gain > 0, "receiver.filter_gain", "must be positive")
    _require(receiver.lens_index > 0, "receiver.lens_index", "must be positive")

    illum = _expand_illum(_object(doc.get("illum", {}), "illum"), room)

    constants = PhysicalConstants(**_numbers(
        _object(doc.get("constants", {}), "constants"), "constants.", vars(PhysicalConstants())))
    _require(constants.noise_variance > 0, "constants.noise_variance", "must be positive")
    _require(constants.luminosity_efficacy > 0, "constants.luminosity_efficacy", "must be positive")
    _require(constants.responsivity > 0, "constants.responsivity", "must be positive")

    k = top["association_k"]
    _require(1 <= k <= len(aps), "association_k", "must lie in [1, number of access points]")

    orientation = doc.get("rx_orientation")
    if orientation is None:
        orientation = "face_up" if kind == "a" else "face_serving_tx"
    _require(orientation in ORIENTATIONS, "rx_orientation", f"must be one of {ORIENTATIONS}")

    return Scenario(
        room=room,
        desk_height=desk,
        config_kind=kind,
        association_k=k,
        aps=aps,
        uts=uts,
        channels=tuple(channels),
        receiver=receiver,
        illum=illum,
        constants=constants,
        rx_orientation=orientation,
        source=doc,
    )


def _expand_aps(raw: Any, room: Vec3) -> tuple[Optional[float], list[Vec3]]:
    if raw is None:
        raw = _DEFAULTS["aps"]
    if isinstance(raw, dict) and "grid" in raw:
        g = _object(raw["grid"], "aps.grid")
        for key in ("nx", "ny", "spacing"):
            _require(key in g, f"aps.grid.{key}", "missing")
        g = _numbers(g, "aps.grid.", {"nx": 0, "ny": 0, "spacing": 0.0})
        nx, ny, sp = g["nx"], g["ny"], g["spacing"]
        _require(nx > 0 and ny > 0, "aps.grid", "nx and ny must be positive")
        _require(sp > 0, "aps.grid.spacing", "must be positive")
        x0 = (room[0] - (nx - 1) * sp) / 2.0
        y0 = (room[1] - (ny - 1) * sp) / 2.0
        positions = [
            (x0 + i * sp, y0 + j * sp, room[2]) for j in range(ny) for i in range(nx)
        ]
        return sp, positions
    _require(isinstance(raw, list), "aps", "must be a grid spec or a list of entries")
    positions = []
    for i, entry in enumerate(raw):
        pos = _object(entry, f"aps[{i}]").get("position")
        _require(isinstance(pos, (list, tuple)) and len(pos) == 3, f"aps[{i}].position", "must be [x, y, z]")
        try:
            positions.append(tuple(float(v) for v in pos))
        except _NOT_NUMBERS:
            raise ScenarioError(f"aps[{i}].position: must hold numbers") from None
    return None, positions


def _build_chips(kind: str, ap_pos: Vec3, chip_cfg: dict, n: int, cell: float, desk: float) -> tuple[Chip, ...]:
    common = dict(chip_cfg)  # the _DEFAULT_CHIP names: two angles, then Chip's power fields
    wide, narrow = common.pop("theta_half_wide_deg"), common.pop("theta_half_narrow_deg")
    if kind == "a":
        return (Chip("sole", _VERTICAL, wide, wide, **common),)
    if kind == "b":
        return (Chip("sole", _VERTICAL, narrow, wide, **common),)
    chips = [Chip("central", _VERTICAL, narrow, wide, **common)]
    # peripheral beams target the centers of the n x n sub-squares of this
    # luminaire's cell, projected on the desk plane
    drop = ap_pos[2] - desk
    for j in range(n):
        for i in range(n):
            cx = ap_pos[0] + ((i + 0.5) / n - 0.5) * cell
            cy = ap_pos[1] + ((j + 0.5) / n - 0.5) * cell
            d = np.array([cx - ap_pos[0], cy - ap_pos[1], -drop])
            d /= np.linalg.norm(d)
            chips.append(
                Chip("peripheral", (float(d[0]), float(d[1]), float(d[2])), narrow, wide, **common)
            )
    return tuple(chips)


def _expand_uts(raw: Any, room: Vec3, desk: float) -> tuple[UserTerminal, ...]:
    _require(raw is not None, "uts", "missing")
    if isinstance(raw, dict):
        _require("count" in raw, "uts.count", "missing")
        spec = _numbers(raw, "uts.", {"count": 0, "seed": 0, **_DEFAULTS["uts"]})
        count, seed, demand = spec["count"], spec["seed"], spec["demand_bps"]
        _require(count > 0, "uts.count", "must be positive")
        _require(seed >= 0, "uts.seed", "must be >= 0")
        _require(demand >= 0, "uts.demand_bps", "must be >= 0")
        rng = np.random.default_rng(seed)
        xy = rng.uniform([0.0, 0.0], [room[0], room[1]], size=(count, 2))
        return tuple(
            UserTerminal(i, (float(x), float(y), desk), demand, 1) for i, (x, y) in enumerate(xy)
        )
    _require(isinstance(raw, list), "uts", "must be a sampling spec or a list of entries")
    out = []
    for i, entry in enumerate(raw):
        pos = _object(entry, f"uts[{i}]").get("position")
        _require(isinstance(pos, (list, tuple)) and len(pos) in (2, 3), f"uts[{i}].position",
                 "must be [x, y] or [x, y, z]")
        try:
            x, y = float(pos[0]), float(pos[1])
            z = float(pos[2]) if len(pos) == 3 else desk
        except _NOT_NUMBERS:
            raise ScenarioError(f"uts[{i}].position: must hold numbers") from None
        _require(abs(z - desk) <= 1e-9, f"uts[{i}].position", "must sit on the desk plane")
        _require(0.0 <= x <= room[0] and 0.0 <= y <= room[1], f"uts[{i}].position",
                 "must lie inside the room footprint")
        # inline rather than through _numbers: this runs once per terminal
        try:
            demand = float(entry.get("demand_bps", 0.0))
        except _NOT_NUMBERS:
            raise ScenarioError(f"uts[{i}].demand_bps: must be a number") from None
        _require(demand >= 0, f"uts[{i}].demand_bps", "must be >= 0")
        n_rx = entry.get("receivers", 1)
        try:
            n = int(n_rx)
        except _NOT_NUMBERS:
            n = 0
        _require(n == n_rx and n >= 1, f"uts[{i}].receivers", "must be a whole number >= 1")
        out.append(UserTerminal(i, (x, y, z), demand, n))
    return tuple(out)


def _expand_illum(raw: dict, room: Vec3) -> IlluminanceGrid:
    num = _numbers(raw, "illum.", _DEFAULTS["illum"])
    lower, upper, ambient = num["lower_lux"], num["upper_lux"], num["ambient_lux"]
    _require(lower >= 0, "illum.lower_lux", "must be >= 0")
    _require(upper >= lower, "illum.upper_lux", "must be >= illum.lower_lux")
    _require(ambient >= 0, "illum.ambient_lux", "must be >= 0")
    if "points" in raw:
        try:
            pts = tuple((float(p[0]), float(p[1])) for p in raw["points"])
        except (*_NOT_NUMBERS, IndexError):
            raise ScenarioError("illum.points: must be a list of [x, y] numbers") from None
        _require(len(pts) > 0, "illum.points", "must be non-empty")
        for i, (x, y) in enumerate(pts):
            _require(0.0 <= x <= room[0] and 0.0 <= y <= room[1], f"illum.points[{i}]",
                     "must lie inside the room footprint")
        return IlluminanceGrid(lower, upper, ambient, pts)
    spacing = num["spacing"]
    _require(spacing > 0, "illum.spacing", "must be positive")
    xs = np.linspace(0.0, room[0], int(round(room[0] / spacing)) + 1)
    ys = np.linspace(0.0, room[1], int(round(room[1] / spacing)) + 1)
    pts = tuple((float(x), float(y)) for y in ys for x in xs)
    return IlluminanceGrid(lower, upper, ambient, pts)


# ---------------------------------------------------------------------------
# candidate links

def build_candidate_links(s: Scenario) -> list[Link]:
    """Candidate downlinks: each terminal's receivers paired with its k nearest
    access points on every channel, with per-link pose, gain and rate."""
    specs = []
    ap_xy = np.array([ap.position[:2] for ap in s.aps])
    for ut in s.uts:
        d = np.linalg.norm(ap_xy - np.asarray(ut.position[:2]), axis=1)
        order = sorted(range(len(s.aps)), key=lambda i: (d[i], i))
        nearest = order[: s.association_k]
        for rx_index in range(ut.n_receivers):
            for ch in s.channels:
                for ap_index in nearest:
                    ap = s.aps[ap_index]
                    chip_index = _serving_chip(s, ap, ut)
                    ac_pose = optics.beam_for_link(s.config_kind, ap, ap.chips[chip_index],
                                                   ut.position)
                    specs.append((ap_index, chip_index, ut, rx_index, ch, ac_pose,
                                  _receiver_normal(s, ap, ut)))
    # one batch: each entry equals that link's own `channel_gain` bit for bit
    rx = s.receiver
    gains = optics.channel_gain_many(
        *optics.pose_arrays([pose for *_, pose, _ in specs]),
        np.array([ut.position for _, _, ut, *_ in specs], dtype=float).reshape(-1, 3),
        np.array([normal for *_, normal in specs], dtype=float).reshape(-1, 3),
        area_m2=rx.area_m2, fov_half_deg=rx.fov_half_deg, filter_gain=rx.filter_gain,
        lens_index=rx.lens_index)
    links: list[Link] = []
    for (ap_index, chip_index, ut, rx_index, ch, ac_pose, rx_normal), gain in zip(
            specs, gains.tolist()):
        chip = s.aps[ap_index].chips[chip_index]
        rate = capacity.protocol_capacity(ch.bandwidth_hz, s.constants.responsivity, gain,
                                          chip.p_ac_pp, s.constants.noise_variance)
        links.append(Link(
            index=len(links), ap_index=ap_index, chip_index=chip_index, ut_index=ut.index,
            rx_index=rx_index, channel_index=ch.index, ac_pose=ac_pose,
            rx_position=ut.position, rx_normal=rx_normal, receiver=rx,
            bandwidth_hz=ch.bandwidth_hz, gain=gain, capacity_protocol=rate,
            p_ac_pp=chip.p_ac_pp, p_ac_avg=chip.p_ac_avg, eta_ac=chip.eta_ac))
    return links


def _serving_chip(s: Scenario, ap: AccessPoint, ut: UserTerminal) -> int:
    if s.config_kind == "c":
        return optics.serving_chip_index(ap, ut.position)
    return 0


def _receiver_normal(s: Scenario, ap: AccessPoint, ut: UserTerminal) -> Vec3:
    if s.rx_orientation == "face_up":
        return (0.0, 0.0, 1.0)
    d = np.asarray(ap.position, float) - np.asarray(ut.position, float)
    d /= np.linalg.norm(d)
    return (float(d[0]), float(d[1]), float(d[2]))


# ---------------------------------------------------------------------------
# canonical form

def _canonicalize(s: Scenario) -> dict:
    return {
        "room": list(s.room),
        "desk_height": s.desk_height,
        "config_kind": s.config_kind,
        "association_k": s.association_k,
        "rx_orientation": s.rx_orientation,
        "aps": [
            {
                "position": list(ap.position),
                "chips": [asdict(c) for c in ap.chips],
            }
            for ap in s.aps
        ],
        "uts": [
            {"position": list(u.position), "demand_bps": u.demand_bps, "receivers": u.n_receivers}
            for u in s.uts
        ],
        "channels": [{"bandwidth_hz": c.bandwidth_hz} for c in s.channels],
        "receiver": asdict(s.receiver),
        "illum": {
            "lower_lux": s.illum.lower_lux,
            "upper_lux": s.illum.upper_lux,
            "ambient_lux": s.illum.ambient_lux,
            "positions": [list(p) for p in s.illum.positions],
        },
        "constants": asdict(s.constants),
    }
