"""Walker constellation generation, circular-orbit propagation and visibility.

Satellites fly circular orbits at a common altitude per shell. Positions are
computed in a geocentric inertial frame as
Rz(ascending node) @ Rx(inclination) @ (a*cos(u), a*sin(u), 0) with a the
orbit radius and u the argument of latitude. Ground clusters are fixed on the
rotating Earth; their inertial longitude advances at 360 deg per sidereal day.
"""
import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    EARTH_MU_KM3_S2,
    EARTH_RADIUS_KM,
    GEO_ALTITUDE_KM,
    SIDEREAL_DAY_S,
)

# Epochs per `positions` call when writing ephemerides: 256 epochs of an
# 800-satellite shell are about 600,000 coordinates.
EPHEMERIS_CHUNK = 256

class ConfigError(ValueError):
    """A setting outside its bounds. field names it: the parameter of the
    class or function that checks it, or a config file's section.key."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


@dataclass(frozen=True)
class ConstellationSpec:
    """Walker shell: num_orbits evenly spaced planes of sats_per_orbit each.

    pattern 'star' spreads ascending nodes over 180 degrees, 'delta' over 360.
    phasing_factor F shifts the in-plane anomaly of plane n by
    F * n * 360/total_sats degrees (standard T/P/F Walker notation). The
    defaults are the reference 80/4/1 Walker-star shell at 700 km.
    """

    num_orbits: int = 4
    sats_per_orbit: int = 20
    altitude_km: float = 700.0
    inclination_deg: float = 99.5
    phasing_factor: int = 1
    pattern: str = "star"

    def __post_init__(self):
        for name in ("num_orbits", "sats_per_orbit"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.altitude_km) and self.altitude_km > 0):
            raise ConfigError("altitude_km", f"must be finite and > 0, got {self.altitude_km}")
        try:
            period = orbital_period_s(self)
        except OverflowError:
            period = math.inf
        if not math.isfinite(period):
            raise ConfigError("altitude_km", f"gives a non-finite orbital period, "
                                             f"got {self.altitude_km}")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ConfigError("inclination_deg",
                              f"must lie in [0, 180], got {self.inclination_deg}")
        if not 0 <= self.phasing_factor < self.num_orbits:
            raise ConfigError("phasing_factor", f"must lie in [0, {self.num_orbits}), "
                                                f"got {self.phasing_factor}")
        if self.pattern not in ("star", "delta"):
            raise ConfigError("pattern", f"must be 'star' or 'delta', got {self.pattern!r}")

    @property
    def total_sats(self) -> int:
        return self.num_orbits * self.sats_per_orbit

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @classmethod
    def walker(cls, total_sats, num_orbits, phasing_factor, altitude_km,
               inclination_deg, pattern):
        """Build from T/P/F notation; T must be divisible by P."""
        if total_sats % num_orbits != 0:
            raise ConfigError("total_sats", f"{total_sats} is not divisible by "
                                            f"num_orbits = {num_orbits}")
        return cls(num_orbits, total_sats // num_orbits, altitude_km,
                   inclination_deg, phasing_factor, pattern)


@dataclass(frozen=True)
class GroundCluster:
    """Fixed surface region; device_weights are the aggregation weights of the
    devices it hosts (global sum over all clusters must be 1)."""

    cluster_id: int
    lat_deg: float
    lon_deg: float
    device_weights: tuple = field(default_factory=tuple)


def orbital_period_s(spec: ConstellationSpec) -> float:
    """Circular two-body period 2*pi*sqrt(a^3/mu)."""
    a = spec.orbit_radius_km
    return 2.0 * math.pi * math.sqrt(a ** 3 / EARTH_MU_KM3_S2)


def raan_rad(spec: ConstellationSpec) -> np.ndarray:
    """Ascending node longitude per orbit plane."""
    spread = math.pi if spec.pattern == "star" else 2.0 * math.pi
    return spread * np.arange(spec.num_orbits) / spec.num_orbits


def positions(spec: ConstellationSpec, t) -> np.ndarray:
    """All satellite positions at epoch t as a (total_sats, 3) array in km.

    Row order is (orbit 0 slot 0), (orbit 0 slot 1), ..., i.e. index
    n * sats_per_orbit + k for satellite (n, k). For an array of epochs the
    result has shape t.shape + (total_sats, 3), and each epoch's block is
    bit-identical to a call with that epoch alone. An epoch so late that
    the float spacing of its orbit phase reaches half the in-plane phase
    spacing, where neighbouring satellites could share a position, is
    rejected.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ConfigError("t", "must be finite and >= 0")
    a = spec.orbit_radius_km
    n_mean = math.sqrt(EARTH_MU_KM3_S2 / a ** 3)  # rad/s
    inc = math.radians(spec.inclination_deg)
    nodes = raan_rad(spec)

    n_idx = np.repeat(np.arange(spec.num_orbits), spec.sats_per_orbit)
    k_idx = np.tile(np.arange(spec.sats_per_orbit), spec.num_orbits)
    # Argument of latitude: even in-plane spacing + Walker inter-plane phasing.
    u = (2.0 * math.pi * k_idx / spec.sats_per_orbit
         + 2.0 * math.pi * spec.phasing_factor * n_idx / spec.total_sats
         + n_mean * t[..., None])
    if np.spacing(u.max(initial=0.0)) >= math.pi / spec.sats_per_orbit:
        raise ConfigError("t", "is too late: the float spacing of the orbit phase reaches "
                               "half the in-plane satellite spacing")

    cos_u, sin_u = np.cos(u), np.sin(u)
    # In-plane coords rotated by inclination about x, then by node about z.
    x_orb = a * cos_u
    y_orb = a * sin_u * math.cos(inc)
    z_orb = a * sin_u * math.sin(inc)
    cos_g, sin_g = np.cos(nodes[n_idx]), np.sin(nodes[n_idx])
    out = np.empty(u.shape + (3,))
    out[..., 0] = x_orb * cos_g - y_orb * sin_g
    out[..., 1] = x_orb * sin_g + y_orb * cos_g
    out[..., 2] = z_orb
    return out


def comm_radius_km(altitude_km: float) -> float:
    """Maximum ISL range 2*sqrt((R_E+h)^2 - R_E^2): twice the horizon slant,
    so the link line keeps clear of the Earth's limb."""
    if altitude_km <= 0:
        raise ConfigError("altitude_km", f"must be > 0, got {altitude_km}")
    h_star = EARTH_RADIUS_KM + altitude_km
    return 2.0 * math.sqrt(h_star ** 2 - EARTH_RADIUS_KM ** 2)


def feasible_isl_pairs(spec: ConstellationSpec, pos: np.ndarray) -> np.ndarray:
    """Unordered satellite-index pairs holding a feasible ISL, as a (k, 2)
    int array of rows (i, j), i < j, in ascending order.

    Intra-orbit: the ring of adjacent slots. Inter-orbit: for each satellite
    and each other orbit, the nearest in-range satellite of that orbit; a pair
    is kept if either endpoint selects the other. Ties go to the lowest
    slot. This is the per-pair ISL rule of `tests/oracles.py` in either
    direction, batched: one distance block per orbit n against the orbits
    m > n, (n's slot, m, m's slot), whose argmin over the last axis picks
    each n satellite's nearest in m and over the first axis each m
    satellite's nearest in n; argmin keeps the first minimum. The block sums
    the squared components as (dx^2 + dy^2) + dz^2, the order in which
    `np.linalg.norm` reduces a length-3 axis, and a difference squares alike
    in either direction, so distances match the oracle's both ways.
    """
    p, s, total = spec.num_orbits, spec.sats_per_orbit, spec.total_sats
    lo, hi = [], []
    if s >= 2:
        ring = np.arange(total)
        nxt = ring - ring % s + (ring + 1) % s
        lo.append(np.minimum(ring, nxt))
        hi.append(np.maximum(ring, nxt))
    radius = comm_radius_km(spec.altitude_km)
    x, y, z = (np.ascontiguousarray(pos[:, c]) for c in range(3))
    for n in range(p - 1):
        src, far = slice(n * s, (n + 1) * s), slice((n + 1) * s, total)
        d = x[far] - x[src, None]
        d *= d
        sq = y[far] - y[src, None]
        sq *= sq
        d += sq
        np.subtract(z[far], z[src, None], out=sq)
        sq *= sq
        d += sq
        d = np.sqrt(d, out=d).reshape(s, p - 1 - n, s)
        # n's slot k selects m's slot to_m[k, m], and m's slot l selects
        # n's slot to_n[m, l].
        to_m, to_n = d.argmin(axis=2), d.argmin(axis=0)
        k, m = np.nonzero(np.take_along_axis(d, to_m[..., None], 2)[..., 0] <= radius)
        lo.append(n * s + k)
        hi.append((n + 1 + m) * s + to_m[k, m])
        m, l = np.nonzero(np.take_along_axis(d, to_n[None], 0)[0] <= radius)
        lo.append(n * s + to_n[m, l])
        hi.append((n + 1 + m) * s + l)
    # A stable sort: numpy's default one runs through SIMD kernels whose
    # code pages add a few hundred KB to the peak RSS of an 80-satellite run.
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    keys = lo * total + hi
    order = np.argsort(keys, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    order = order[first]
    return np.stack([lo[order], hi[order]], axis=1)


def earth_rotation_deg(t: float) -> float:
    """Inertial longitude advance of an Earth-fixed point after t seconds."""
    return 360.0 * t / SIDEREAL_DAY_S


def cluster_position_km(cluster: GroundCluster, t: float) -> np.ndarray:
    """Inertial surface position of the cluster at time t."""
    lat = math.radians(cluster.lat_deg)
    lon = math.radians(cluster.lon_deg + earth_rotation_deg(t))
    return EARTH_RADIUS_KM * np.array([
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    ])


def serving_satellites(clusters, t: float, sat_pos: np.ndarray) -> list:
    """For each cluster at time t, the row of sat_pos whose sub-satellite
    point is great-circle closest to it; ties go to the lowest row. The
    satellite directions are normalised once for all clusters."""
    unit = sat_pos / np.linalg.norm(sat_pos, axis=1, keepdims=True)
    out = []
    for c in clusters:
        cp = cluster_position_km(c, t)
        out.append(int(np.argmax(unit @ (cp / np.linalg.norm(cp)))))
    return out


def geo_positions_km(t, count: int = 3) -> np.ndarray:
    """Geostationary relay positions: equally spaced equatorial ring at
    geosynchronous radius, co-rotating with the Earth. Shape (count, 3), or
    t.shape + (count, 3) for an array of epochs."""
    r = EARTH_RADIUS_KM + GEO_ALTITUDE_KM
    rot = earth_rotation_deg(np.asarray(t, dtype=float))
    lon = np.radians(360.0 * np.arange(count) / count + rot[..., None])
    return r * np.stack([np.cos(lon), np.sin(lon), np.zeros_like(lon)], axis=-1)


def geo_slant_range_km(sat_pos: np.ndarray, t) -> np.ndarray:
    """Distance from each satellite row to its nearest geostationary relay.

    sat_pos is (N, 3) at epoch t, or t.shape + (N, 3) for an array of epochs
    as `positions` returns it. Squared lengths are summed as
    np.linalg.norm sums a length-3 axis, (dx^2 + dy^2) + dz^2, one component
    at a time, and the square root of the smallest is the smallest length."""
    geo = geo_positions_km(t)
    dx, dy, dz = (sat_pos[..., :, None, c] - geo[..., None, :, c] for c in range(3))
    return np.sqrt(((dx * dx + dy * dy) + dz * dz).min(axis=-1))


def write_ephemeris_csv(path, spec: ConstellationSpec, times) -> None:
    """CSV export with columns (t_s, orbit, slot, x_km, y_km, z_km), one row
    per satellite in (orbit, slot) order for each epoch of the iterable
    times. Epochs are propagated and written EPHEMERIS_CHUNK at a time, so
    memory stays bounded however many there are; the first chunk is
    propagated, and so checked, before the file is opened."""
    times = iter(times)
    labels = [(n, k) for n in range(spec.num_orbits) for k in range(spec.sats_per_orbit)]

    def propagated():
        """(epochs, positions) of the next chunk of times, as lists."""
        chunk = np.fromiter(itertools.islice(times, EPHEMERIS_CHUNK), dtype=float)
        return chunk.tolist(), positions(spec, chunk).tolist()

    epochs, pos = propagated()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "orbit", "slot", "x_km", "y_km", "z_km"])
        while epochs:
            # csv writes a float as its repr.
            for t, block in zip(epochs, pos):
                w.writerows((t, n, k, *p) for (n, k), p in zip(labels, block))
            epochs, pos = propagated()
