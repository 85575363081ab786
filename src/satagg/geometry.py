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
# (satellite, orbit) entries that `feasible_isl_pairs` searches at once:
# each of its half-dozen temporaries then takes 64 KB, whatever the shell.
ISL_BATCH = 8192
# Below this float margin, relative to the orbit radius a, a satellite's
# phase no longer picks its nearest slot of another orbit (see
# `feasible_isl_pairs`). The two squared distances it must tell apart round
# by about 40 eps * a^2 in all: a few eps for each of the float positions,
# the differences, squares and sums, and the square root. A phase projected
# at radius r is off by about 5 eps * a / r. With slots D apart, that asks
# for r * margin * sin(D/2) above about 21 eps * a, margin being the angle
# by which the phase clears the midpoint between two slots; 1024 eps leaves
# a factor of about 50 to spare.
PHASE_TOL = 1024 * np.finfo(float).eps

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


def _lengths(coords, idx, x, y, z, out, tmp):
    """Distances from the points (x, y, z) to the satellites idx, computed
    as np.linalg.norm reduces a length-3 axis: sqrt((dx^2 + dy^2) + dz^2).
    coords are the three coordinate columns of the positions; x, y, z
    broadcast against idx, and out and tmp are float buffers of its shape."""
    for c, (col, at) in enumerate(zip(coords, (x, y, z))):
        buf = out if c == 0 else tmp
        np.take(col, idx, out=buf)
        buf -= at
        buf *= buf
        if c:
            out += tmp
    return np.sqrt(out, out=out)


def _nearest_of_every_slot(coords, s, rows, orbits):
    """For each satellite rows[i], its nearest satellite of orbit orbits[i]
    and the distance to it, from the distance to every slot of that orbit;
    the first minimum in slot order wins. At most ISL_BATCH distances are
    held at once."""
    nearest, length = np.empty(rows.size, dtype=np.intp), np.empty(rows.size)
    step = max(1, ISL_BATCH // s)
    for lo in range(0, rows.size, step):
        r, m = rows[lo:lo + step, None], orbits[lo:lo + step, None]
        every = m * s + np.arange(s)
        d = _lengths(coords, every, *(col[r] for col in coords),
                     np.empty(every.shape), np.empty(every.shape))
        k = d.argmin(axis=1)
        at = np.arange(k.size)
        nearest[lo:lo + step], length[lo:lo + step] = every[at, k], d[at, k]
    return nearest, length


def feasible_isl_pairs(spec: ConstellationSpec, pos: np.ndarray) -> np.ndarray:
    """Unordered satellite-index pairs holding a feasible ISL, as a (k, 2)
    int array of rows (i, j), i < j, in ascending order.

    Intra-orbit: the ring of adjacent slots. Inter-orbit: for each satellite
    and each other orbit, the nearest in-range satellite of that orbit; a pair
    is kept if either endpoint selects the other. Ties go to the lowest
    slot. This is the per-pair ISL rule of `tests/oracles.py` in either
    direction, with the same distances: each is summed as
    np.linalg.norm reduces a length-3 axis, (dx^2 + dy^2) + dz^2, and a
    difference squares alike in either direction.

    The nearest slot comes from the phases, not from every distance. Orbit
    m's slots lie on its plane at radius a and phases theta_l = theta_0 +
    l * D, D = 2 pi / s. If a satellite x projects onto that plane at radius
    r and phase phi, then by the cosine law
    |x - p_l|^2 = |x|^2 + a^2 - 2 a r cos(theta_l - phi), so the slot whose
    phase lies closest to phi is the nearest, and only its distance is
    computed. Let phi lie u * D from that slot (|u| <= 1/2). Every other slot
    lies at least (1 - |u|) * D from phi, so its squared distance exceeds
    the nearest one's by at least 4 a r sin(D/2) sin((1/2 - |u|) * D). That
    gap closes as r -> 0, when x sits on the plane's axis and every slot is
    as far as the others, and as |u| -> 1/2, when phi lies halfway between
    two slots. There the float rounding of the distances, not the phases,
    decides which slot is the first minimum. So wherever
    r * ((1/2 - |u|) * D - slack) * sin(D/2) <= PHASE_TOL * a, the distance
    to every slot of m is computed and the first minimum kept. slack adds to
    PHASE_TOL the largest gap, measured from the satellites' own phases,
    between a slot's float phase and theta_0 + l * D; it grows with the
    epoch. The search runs ISL_BATCH (satellite, orbit) entries at a time.
    """
    p, s, total = spec.num_orbits, spec.sats_per_orbit, spec.total_sats
    keys = []
    if s >= 2:
        ring = np.arange(total)
        nxt = ring - ring % s + (ring + 1) % s
        keys.append(np.minimum(ring, nxt) * total + np.maximum(ring, nxt))
    if p >= 2:
        keys += _inter_orbit_keys(spec, pos)
    if not keys:
        return np.empty((0, 2), dtype=np.intp)
    # A stable sort: numpy's default one runs through SIMD kernels whose
    # code pages add a few hundred KB to the peak RSS of an 80-satellite run.
    # The keys come as a few sorted runs, which it merges.
    keys = np.concatenate(keys)
    keys = keys[np.argsort(keys, kind="stable")]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    out = np.empty((keys.size, 2), dtype=np.intp)
    np.floor_divide(keys, total, out=out[:, 0])
    np.remainder(keys, total, out=out[:, 1])
    return out


def _inter_orbit_keys(spec: ConstellationSpec, pos: np.ndarray) -> list:
    """feasible_isl_pairs' inter-orbit pairs (i, j), i < j, as keys
    i * total_sats + j in two ascending arrays: the pairs where i chose j,
    then those where j chose i. A pair that both ends chose is in both."""
    p, s, total = spec.num_orbits, spec.sats_per_orbit, spec.total_sats
    a, width = spec.orbit_radius_km, 2.0 * math.pi / s
    radius = comm_radius_km(spec.altitude_km)
    # Orbit m's plane axes, as `positions` places phase u at
    # a * (cos(u) * e1[m] + sin(u) * e2[m]).
    nodes, inc = raan_rad(spec), math.radians(spec.inclination_deg)
    e1 = (np.cos(nodes), np.sin(nodes))
    e2 = (-np.sin(nodes) * math.cos(inc), np.cos(nodes) * math.cos(inc), math.sin(inc))
    coords = px, py, pz = tuple(np.ascontiguousarray(pos[:, c]) for c in range(3))
    orbit = np.repeat(np.arange(p), s)
    own = np.arctan2(px * e2[0][orbit] + py * e2[1][orbit] + pz * e2[2],
                     px * e1[0][orbit] + py * e1[1][orbit])
    theta0 = own[::s]
    stray = (own - theta0[orbit] - width * np.tile(np.arange(s), p) + math.pi) \
        % (2.0 * math.pi) - math.pi
    slack = float(np.abs(stray).max()) + PHASE_TOL
    lead = 0.5 - slack / width
    # One slot has no rival.
    bar = PHASE_TOL * a / (width * math.sin(width / 2)) if s > 1 else -math.inf
    # Orbit m's slot at rounded phase index b in [-s - 1, s + 1] (phases
    # relative to theta0 span (-2 pi, 2 pi], plus rounding):
    # slot_of[off[m] + b].
    slot_of = (np.arange(p)[:, None] * s + np.arange(-s - 1, s + 2) % s).ravel()
    off = np.arange(p) * (2 * s + 3) + s + 1

    ahead, behind_lo, behind_hi = [], [], []
    step = max(1, ISL_BATCH // p)
    for start in range(0, total, step):
        rows = slice(start, min(total, start + step))
        x, y, z = px[rows, None], py[rows, None], pz[rows, None]
        # Projection (c, d) of each satellite onto each orbit's plane, its
        # phase psi in slot widths from slot 0, and the nearest slot by phase.
        c = x * e1[0]
        c += y * e1[1]
        d = x * e2[0]
        d += y * e2[1]
        d += z * e2[2]
        psi = np.arctan2(d, c)
        psi -= theta0
        psi *= 1.0 / width
        near = np.rint(psi)
        pick = near.astype(np.intp)
        pick += off
        np.take(slot_of, pick, out=pick)
        # psi becomes (1/2 - |u|) - slack / D, times r.
        psi -= near
        np.abs(psi, out=psi)
        np.subtract(lead, psi, out=psi)
        c *= c
        d *= d
        c += d
        psi *= np.sqrt(c, out=c)
        unsure = psi <= bar
        del c, d, near
        best = _lengths(coords, pick, x, y, z, psi, np.empty(pick.shape))
        if unsure.any():
            i, m = np.nonzero(unsure)
            pick[i, m], best[i, m] = _nearest_of_every_slot(coords, s, i + start, m)
        # A pair toward a later orbit is (row, pick) and comes in key order,
        # one toward an earlier orbit is (pick, row) and comes in row order.
        # A satellite's own orbit picks the satellite itself and is dropped.
        ok = best <= radius
        later = np.arange(p) - orbit[rows, None]
        to_later, to_earlier = ok & (later > 0), ok & (later < 0)
        ahead.append((np.nonzero(to_later)[0] + start) * total + pick[to_later])
        behind_lo.append(pick[to_earlier])
        behind_hi.append(np.nonzero(to_earlier)[0] + start)
    behind_lo, behind_hi = np.concatenate(behind_lo), np.concatenate(behind_hi)
    # Stable, so pairs that share a lo keep their hi ascending; numpy
    # radix-sorts unsigned ints of 16 bits or fewer. The final stable sort
    # then only merges sorted runs, which is cheaper than ordering these
    # keys itself (a sixth of the whole call on the 800-satellite shell).
    order = np.argsort(behind_lo.astype(np.min_scalar_type(total)), kind="stable")
    return [np.concatenate(ahead), behind_lo[order] * total + behind_hi[order]]


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
