import math

import csv

import numpy as np
import pytest

from oracles import isl_feasible, nearest_in_orbit_pairs
from satagg import geometry, topology
from satagg.constants import EARTH_RADIUS_KM
from satagg.geometry import ConstellationSpec, GroundCluster

# Frozen from 2*sqrt(h*(h + 2*R_E)) with R_E = 6371.0 (difference of squares).
COMM_RADIUS_700 = 6134.949062543225
COMM_RADIUS_500 = 5146.260778468188


class TestConstellationSpec:
    def test_walker_notation(self):
        # T/P/F = 80/4/1: total_sats is P planes of T/P satellites.
        spec = ConstellationSpec(4, 20, 500.0, 45.0, 1, "delta")
        assert spec.total_sats == 80
        assert spec.sats_per_orbit == 20

    @pytest.mark.parametrize("kwargs", [
        dict(num_orbits=0, sats_per_orbit=20, altitude_km=500.0, inclination_deg=45.0),
        dict(num_orbits=4, sats_per_orbit=0, altitude_km=500.0, inclination_deg=45.0),
        dict(num_orbits=4, sats_per_orbit=20, altitude_km=-1.0, inclination_deg=45.0),
        dict(num_orbits=4, sats_per_orbit=20, altitude_km=500.0, inclination_deg=181.0),
        dict(num_orbits=4, sats_per_orbit=20, altitude_km=500.0, inclination_deg=45.0,
             phasing_factor=4),
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(geometry.ConfigError):
            ConstellationSpec(**kwargs)


class TestPropagate:
    def test_equatorial_crossing(self, delta_spec):
        # Slot 0 of every plane sits at argument of latitude F*n*2pi/T at t=0;
        # use a zero-phasing spec so u = 0 exactly.
        spec = ConstellationSpec(4, 20, 500.0, 45.0, 0, "delta")
        pos = geometry.positions(spec, 0.0)
        a = spec.orbit_radius_km
        for n, node in enumerate(geometry.raan_rad(spec)):
            p = pos[n * spec.sats_per_orbit]
            assert p == pytest.approx([a * math.cos(node), a * math.sin(node), 0.0],
                                      abs=1e-9)

    def test_polar_apex(self):
        # Inclination 90, argument of latitude 90 -> along +z regardless of node.
        spec = ConstellationSpec(3, 20, 500.0, 90.0, 0, "delta")
        pos = geometry.positions(spec, 0.0)
        for n in range(3):
            p = pos[n * 20 + 5]  # slot 5 of 20: u = 90 deg
            assert p == pytest.approx([0.0, 0.0, spec.orbit_radius_km], abs=1e-9)

    def test_radius_invariant_all_sats(self, delta_spec):
        # Oracle: norm check over all outputs, several epochs.
        for t in (0.0, 137.0, 2500.0, 86400.0):
            pos = geometry.positions(delta_spec, t)
            r = np.linalg.norm(pos, axis=1)
            assert np.max(np.abs(r - 6871.0) / 6871.0) < 1e-9

    def test_ephemeris_count_and_order(self, delta_spec, tmp_path):
        path = tmp_path / "ephemerides.csv"
        geometry.write_ephemeris_csv(path, delta_spec, [0.0, 250.0])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 80
        assert [(r["t_s"], r["orbit"], r["slot"]) for r in rows[79:82]] == [
            ("0.0", "3", "19"), ("250.0", "0", "0"), ("250.0", "0", "1")]
        pos = np.array([[float(r[c]) for c in ("x_km", "y_km", "z_km")] for r in rows])
        assert np.array_equal(pos, geometry.positions(delta_spec, np.array([0.0, 250.0]))
                              .reshape(-1, 3))
        assert np.all(np.abs(np.linalg.norm(pos, axis=1) - 6871.0) < 6871.0 * 1e-6)

    def test_periodicity(self, star_spec):
        period = geometry.orbital_period_s(star_spec)
        a = geometry.positions(star_spec, 10.0)
        b = geometry.positions(star_spec, 10.0 + period)
        assert np.max(np.linalg.norm(a - b, axis=1)) < 1e-6

    def test_negative_time_rejected(self, delta_spec):
        with pytest.raises(geometry.ConfigError):
            geometry.positions(delta_spec, -1.0)
        with pytest.raises(geometry.ConfigError):
            geometry.positions(delta_spec, np.array([0.0, -1.0]))

    @pytest.mark.parametrize("shell", ["delta", "star", "800"])
    def test_epoch_array_equals_stacked_calls(self, shell, delta_spec, star_spec):
        spec = {"delta": delta_spec, "star": star_spec,
                "800": ConstellationSpec(20, 40, 700.0, 99.5, 1, "star")}[shell]
        # Slot-start and frame-midpoint epochs, as build_snapshot forms them.
        t = np.array([3250.0] + [3250.0 + (u + 0.5) * 10.0 for u in range(25)])
        batched = geometry.positions(spec, t)
        assert batched.shape == (len(t), spec.total_sats, 3)
        stacked = np.stack([geometry.positions(spec, float(x)) for x in t])
        assert np.array_equal(batched, stacked)
        slant = np.stack([geometry.geo_slant_range_km(stacked[i], float(x))
                          for i, x in enumerate(t)])
        assert np.array_equal(geometry.geo_slant_range_km(batched, t), slant)

    def test_star_vs_delta_node_spread(self):
        star = ConstellationSpec(4, 20, 700.0, 99.5, 1, "star")
        delta = ConstellationSpec(4, 20, 700.0, 99.5, 1, "delta")
        assert np.degrees(geometry.raan_rad(star)).tolist() == [0.0, 45.0, 90.0, 135.0]
        assert np.degrees(geometry.raan_rad(delta)).tolist() == [0.0, 90.0, 180.0, 270.0]


class TestCommRadius:
    def test_values(self):
        assert geometry.comm_radius_km(700.0) == pytest.approx(COMM_RADIUS_700, rel=1e-12)
        assert geometry.comm_radius_km(500.0) == pytest.approx(COMM_RADIUS_500, rel=1e-12)

    def test_limit_small_altitude(self):
        assert geometry.comm_radius_km(1e-9) < 1e-2
        assert geometry.comm_radius_km(1e-9) > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(geometry.ConfigError):
            geometry.comm_radius_km(0.0)


class TestIslFeasible:
    def test_intra_orbit_adjacent(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        assert isl_feasible(delta_spec, pos, 0, 1)
        assert isl_feasible(delta_spec, pos, 0, 19)  # ring wrap

    def test_intra_orbit_skip_blocked(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        assert not isl_feasible(delta_spec, pos, 0, 2)

    def test_inter_orbit_out_of_range(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        radius = geometry.comm_radius_km(delta_spec.altitude_km)
        far = [(a, b) for a in range(20) for b in range(20, 40)
               if np.linalg.norm(pos[a] - pos[b]) > radius]
        assert far, "expected some out-of-range cross-plane pair"
        a, b = far[0]
        assert not isl_feasible(delta_spec, pos, a, b)

    def test_distance_predicate_symmetry(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        for a, b in [(0, 25), (3, 70), (10, 45)]:
            d_ab = np.linalg.norm(pos[a] - pos[b])
            d_ba = np.linalg.norm(pos[b] - pos[a])
            assert d_ab == d_ba

    def test_identical_satellites_rejected(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        with pytest.raises(ValueError):
            isl_feasible(delta_spec, pos, 0, 0)

    def test_ring_degree_two(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        pairs = geometry.feasible_isl_pairs(delta_spec, pos).tolist()
        s = delta_spec.sats_per_orbit
        for i in range(delta_spec.total_sats):
            intra = [p for p in pairs if i in p
                     and p[0] // s == p[1] // s == i // s]
            assert len(intra) == 2


def _pairs_by_rule(spec, t):
    """feasible_isl_pairs' oracle: pairs where isl_feasible holds either way."""
    pos = geometry.positions(spec, t)
    n = spec.total_sats
    return [[i, j] for i in range(n) for j in range(i + 1, n)
            if isl_feasible(spec, pos, i, j) or isl_feasible(spec, pos, j, i)]


class TestFeasibleIslPairs:
    @pytest.mark.parametrize("t", [0.0, 1234.5, 4000.0])
    @pytest.mark.parametrize("shell", ["delta", "star"])
    def test_matches_per_satellite_rule(self, shell, t, delta_spec, star_spec):
        spec = delta_spec if shell == "delta" else star_spec
        pos = geometry.positions(spec, t)
        assert geometry.feasible_isl_pairs(spec, pos).tolist() == _pairs_by_rule(spec, t)

    @pytest.mark.parametrize("spec", [
        ConstellationSpec(12, 1, 1200.0, 53.0, 5, "delta"),
        ConstellationSpec(8, 2, 1200.0, 53.0, 1, "delta"),
        ConstellationSpec(6, 3, 1200.0, 87.0, 1, "star"),
        ConstellationSpec(1, 4, 1200.0, 53.0, 0, "delta"),
    ], ids=lambda spec: f"{spec.num_orbits}x{spec.sats_per_orbit}")
    @pytest.mark.parametrize("t", [0.0, 1500.0])
    def test_small_shells_match_per_satellite_rule(self, spec, t):
        want = _pairs_by_rule(spec, t)
        s = spec.sats_per_orbit
        if spec.num_orbits > 1:
            assert any(i // s != j // s for i, j in want), "no cross-plane pair"
        pos = geometry.positions(spec, t)
        assert geometry.feasible_isl_pairs(spec, pos).tolist() == want
        assert nearest_in_orbit_pairs(spec, pos).tolist() == want

    @pytest.mark.parametrize("t", [0.0, 1234.5])
    def test_800_satellite_shell_matches_nearest_in_orbit(self, t):
        # The 800/20/1 star shell of scenarios/walker_star_800.cfg.
        spec = ConstellationSpec(20, 40, 700.0, 99.5, 1, "star")
        pos = geometry.positions(spec, t)
        assert np.array_equal(geometry.feasible_isl_pairs(spec, pos),
                              nearest_in_orbit_pairs(spec, pos))

    @pytest.mark.parametrize("epoch", ["zero", "random", "late", "latest"])
    def test_random_shells_match_nearest_in_orbit(self, epoch):
        # Seeded shells of 1-30 orbits of 1-60 slots at 300-45,000 km,
        # inclined 0, 90, 180 or at random, at t = 0, a random epoch, an
        # epoch past 1e9 s, and the latest power-of-two epoch that
        # positions accepts, where a slot's phase strays furthest.
        rng = np.random.default_rng(23)
        for _ in range(24):
            p, s = int(rng.integers(1, 31)), int(rng.integers(1, 61))
            inclination = (0.0, 90.0, 180.0, float(rng.uniform(0.0, 180.0)))[rng.integers(4)]
            spec = ConstellationSpec(p, s, float(np.exp(rng.uniform(np.log(300.0),
                                                                    np.log(45000.0)))),
                                     inclination, int(rng.integers(p)),
                                     ("star", "delta")[rng.integers(2)])
            t = {"zero": 0.0, "random": float(rng.uniform(0.0, 1e5)),
                 "late": float(rng.uniform(1e9, 4e9)), "latest": _latest_epoch(spec)}[epoch]
            pos = geometry.positions(spec, t)
            assert np.array_equal(geometry.feasible_isl_pairs(spec, pos),
                                  nearest_in_orbit_pairs(spec, pos)), (spec, t)

    @pytest.mark.parametrize("spec", [
        ConstellationSpec(4, 36, 20200.0, 90.0, 2, "delta"),
        ConstellationSpec(20, 28, 20200.0, 90.0, 9, "delta"),
        ConstellationSpec(18, 28, 20200.0, 90.0, 2, "star"),
    ], ids=lambda spec: f"{spec.num_orbits}x{spec.sats_per_orbit}-{spec.pattern}")
    def test_polar_shells_where_every_slot_is_as_far(self, spec):
        # Exactly polar planes at t = 0: some satellite sits on another
        # plane's axis, every slot of that plane lies as far from it and,
        # above about 2,640 km, in range. Its phase cannot pick the nearest
        # slot, so every slot's distance is computed and float rounding
        # decides, as in the per-satellite rule.
        pos = geometry.positions(spec, 0.0)
        s = spec.sats_per_orbit
        d = np.linalg.norm(pos[:, None] - pos.reshape(spec.num_orbits, s, 3)[:, None], axis=-1)
        spread = d.max(axis=-1) - d.min(axis=-1)
        assert np.any((spread < 1e-6) & (d.max(axis=-1)
                                         <= geometry.comm_radius_km(spec.altitude_km)))
        assert np.array_equal(geometry.feasible_isl_pairs(spec, pos),
                              nearest_in_orbit_pairs(spec, pos))

    @pytest.mark.parametrize("p, s", [(1, 1), (1, 7), (9, 1), (7, 2), (6, 3)])
    @pytest.mark.parametrize("t", [0.0, 2345.6, 3e9])
    def test_edge_shells_match_nearest_in_orbit(self, p, s, t):
        # A 1 x 1 shell has no pair at all: an empty (0, 2) array.
        spec = ConstellationSpec(p, s, 1500.0, 53.0, p // 2, "delta")
        pos = geometry.positions(spec, t)
        pairs = geometry.feasible_isl_pairs(spec, pos)
        assert pairs.shape[1:] == (2,) and pairs.dtype == np.intp
        assert pairs.tolist() == nearest_in_orbit_pairs(spec, pos).tolist()


def _latest_epoch(spec):
    """The latest power-of-two epoch, in seconds, that positions accepts."""
    t = 1.0
    while True:
        try:
            geometry.positions(spec, 2.0 * t)
        except geometry.ConfigError:
            return t
        t *= 2.0


class TestServingSatellite:
    def test_directly_under(self, star_spec):
        pos = geometry.positions(star_spec, 0.0)
        target = pos[7]
        lat = math.degrees(math.asin(target[2] / np.linalg.norm(target)))
        lon = math.degrees(math.atan2(target[1], target[0]))
        cluster = GroundCluster(0, lat, lon, (1.0,))
        assert geometry.serving_satellites([cluster], 0.0, pos) == [7]

    def test_tie_breaks_to_lower_index(self):
        # Two satellites mirrored in y around the cluster meridian: the dot
        # products against the cluster direction are bit-identical, and the
        # lower row wins in either order.
        a, b = [6871.0, 500.0, 0.0], [6871.0, -500.0, 0.0]
        far = [-6871.0, 0.0, 0.0]
        cluster = GroundCluster(0, 0.0, 0.0, (1.0,))
        assert geometry.serving_satellites([cluster], 0.0, np.array([a, b, far])) == [0]
        assert geometry.serving_satellites([cluster], 0.0, np.array([far, b, a])) == [1]

    def test_assignment_matches_exhaustive_scan(self, star_spec):
        # Oracle: exhaustive angular-distance scan per cluster, against one
        # call for all clusters; also bound the nadir angle by the horizon
        # footprint of the shell.
        rng = np.random.default_rng(2024)
        pos = geometry.positions(star_spec, 0.0)
        unit = pos / np.linalg.norm(pos, axis=1, keepdims=True)
        footprint = math.acos(EARTH_RADIUS_KM / star_spec.orbit_radius_km)
        clusters = []
        for i in range(41):
            lat = math.degrees(math.asin(rng.uniform(-0.9, 0.9)))
            lon = float(rng.uniform(-180, 180))
            clusters.append(GroundCluster(i, lat, lon, (1.0,)))
        served = geometry.serving_satellites(clusters, 0.0, pos)
        assert len(served) == len(clusters)
        for cluster, idx in zip(clusters, served):
            c = geometry.cluster_position_km(cluster, 0.0)
            angles = np.arccos(np.clip(unit @ (c / np.linalg.norm(c)), -1.0, 1.0))
            best = int(np.argmin(angles))
            assert idx == best
            assert angles[best] <= footprint

    def test_earth_rotation_changes_serving(self, star_spec):
        # Same constellation phase one period later, but the cluster has
        # rotated with the Earth: the serving satellite should change.
        cluster = GroundCluster(0, 10.0, 20.0, (1.0,))
        period = geometry.orbital_period_s(star_spec)
        first, later = (
            geometry.serving_satellites([cluster], t, geometry.positions(star_spec, t))
            for t in (0.0, period))
        assert first != later


class TestGeoRelay:
    def test_three_relays_equatorial(self):
        pos = geometry.geo_positions_km(0.0)
        assert pos.shape == (3, 3)
        r = EARTH_RADIUS_KM + 35786.0
        assert np.allclose(np.linalg.norm(pos, axis=1), r)
        assert np.allclose(pos[:, 2], 0.0)

    def test_slant_range_bounds(self, delta_spec):
        pos = geometry.positions(delta_spec, 0.0)
        d = geometry.geo_slant_range_km(pos, 0.0)
        # Between (r_geo - r_leo) and sqrt(r_geo^2 + r_leo^2) for a 60-degree
        # worst-case longitude offset plus latitude.
        assert np.all(d >= 35786.0 + EARTH_RADIUS_KM - 6871.0 - 1.0)
        assert np.all(d <= math.hypot(35786.0 + EARTH_RADIUS_KM, 6871.0) + 1.0)

    @pytest.mark.parametrize("shell", ["delta80", "star800"])
    def test_slant_range_equals_norm_form(self, shell, delta_spec):
        # The frame midpoints of slot 7, as build_snapshot forms them: the
        # component sums round as np.linalg.norm's, bit for bit.
        spec = {"delta80": delta_spec,
                "star800": ConstellationSpec(20, 40, 700.0, 99.5, 1, "star")}[shell]
        times = topology.TimeStructure.for_constellation(spec)
        t = np.array([7 * times.slot_len_s + (u + 0.5) * times.frame_len_s
                      for u in range(times.frames_per_slot)])
        pos = geometry.positions(spec, t)
        geo = geometry.geo_positions_km(t)
        norm = np.linalg.norm(pos[..., :, None, :] - geo[..., None, :, :], axis=-1)
        assert geometry.geo_slant_range_km(pos, t).tobytes() == norm.min(axis=-1).tobytes()


def test_ephemeris_csv_export(tmp_path, delta_spec):
    path = tmp_path / "eph.csv"
    geometry.write_ephemeris_csv(path, delta_spec, [0.0, 250.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,orbit,slot,x_km,y_km,z_km"
    assert len(lines) == 1 + 2 * 80
    t, orbit, slot, x, y, z = lines[1].split(",")
    assert (t, orbit, slot) == ("0.0", "0", "0")
    assert math.hypot(math.hypot(float(x), float(y)), float(z)) == pytest.approx(6871.0)
