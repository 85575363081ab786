import csv
import math

import numpy as np
import pytest

from conftest import TX_POWER_W, from_edge_list, make_scenario, random_digraph
from satagg import channel, geometry, sim, topology
from satagg.geometry import ConfigError
from satagg.topology import SnapshotGraph, TimeStructure
from test_routing import random_dst_instance


@pytest.fixture
def delta_snapshot(delta_spec, params):
    times = TimeStructure.for_constellation(delta_spec)
    rng = np.random.default_rng(0)
    txp = topology.tx_power_draw(delta_spec, rng, *TX_POWER_W)
    return topology.build_snapshot(delta_spec, params, times, 0.0, txp), times, txp


class TestTimeStructure:
    def test_exact_subdivision(self, delta_spec):
        ts = TimeStructure.for_constellation(delta_spec, 250.0, 25)
        assert ts.slot_len_s == 250.0
        assert ts.frame_len_s == 10.0
        assert ts.slot_len_s * ts.slots_per_period == ts.slots_per_period * 250.0
        # One orbit lasts ~5668 s at 500 km: 23 slots of 250 s.
        assert ts.slots_per_period == 23

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TimeStructure(slot_len_s=50.0, slots_per_period=0, frames_per_slot=5)
        with pytest.raises(ValueError):
            TimeStructure(slot_len_s=-0.5, slots_per_period=2, frames_per_slot=5)
        with pytest.raises(ValueError):
            TimeStructure(slot_len_s=50.0, slots_per_period=2, frames_per_slot=0)

    @pytest.mark.parametrize("shell", ["star", "delta"])
    def test_configured_slot_length_kept_exactly(self, shell, star_spec, delta_spec):
        # Every tenth of a second up to 200 s comes back as configured, and
        # the period is that slot length times the slot count.
        spec = star_spec if shell == "star" else delta_spec
        for k in range(1, 2001):
            ts = TimeStructure.for_constellation(spec, k / 10)
            assert ts.slot_len_s == k / 10, k
            assert ts.slot_len_s * ts.slots_per_period == (k / 10) * ts.slots_per_period

    def test_slot_longer_than_twice_the_period_rejected(self, delta_spec):
        # round() gives 0 slots: the period cannot hold one slot of this length.
        t_orb = geometry.orbital_period_s(delta_spec)
        assert TimeStructure.for_constellation(delta_spec, 1.9 * t_orb).slots_per_period == 1
        with pytest.raises(ConfigError) as exc:
            TimeStructure.for_constellation(delta_spec, 2.1 * t_orb)
        assert exc.value.field == "slot_len_s"


class TestSnapshotGraphContainer:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 0, 1.0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_csr_ordering(self):
        g = from_edge_list(4, [(2, 0, 1.0), (0, 3, 2.0), (0, 1, 3.0)])
        assert g.src.tolist() == [0, 0, 2]
        assert g.dst.tolist() == [1, 3, 0]
        assert g.weights_j[0].tolist() == [3.0, 2.0, 1.0]
        assert np.bincount(g.src, minlength=4).tolist() == [2, 0, 1, 0]
        assert g.edge_rows([0], [3]).tolist() == [1]


def assert_edge_rows_match_dict(g):
    """edge_rows over every edge equals a {(src, dst): row} dict oracle."""
    oracle = {pair: row for row, pair in
              enumerate(zip(g.src.tolist(), g.dst.tolist()))}
    src, dst = zip(*oracle)
    assert g.edge_rows(src, dst).tolist() == list(oracle.values())


class TestEdgeRows:
    def test_every_edge_of_a_snapshot(self, delta_snapshot):
        g, _, _ = delta_snapshot
        assert_edge_rows_match_dict(g)

    def test_every_edge_of_a_robust_graph(self, star_spec):
        cfg = make_scenario(star_spec, rho=0.1, clusters=41, seed=42)
        g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, 0.0,
                                    sim.scenario_tx_power(cfg))
        r = topology.robust_weights(g, cfg.rho, cfg.params)
        assert_edge_rows_match_dict(r)

    def test_every_edge_of_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g, _, _ = random_dst_instance(rng, max_nodes=10)
            assert_edge_rows_match_dict(g)

    def test_absent_pairs_raise_naming_them(self, delta_snapshot):
        g, _, _ = delta_snapshot
        ring = int(g.dst[g.src == 0][0])
        with pytest.raises(KeyError) as exc:
            # (0, 0) is a self-loop, (geo, 0) the reverse of an uplink.
            g.edge_rows([0, 0, g.geo_node], [ring, 0, 0])
        assert exc.value.args[0] == f"no edge(s) [(0, 0), ({g.geo_node}, 0)]"

    def test_out_of_range_node_is_absent(self):
        # Key 0 * 2 + 2 equals the key of (1, 0); a dst outside the graph
        # must not alias it.
        g = from_edge_list(2, [(1, 0, 1.0)])
        assert g.edge_rows([1], [0]).tolist() == [0]
        with pytest.raises(KeyError, match=r"\(0, 2\)"):
            g.edge_rows([0], [2])

    def test_empty_input(self, delta_snapshot):
        g, _, _ = delta_snapshot
        rows = g.edge_rows([], [])
        assert rows.shape == (0,) and rows.dtype == np.intp

    def test_scalar_pairs(self):
        g = from_edge_list(4, [(2, 0, 1.0), (0, 3, 2.0), (0, 1, 3.0)])
        row = g.edge_rows(0, 3)
        assert row.shape == () and int(row) == 1
        assert g.edge_rows(0, [[1, 3]]).tolist() == [[0, 1]]
        with pytest.raises(KeyError) as exc:
            g.edge_rows(3, 0)
        assert exc.value.args[0] == "no edge(s) [(3, 0)]"


class TestBuildSnapshot:
    def test_intra_orbit_ring_out_degree(self, delta_snapshot, delta_spec):
        g, _, _ = delta_snapshot
        s = delta_spec.sats_per_orbit
        for i in range(delta_spec.total_sats):
            ring = [e for e in np.flatnonzero(g.src == i)
                    if g.dst[e] != g.geo_node and g.dst[e] // s == i // s]
            assert len(ring) == 2

    def test_geo_edge_from_every_leo(self, delta_snapshot, delta_spec):
        g, _, _ = delta_snapshot
        g.edge_rows(np.arange(delta_spec.total_sats), g.geo_node)  # KeyError if absent
        # GEO is a pure sink.
        assert not any(g.src == g.geo_node)

    def test_no_self_loops_and_distinct_directions(self, delta_snapshot):
        g, _, _ = delta_snapshot
        assert not np.any(g.src == g.dst)
        non_geo = g.dst != g.geo_node
        for e in np.nonzero(non_geo)[0][:50]:
            (rev,) = g.edge_rows([g.dst[e]], [g.src[e]])
            if g.weights_j[0][rev] == g.weights_j[0][e]:
                # Direction weights coincide only if the power draws do.
                pass

    def test_unusable_links_keep_their_rows(self, delta_snapshot, delta_spec):
        # A receiver too small for any finite rate: every link is unusable,
        # yet the graph keeps every candidate row, at +inf in every frame.
        g, times, txp = delta_snapshot
        tiny = channel.LinkParams(d_r_m=1e-7)
        dead = topology.build_snapshot(delta_spec, tiny, times, 0.0, txp)
        assert np.array_equal(dead.src, g.src) and np.array_equal(dead.dst, g.dst)
        assert np.all(dead.weights_j == np.inf)
        assert dead.dropped_edges == dead.num_edges
        assert g.dropped_edges == 0

    def test_weights_finite_positive(self, delta_snapshot):
        g, _, _ = delta_snapshot
        assert np.all(np.isfinite(g.weights_j))
        assert np.all(g.weights_j > 0)

    def test_frame_weights_vary_for_inter_orbit(self, delta_snapshot, delta_spec, params):
        g, times, txp = delta_snapshot
        s = delta_spec.sats_per_orbit
        inter = [e for e in range(g.num_edges)
                 if g.dst[e] != g.geo_node and g.src[e] // s != g.dst[e] // s]
        assert inter
        varying = [e for e in inter
                   if abs(g.distance_km[0][e] - g.distance_km[-1][e]) > 1e-6]
        assert len(varying) > 0
        # Oracle: recompute every frame's midpoint distances one epoch at a
        # time; the batched pass must give the same bits.
        isl = g.dst != g.geo_node
        for u in range(times.frames_per_slot):
            t_mid = (u + 0.5) * times.frame_len_s
            pos = geometry.positions(delta_spec, t_mid)
            d = np.linalg.norm(pos[g.src[isl]] - pos[g.dst[isl]], axis=1)
            assert np.array_equal(g.distance_km[u][isl], d)
            slant = geometry.geo_slant_range_km(pos[g.src[~isl]], t_mid)
            assert np.array_equal(g.distance_km[u][~isl], slant)

    def test_connectivity_constant_across_frames(self, delta_snapshot):
        g, times, _ = delta_snapshot
        # One edge set for the whole slot; only weights vary by frame.
        assert g.weights_j.shape == (times.frames_per_slot, g.num_edges)
        assert not np.allclose(g.weights_j[0], g.weights_j[-1])

    def test_intra_orbit_edges_periodic(self, delta_spec, params):
        times = TimeStructure.for_constellation(delta_spec)
        txp = topology.tx_power_draw(delta_spec, np.random.default_rng(0), *TX_POWER_W)
        g0 = topology.build_snapshot(delta_spec, params, times, 0.0, txp)
        g1 = topology.build_snapshot(delta_spec, params, times,
                                     times.slot_len_s * times.slots_per_period, txp)
        s = delta_spec.sats_per_orbit

        def intra(g):
            return {(int(a), int(b)) for a, b in zip(g.src, g.dst)
                    if b != g.geo_node and a // s == b // s}

        assert intra(g0) == intra(g1)

    def test_slot_label_wraps_at_the_period(self, delta_spec, params):
        # Slot 30 of a 23-slot period is labelled 7, as every caller labels it.
        times = TimeStructure.for_constellation(delta_spec, frames_per_slot=1)
        assert times.slots_per_period == 23
        txp = topology.tx_power_draw(delta_spec, np.random.default_rng(0), *TX_POWER_W)
        for slot, label in ((0, 0), (22, 22), (23, 0), (30, 7)):
            g = topology.build_snapshot(delta_spec, params, times,
                                        slot * times.slot_len_s, txp)
            assert g.slot_index == label, slot

    def test_weight_against_scalar_channel_path(self, delta_snapshot, params):
        g, times, txp = delta_snapshot
        outage = channel.outage_from_gamma0(g.gamma0, params)
        for e in (0, g.num_edges // 2, g.num_edges - 1):
            energy, g0 = channel.link_budget(float(txp[g.src[e]]),
                                             float(g.distance_km[3][e]), params,
                                             times.frames_per_slot)
            assert g.weights_j[3][e] == pytest.approx(energy, rel=1e-12)
            assert outage[3][e] == pytest.approx(
                channel.outage_from_gamma0(g0, params), rel=1e-12)


class TestRobustWeights:
    def test_rho_one_unchanged(self, delta_snapshot, params):
        g, _, _ = delta_snapshot
        r = topology.robust_weights(g, 1.0, params)
        assert np.array_equal(r.weights_j, g.weights_j)

    def test_rho_zero_pure_log_survival(self, delta_snapshot, params):
        g, _, _ = delta_snapshot
        r = topology.robust_weights(g, 0.0, params)
        isl = g.dst != g.geo_node
        # log(1/(1-p)) evaluated naively loses precision for small p; the
        # implementation uses the log1p form, so compare at 1e-9 relative.
        outage = channel.outage_from_gamma0(g.gamma0[:, isl], params)
        expected = np.log(1.0 / (1.0 - outage))
        assert np.allclose(r.weights_j[:, isl], expected, rtol=1e-9, atol=0)
        assert np.all(r.weights_j[:, ~isl] == 0.0)  # uplinks outage-exempt

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_penalty_is_the_outage_of_gamma0_under_params(self, star_spec, rho):
        # Bit for bit: the blend of the outage probability that
        # outage_from_gamma0 gives for the graph's gamma0 under the params
        # passed in, with uplinks exempt and unusable rows at +inf.
        params = channel.LinkParams(theta_t_rad=0.05, snr_th_db=-100.0)
        cfg = make_scenario(star_spec, rho=0.1, clusters=41, seed=42, params=params)
        g = topology.build_snapshot(cfg.spec, params, cfg.times, 0.0,
                                    sim.scenario_tx_power(cfg))
        out = np.where(g.dst == g.geo_node, 0.0, channel.outage_from_gamma0(g.gamma0, params))
        with np.errstate(divide="ignore", invalid="ignore"):
            blended = rho * g.weights_j + (1.0 - rho) * np.log1p(out / (1.0 - out))
        unusable = ~np.isfinite(g.weights_j) | np.any(out >= 1.0, axis=0)
        r = topology.robust_weights(g, rho, params)
        assert np.array_equal(r.weights_j, np.where(unusable, np.inf, blended))
        assert 0 < r.dropped_edges < r.num_edges

    @pytest.mark.parametrize("rho", [0.1, 0.5])
    def test_outage_evaluated_on_isl_rows_only(self, star_spec, rho, monkeypatch):
        # One evaluation over the ISL rows of every frame, none of the
        # exempt uplinks', and the weights bit for bit those blended from
        # every row's outage with the uplinks' set to 0.
        cfg = make_scenario(star_spec, rho=rho, clusters=41, seed=42)
        tx_power = sim.scenario_tx_power(cfg)
        real, sizes = channel._erf, []

        def counted(x):
            sizes.append(np.size(x))
            return real(x)

        for t in (0, 7):
            g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times,
                                        t * cfg.times.slot_len_s, tx_power)
            uplink = g.dst == g.geo_node
            out = np.where(uplink, 0.0, channel.outage_from_gamma0(g.gamma0, cfg.params))
            with np.errstate(divide="ignore", invalid="ignore"):
                blended = rho * g.weights_j + (1.0 - rho) * np.log1p(out / (1.0 - out))
            unusable = ~np.isfinite(g.weights_j) | np.any(out >= 1.0, axis=0)
            sizes.clear()
            with monkeypatch.context() as mp:
                mp.setattr(channel, "_erf", counted)
                r = topology.robust_weights(g, rho, cfg.params)
            assert sizes == [g.frame_count * int(np.count_nonzero(~uplink))]
            assert np.array_equal(r.weights_j, np.where(unusable, np.inf, blended))

    @pytest.mark.parametrize("rho", [0.1, 0.5])
    def test_graph_without_relay_evaluates_every_row(self, rho, params):
        rng = np.random.default_rng(5)
        n, edges = random_digraph(rng, max_nodes=12, p=0.5, min_nodes=6)
        src, dst, _ = zip(*edges)
        w = rng.uniform(0.01, 10.0, size=(3, len(edges)))
        gamma0 = rng.uniform(-0.1, 1.1, size=w.shape)
        g = SnapshotGraph.from_arrays(n, src, dst, w, gamma0=gamma0)
        out = channel.outage_from_gamma0(g.gamma0, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            blended = rho * g.weights_j + (1.0 - rho) * np.log1p(out / (1.0 - out))
        unusable = ~np.isfinite(g.weights_j) | np.any(out >= 1.0, axis=0)
        r = topology.robust_weights(g, rho, params)
        assert np.array_equal(r.weights_j, np.where(unusable, np.inf, blended))
        assert 0 < r.dropped_edges < r.num_edges

    def test_zero_outage_edge_scales_by_rho(self, params):
        g = from_edge_list(3, [(0, 1, 4.0), (1, 2, 2.0)])
        r = topology.robust_weights(g, 0.25, params)
        assert r.weights_j[0].tolist() == [1.0, 0.5]

    def test_affine_in_rho(self, delta_snapshot, params):
        g, _, _ = delta_snapshot
        r0 = topology.robust_weights(g, 0.0, params)
        r1 = topology.robust_weights(g, 1.0, params)
        rho = 0.3
        r = topology.robust_weights(g, rho, params)
        assert np.allclose(r.weights_j,
                           rho * r1.weights_j + (1 - rho) * r0.weights_j,
                           rtol=1e-12, atol=1e-300)

    def test_certain_outage_isl_dropped_and_counted(self, params):
        # Certain outage in one frame makes the ISL unusable for the slot:
        # its row stays, at +inf in every frame, and counts as dropped.
        # gamma0 >= 1 is certain outage, gamma0 <= 0 none.
        w = np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]])
        g = SnapshotGraph.from_arrays(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                                      w, gamma0=np.array([[1e-3, 1.0, 0.0],
                                                          [2e-3, 1e-2, 5e-4]]))
        outage = channel.outage_from_gamma0(g.gamma0, params)
        assert outage[0, 1] == 1.0 and outage[0, 2] == 0.0
        assert np.all(outage[1] < 1.0)
        r = topology.robust_weights(g, 0.5, params)
        assert r.dropped_edges == 1
        assert np.array_equal(r.src, g.src) and np.array_equal(r.dst, g.dst)
        assert np.all(r.weights_j[:, 1] == np.inf)
        kept = [0, 2]
        expected = (0.5 * w[:, kept]
                    + 0.5 * np.log1p(outage[:, kept] / (1.0 - outage[:, kept])))
        assert np.array_equal(r.weights_j[:, kept], expected)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_unusable_row_stays_unusable_at_every_rho(self, rho, params):
        # 0 * inf is nan at rho 0 and 1; the row must read +inf instead.
        w = np.array([[1.0, np.inf], [2.0, np.inf]])
        g = SnapshotGraph.from_arrays(3, np.array([0, 1]), np.array([1, 2]), w,
                                      gamma0=np.array([[1e-3, 1.0], [1e-3, 0.0]]))
        assert g.dropped_edges == 1
        r = topology.robust_weights(g, rho, params)
        assert np.all(r.weights_j[:, 1] == np.inf)
        assert np.all(np.isfinite(r.weights_j[:, 0]))
        assert r.dropped_edges == 1

    def test_geo_uplinks_exempt_from_dropping(self, delta_snapshot, params):
        g, _, _ = delta_snapshot
        geo = g.dst == g.geo_node
        # weak transmitters
        assert np.any(channel.outage_from_gamma0(g.gamma0[:, geo], params) >= 1.0)
        r = topology.robust_weights(g, 0.5, params)
        assert r.dropped_edges == 0
        assert r.num_edges == g.num_edges
        # exempt means penalty-free: blended weight is exactly rho * energy
        assert np.allclose(r.weights_j[:, geo], 0.5 * g.weights_j[:, geo],
                           rtol=0, atol=0)

    def test_edge_subset_preserved(self, delta_snapshot, params):
        g, _, _ = delta_snapshot
        r = topology.robust_weights(g, 0.5, params)
        orig = set(zip(g.src.tolist(), g.dst.tolist()))
        assert set(zip(r.src.tolist(), r.dst.tolist())) <= orig

    def test_rejects_bad_rho(self, delta_snapshot, params):
        g, _, _ = delta_snapshot
        with pytest.raises(ValueError):
            topology.robust_weights(g, 1.5, params)


@pytest.mark.parametrize("num_nodes", [9, 200, 300, 70_000])
def test_rev_order_is_the_lexsort_by_dst_then_src(num_nodes):
    # The stable sort on dst alone, on the narrowest unsigned type (uint8,
    # uint16, uint32 here), against the two-key sort. Heads come from a few
    # ids, the highest among them, so many rows share a head.
    rng = np.random.default_rng(num_nodes)
    for _ in range(25):
        heads = rng.integers(0, num_nodes, size=int(rng.integers(1, 8)))
        heads[0] = num_nodes - 1
        size = int(rng.integers(0, 300))
        keys = np.unique(rng.integers(0, num_nodes, size) * num_nodes + rng.choice(heads, size))
        src, dst = keys // num_nodes, keys % num_nodes
        src, dst = src[src != dst], dst[src != dst]
        order = rng.permutation(src.size)
        g = SnapshotGraph.from_arrays(num_nodes, src[order], dst[order],
                                      rng.uniform(size=(1, src.size)))
        assert g.rev_order.tolist() == np.lexsort((g.src, g.dst)).tolist()


def test_rev_order_of_a_snapshot(delta_snapshot):
    g, _, _ = delta_snapshot
    assert g.rev_order.tolist() == np.lexsort((g.src, g.dst)).tolist()


def test_ordered_sum_adds_left_to_right():
    # Left-to-right summation loses the 1.0 against 1e16 and ends at 0.0, as
    # numpy-scalar accumulation does; the compensated sum (math.fsum, or the
    # built-in sum() over Python floats from Python 3.12 on) gives 2.0.
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    assert math.fsum(values) == 2.0
    assert sum(np.array(values)) == 0.0
    assert topology.ordered_sum(values) == 0.0
    assert topology.ordered_sum(iter(values)) == 0.0
    assert topology.ordered_sum([]) == 0.0


def test_snapshot_csv_export(tmp_path, delta_snapshot, params):
    g, _, _ = delta_snapshot
    path = tmp_path / "snap.csv"
    topology.write_snapshot_csv(path, g, params)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("slot,frame,src_orbit,src_slot,dst_orbit,dst_slot,"
                        "distance_km,weight_j,outage_prob")
    assert len(lines) == 1 + g.frame_count * g.num_edges
    # GEO rows are labelled orbit -1.
    assert any(",-1,0," in ln for ln in lines[1:])


def test_snapshot_csv_outage_column_is_outage_of_gamma0_under_params(tmp_path, star_spec):
    # Bit for bit, frame by frame in row order: the column holds what
    # outage_from_gamma0 gives for the graph's gamma0 under the params passed.
    params = channel.LinkParams(theta_t_rad=0.05, snr_th_db=-100.0)
    times = TimeStructure.for_constellation(star_spec, frames_per_slot=3)
    txp = topology.tx_power_draw(star_spec, np.random.default_rng(0), *TX_POWER_W)
    g = topology.build_snapshot(star_spec, params, times, 0.0, txp)
    path = tmp_path / "snap.csv"
    topology.write_snapshot_csv(path, g, params)
    with open(path, newline="") as fh:
        column = [float(row["outage_prob"]) for row in csv.DictReader(fh)]
    expected = channel.outage_from_gamma0(g.gamma0, params)
    assert column == expected.ravel().tolist()
    assert 0.0 < min(column) < max(column)
