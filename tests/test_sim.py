import json
import math
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest

from conftest import (SCENARIOS, force_method, make_scenario, plans_cut_at, routed_isl_links,
                      sweep_snr_threshold)
from oracles import frame_rows, frame_trees, sample_attempts_per_edge, validate_tree
from oracles import taeer as taeer_per_frame
from satagg import channel, config, routing, sim, topology
from satagg.geometry import ConfigError
from satagg.sim import ScenarioConfig, sample_attempts


class TestScenarioConfig:
    def test_rejects_bad_rho(self, delta_spec, params):
        # Like rho, max_attempts is checked on construction rather than
        # failing rounds or raising mid-run.
        for field, value in (("rho", 1.5), ("max_attempts", 0)):
            with pytest.raises(ConfigError) as exc:
                make_scenario(delta_spec, **{field: value})
            assert exc.value.field == field

    def test_rejects_unknown_algorithm(self, delta_spec):
        for algorithms in (("magic",), (), ("taeer", "d_merge", "taeer")):
            with pytest.raises(ConfigError) as exc:
                make_scenario(delta_spec, algorithms=algorithms)
            assert exc.value.field == "algorithms"

    def test_rejects_unnormalised_weights(self, delta_spec, params):
        from satagg.geometry import GroundCluster
        from satagg.topology import TimeStructure
        clusters = (GroundCluster(0, 0.0, 0.0, (0.4,)),
                    GroundCluster(1, 10.0, 5.0, (0.4,)))
        with pytest.raises(ValueError):
            ScenarioConfig(spec=delta_spec, params=params,
                           times=TimeStructure.for_constellation(delta_spec),
                           clusters=clusters)

    def test_outage_sampling_defaults_to_rho(self, delta_spec):
        assert not make_scenario(delta_spec, rho=1.0).outages_enabled
        assert make_scenario(delta_spec, rho=0.5).outages_enabled


def gamma0_for_outage(p_target, params):
    """The gamma0 whose per-attempt outage probability is p_target,
    inverting the closed form by bisection."""
    lo, hi = 1e-12, 1 - 1e-12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if channel.outage_from_gamma0(mid, params) < p_target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestSampleAttempts:
    def test_geometric_mean_matches(self, params):
        # Choose gamma0 so the per-attempt failure probability p is known;
        # attempts are then geometric with mean 1/(1-p).
        rng = np.random.default_rng(0)
        for p_target in (0.05, 0.2, 0.5):
            g0_val = gamma0_for_outage(p_target, params)
            p = channel.outage_from_gamma0(g0_val, params)
            assert p == pytest.approx(p_target, abs=1e-6)
            n = 10_000
            draws, ok = sample_attempts(rng, [g0_val] * n, params, 100)
            assert all(ok)
            mean = float(np.mean(draws))
            expected = 1.0 / (1.0 - p)
            sigma = math.sqrt(p) / (1.0 - p) / math.sqrt(n)
            assert abs(mean - expected) <= 3.0 * sigma

    def test_certain_outage_exhausts_attempts(self, params):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert sample_attempts(rng, [1.0, math.inf], params, max_attempts=17) == \
            ([17, 17], [False, False])
        assert rng.bit_generator.state == state   # decided without a draw

    def test_zero_gamma_always_first_try(self, params):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert sample_attempts(rng, [0.0, -0.0], params, 100) == ([1, 1], [True, True])
        assert rng.bit_generator.state == state

    def test_nan_gamma_fails_every_attempt(self, params):
        # No draw passes a NaN threshold, as in the per-edge loop.
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        assert sample_attempts(rng, [math.nan], params, 5) == ([5], [False])
        ref.standard_normal(5)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("max_attempts", [1, 2, 3, 100])
    def test_equals_per_edge_draws(self, params, max_attempts):
        # The frame sampler against the per-edge scalar loop, row after row,
        # on one generator each carried across 1000 random frames: equal
        # results and an equal generator state after every frame.
        near = [gamma0_for_outage(p, params) for p in (0.01, 0.3, 0.7, 0.95, 0.999)]
        special = [0.0, 1.0, 1.5, math.inf, math.nan, 1e-300, 5e-324,
                   math.nextafter(1.0, 0.0)]
        pick = np.random.default_rng(max_attempts)
        rng, ref = np.random.default_rng(42), np.random.default_rng(42)
        drawn = capped = 0
        for _ in range(1000):
            rows = []
            for _ in range(int(pick.integers(0, 30))):
                kind = pick.random()
                if kind < 0.15:
                    rows.append(special[pick.integers(len(special))])
                elif kind < 0.6:
                    rows.append(near[pick.integers(len(near))] * pick.uniform(0.9, 1.1))
                else:
                    rows.append(float(10.0 ** pick.uniform(-12, 0)))
            want = [sample_attempts_per_edge(ref, g, params, max_attempts) for g in rows]
            got = sample_attempts(rng, rows, params, max_attempts)
            assert got == ([k for k, _ in want], [ok for _, ok in want])
            assert rng.bit_generator.state == ref.bit_generator.state
            drawn += sum(k for (k, _), g in zip(want, rows) if 0.0 < g < 1.0)
            capped += sum(1 for (k, ok), g in zip(want, rows) if not ok and g < 1.0)
        # Retransmissions happened, and rows ran out of attempts mid-frame.
        assert drawn > 5000 and capped > 50

    @pytest.mark.parametrize("max_attempts", [1, 2, 100])
    def test_equals_per_edge_draws_on_long_rounds(self, params, max_attempts):
        # Rounds as long as a shipped star round's routed rows (500-3,000),
        # at about the shell's 0.7% outage, so that one segment spans most
        # of a long batch, with a few near-certain outages among them that
        # run out of attempts mid-batch. The rounds go in as lists and as
        # arrays, as the simulator passes them: equal results and an equal
        # generator state after every round.
        typical = gamma0_for_outage(0.007, params)
        hopeless = gamma0_for_outage(0.999, params)
        pick = np.random.default_rng(100 + max_attempts)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        retried = capped = 0
        for t in range(12):
            n = int(pick.integers(500, 3001))
            rows = (typical * pick.uniform(0.5, 1.5, n)).tolist()
            for j in pick.choice(np.arange(1, n - 1), size=5, replace=False).tolist():
                rows[j] = hopeless
            want = [sample_attempts_per_edge(ref, g, params, max_attempts) for g in rows]
            got = sample_attempts(rng, rows if t % 2 else np.array(rows), params, max_attempts)
            assert got == ([k for k, _ in want], [ok for _, ok in want])
            assert rng.bit_generator.state == ref.bit_generator.state
            retried += sum(1 for k, ok in want if ok and k > 1)
            capped += sum(1 for _, ok in want if not ok)
        assert capped >= 12 * (5 if max_attempts < 100 else 3)
        assert retried > 50 or max_attempts == 1


# Exact per-round outage columns of compare-algorithms on the shipped
# 80-satellite star (rho 0.1) over 2 rounds, as (attempts, failures, failed,
# repr of retransmission energy) per algorithm. They pin the random stream
# of the retransmission draws: the geometric law of the attempt counts holds
# for many streams, so only exact values catch a changed one. taeer and
# d_merge route the same trees on these rounds.
PATHS_DEFAULT = ([1551, 1626], [15, 7], [False, False],
                 ["103.49307211797897", "29.745156290297786"])
PATHS_100DB = ([1623, 1710], [100, 79], [False, False],
               ["906.2929668096957", "512.544737632008"])
PATHS_100DB_CAP2 = ([1605, 1710], [103, 84], [True, True],
                    ["819.8394078162144", "522.7951276328785"])
STREAM_PINS = {
    "default": ({}, {
        "taeer": PATHS_DEFAULT, "d_merge": PATHS_DEFAULT,
        "orbit_greedy": ([1393, 1309], [18, 9], [False, False],
                         ["84.26348266645816", "42.13173985364568"])}),
    "-100dB": ({("link", "snr_threshold_db"): "-100"}, {
        "taeer": PATHS_100DB, "d_merge": PATHS_100DB,
        "orbit_greedy": ([1437, 1354], [62, 54], [False, False],
                         ["290.24087865164137", "252.79044586642058"])}),
    "-100dB-2-attempts": ({("link", "snr_threshold_db"): "-100",
                           ("run", "max_attempts"): "2"}, {
        "taeer": PATHS_100DB_CAP2, "d_merge": PATHS_100DB_CAP2,
        "orbit_greedy": ([1434, 1354], [66, 58], [True, True],
                         ["276.19697106719957", "252.790447064157"])}),
}


@pytest.mark.parametrize("case", sorted(STREAM_PINS))
def test_outage_stream_pinned(case):
    edits, want = STREAM_PINS[case]
    values = config.read_config(str(SCENARIOS / "walker_star_80.cfg"))
    values["run"]["rounds"] = "2"
    for (section, key), value in edits.items():
        values[section][key] = value
    res = sim.compare_algorithms(config.build_scenario(values))
    got = {a: ([r.attempts for r in m.records], [r.failures for r in m.records],
               [r.failed for r in m.records],
               [repr(r.retrans_energy_j) for r in m.records])
           for a, m in res.items()}
    assert got == want


# Exact energy split of compare-algorithms over 2 rounds on the shipped
# 80-satellite star (rho 0.1) and delta (rho 1), as (repr of tree energy,
# repr of GEO-uplink energy, edge-frames) per round and algorithm. They pin
# which rows are charged as LEO-LEO hops and which as uplinks, and the order
# each total adds them in.
SPLIT_STAR_PATHS = (["8085.44232494796", "7234.4136886402075"],
                    ["29607.93498198203", "30621.149644851797"], [1536, 1619])
SPLIT_DELTA_PATHS = (["5221.076903203491", "5339.260590877609"],
                     ["29818.091839058758", "29855.07705320095"], [1405, 1475])
ENERGY_SPLIT_PINS = {
    "walker_star_80.cfg": {
        "taeer": SPLIT_STAR_PATHS, "d_merge": SPLIT_STAR_PATHS,
        "orbit_greedy": (["6436.793481643466", "6085.695656998557"],
                         ["140975.06024744926", "142151.65631129305"], [1375, 1300])},
    "walker_delta_80.cfg": {
        "taeer": SPLIT_DELTA_PATHS, "d_merge": SPLIT_DELTA_PATHS,
        "orbit_greedy": (["6298.830983052996", "6409.336851041053"],
                         ["134793.67960223407", "135363.616149776"], [1425, 1450])},
}


@pytest.mark.parametrize("scenario", sorted(ENERGY_SPLIT_PINS))
def test_energy_split_pinned(scenario):
    values = config.read_config(str(SCENARIOS / scenario))
    values["run"]["rounds"] = "2"
    res = sim.compare_algorithms(config.build_scenario(values))
    got = {a: ([repr(r.tree_energy_j) for r in m.records],
               [repr(r.geo_energy_j) for r in m.records],
               [r.edge_frames for r in m.records])
           for a, m in res.items()}
    assert got == ENERGY_SPLIT_PINS[scenario]


def test_gamma0_array_equals_scalar_calls(star_spec):
    # The snapshot evaluates the link budget in one call for all (frame,
    # edge) cells. A call per frame on its rows must equal the per-edge
    # scalar calls bit for bit, and so must the snapshot's own arrays.
    cfg = make_scenario(star_spec, rho=0.1, clusters=41, seed=42)
    tx_power = sim.scenario_tx_power(cfg)
    g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, 0.0, tx_power)
    u_frames = cfg.times.frames_per_slot
    for u in range(g.frame_count):
        p_t, d_km = tx_power[g.src], g.distance_km[u]
        energy, gamma0 = channel.link_budget(p_t, d_km, cfg.params, u_frames)
        scalar = [channel.link_budget(p, d, cfg.params, u_frames)
                  for p, d in zip(p_t.tolist(), d_km.tolist())]
        assert energy.tolist() == [float(e) for e, _ in scalar]
        assert gamma0.tolist() == [float(g0) for _, g0 in scalar]
        assert channel.gamma0(p_t, d_km, cfg.params).tolist() == gamma0.tolist()
        assert g.gamma0[u].tolist() == gamma0.tolist()
        assert g.weights_j[u].tolist() == energy.tolist()


def round_trees(algorithm, g, terminals, plans, rng):
    """One router's trees of a round, one per frame, as _simulate routes
    them (sim._round_trees): plans are the round's path plans
    (routing.path_plans) toward the path routers' uplink satellite."""
    return frame_trees(g, g.geo_node, *sim._round_trees(algorithm, g, terminals, plans, rng))


def test_routers_return_rows_of_the_energy_graph(star_spec):
    # The simulator charges result.edge_ids against the energy graph's
    # weights, so the outage-blended graph must keep its rows.
    cfg = make_scenario(star_spec, rho=0.1, clusters=41, seed=42)
    g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, 0.0,
                                sim.scenario_tx_power(cfg))
    r = topology.robust_weights(g, cfg.rho, topology.slot_outage(g, cfg.params))
    assert np.array_equal(r.src, g.src) and np.array_equal(r.dst, g.dst)
    _, terminals = sim.terminals_for_round(cfg, 0.0)
    plans = routing.path_plans(r, terminals, routing.select_root(g, terminals))
    for algorithm in sim.ALGORITHMS:
        trees = round_trees(algorithm, r, terminals, plans, np.random.default_rng(0))
        assert len(trees) == g.frame_count
        for result in trees:
            assert result.edges
            rows = g.edge_rows([c for c, _ in result.edges],
                               [p for _, p in result.edges])
            assert rows.tolist() == list(result.edge_ids)


def left_to_right(values):
    return reduce(add, values, 0.0)


@pytest.mark.parametrize("shell, rho", [("delta", 1.0), ("star", 0.1)])
def test_router_costs_are_left_to_right_edge_sums(shell, rho, delta_spec, star_spec):
    cfg = make_scenario(delta_spec if shell == "delta" else star_spec,
                        rho=rho, clusters=41, seed=42)
    tx_power = sim.scenario_tx_power(cfg)
    for t in (0, 5):
        t_abs = t * cfg.times.slot_len_s
        g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs, tx_power)
        if rho < 1.0:
            g = topology.robust_weights(g, rho, topology.slot_outage(g, cfg.params))
        _, terminals = sim.terminals_for_round(cfg, t_abs)
        plans = routing.path_plans(g, terminals, routing.select_root(g, terminals))
        trees = {algorithm: round_trees(algorithm, g, terminals, plans,
                                        np.random.default_rng(t))
                 for algorithm in sim.ALGORITHMS}
        for u in (0, 12, 24):
            w = g.weights_j[u].tolist()
            for algorithm in sim.ALGORITHMS:
                res = trees[algorithm][u]
                assert res.total_cost == left_to_right(
                    w[e] for e in res.edge_ids), algorithm


def test_every_tree_is_rooted_at_the_relay(delta_spec, monkeypatch):
    # Each router's tree ends at the GEO relay. A path router's holds one
    # uplink row, out of the record's root; orbit_greedy's one per occupied
    # orbit.
    cfg = make_scenario(delta_spec, algorithms=sim.ALGORITHMS, rounds=2)
    trees = {a: [] for a in sim.ALGORITHMS}
    round_terminals = []

    def spy(algorithm, g, terminals, plans, rng):
        res = real_trees(algorithm, g, terminals, plans, rng)
        trees[algorithm].extend((g, tree) for tree in frame_trees(g, g.geo_node, *res))
        return res

    def terminals_spy(*args):
        mapping, terminals = real_terminals(*args)
        round_terminals.append(terminals)
        return mapping, terminals

    real_terminals, real_trees = sim.terminals_for_round, sim._round_trees
    monkeypatch.setattr(sim, "terminals_for_round", terminals_spy)
    monkeypatch.setattr(sim, "_round_trees", spy)
    results = sim.compare_algorithms(cfg)
    frames = cfg.times.frames_per_slot
    for algorithm, m in results.items():
        assert len(trees[algorithm]) == frames * cfg.rounds
        for k, (g, res) in enumerate(trees[algorithm]):
            terminals = round_terminals[k // frames]
            assert res.frame == k % frames
            assert res.root == g.geo_node
            validate_tree(res, terminals)
            ups = [c for c, p in res.edges if p == g.geo_node]
            if algorithm == "orbit_greedy":
                assert g.node_orbit[ups].tolist() == sorted(
                    set(g.node_orbit[terminals].tolist()))
            else:
                assert ups == [m.records[k // frames].root]


@pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.cfg")))
def test_every_router_charges_every_frame_frame_major(scenario, monkeypatch):
    # _charge counts a round's routed frames as frame[-1] + 1. That holds
    # when every router's (frame, rows) arrays are frame-major, ascending
    # within a frame, and hold an uplink row in every routed frame. On the
    # shipped shells, at their rho, every router routes every frame.
    values = config.read_config(str(SCENARIOS / scenario))
    values["run"]["rounds"] = "2"
    cfg = replace(config.build_scenario(values), algorithms=sim.ALGORITHMS)
    charged = []
    real = sim._charge

    def spy(rec, graph, outage, frame, rows, scenario_cfg, rng):
        charged.append((rec.algorithm, graph, frame, rows))
        real(rec, graph, outage, frame, rows, scenario_cfg, rng)

    monkeypatch.setattr(sim, "_charge", spy)
    sim.compare_algorithms(cfg)
    assert [a for a, *_ in charged] == list(sim.ALGORITHMS) * cfg.rounds
    for algorithm, g, frame, rows in charged:
        per_frame = frame_rows(frame, rows)   # asserts the order
        assert len(per_frame) == g.frame_count, algorithm
        for u, r in enumerate(per_frame):
            assert (g.dst[r] == g.geo_node).any(), (algorithm, u)


class TestRunScenario:
    def test_error_free_mode_pure_tree_costs(self, delta_spec):
        cfg = make_scenario(delta_spec, rho=1.0, rounds=3)
        m = sim.run_scenario(cfg)
        assert m.failed_rounds == 0
        assert m.avg_outage_per_isl_pct is None
        for r in m.records:
            assert r.retrans_energy_j == 0.0
            assert r.failures == 0
            assert r.attempts == r.edge_frames
            assert r.total_energy_j == r.tree_energy_j + r.geo_energy_j

    def test_averages_recompute_from_records(self, delta_spec):
        cfg = make_scenario(delta_spec, rho=0.1, rounds=4)
        m = sim.run_scenario(cfg)
        good = [r for r in m.records if not r.failed]
        recomputed = left_to_right(r.total_energy_j for r in good) / len(good)
        assert m.avg_energy_per_slot_j == recomputed
        frames = sum(r.edge_frames for r in m.records)
        analytic = left_to_right(r.analytic_outage_sum for r in m.records)
        assert m.analytic_outage_pct == 100.0 * analytic / frames
        attempts = sum(r.attempts for r in m.records)
        failures = sum(r.failures for r in m.records)
        assert m.avg_outage_per_isl_pct == pytest.approx(100 * failures / attempts)

    def test_retransmission_energy_closure(self, delta_spec):
        # total = sum over used edges of attempts * frame energy; with the
        # accumulation split into first-attempt + retransmissions the parts
        # must recombine exactly.
        cfg = make_scenario(delta_spec, rho=0.1, rounds=3)
        m = sim.run_scenario(cfg)
        for r in m.records:
            assert r.retrans_energy_j >= 0.0
            assert r.attempts >= r.edge_frames
            assert r.failures == r.attempts - r.edge_frames

    def test_determinism_same_seed(self, delta_spec):
        cfg = make_scenario(delta_spec, rho=0.1, rounds=3, seed=99)
        a = sim.run_scenario(cfg)
        b = sim.run_scenario(cfg)
        assert a == b

    def test_different_seeds_differ(self, delta_spec):
        a = sim.run_scenario(make_scenario(delta_spec, rho=0.1, rounds=3, seed=1))
        b = sim.run_scenario(make_scenario(delta_spec, rho=0.1, rounds=3, seed=2))
        assert a.avg_energy_per_slot_j != b.avg_energy_per_slot_j

    def test_terminals_change_across_rounds(self, delta_spec):
        cfg = make_scenario(delta_spec, rounds=1)
        t0 = sim.terminals_for_round(cfg, 0.0)[1]
        t5 = sim.terminals_for_round(cfg, 5 * cfg.times.slot_len_s)[1]
        assert t0 != t5

    def test_infeasible_round_marked_failed_run_continues(self, delta_spec,
                                                          monkeypatch):
        from satagg.routing import RoutingInfeasibleError
        real = routing.taeer_round
        state = {"round": 0}

        def flaky(g, terminals, root, frame, rows):
            if state["round"] == 1:
                raise RoutingInfeasibleError([terminals[0]], what="terminal")
            return real(g, terminals, root, frame, rows)

        monkeypatch.setattr(routing, "taeer_round", flaky)
        cfg = make_scenario(delta_spec, rounds=3)
        master = []

        orig_record = sim.RoundRecord

        def tracking_record(*args, **kw):
            state["round"] = kw.get("round_index", args[0] if args else 0)
            rec = orig_record(*args, **kw)
            master.append(rec)
            return rec

        monkeypatch.setattr(sim, "RoundRecord", tracking_record)
        m = sim.run_scenario(cfg)
        assert m.failed_rounds == 1
        flags = [r.failed for r in m.records]
        assert flags == [False, True, False]
        good = [r for r in m.records if not r.failed]
        assert m.avg_energy_per_slot_j == pytest.approx(
            sum(r.total_energy_j for r in good) / len(good))


@pytest.mark.parametrize("sampled", [False, True])
def test_charging_no_trees_adds_nothing_and_fails_the_round(delta_spec, sampled):
    # A round whose plans stop at frame 0 (or whose router finds it
    # infeasible) charges no tree, with outages sampled or not: every
    # frame is unrouted, so the round fails, and the generator is not read.
    cfg = make_scenario(delta_spec, rho=0.1 if sampled else 1.0)
    g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, 0.0,
                                sim.scenario_tx_power(cfg))
    rec = sim.RoundRecord(0, 0, "taeer", None, 0)
    rng = np.random.default_rng(3)
    none = np.zeros(0, dtype=np.intp)
    outage = topology.slot_outage(g, cfg.params) if sampled else None
    sim._charge(rec, g, outage, none, none, cfg, rng)
    assert rec == sim.RoundRecord(0, 0, "taeer", None, 0, failed=True)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("gamma0, max_attempts, want", [
    (0.0, 100, (1, 0, "nan", "nan")),     # first try: (1 - 1) * inf
    (1.0, 100, (100, 100, "inf", "inf")),
    (1.5, 100, (100, 100, "inf", "inf")),
    (1.0, 1, (1, 1, "nan", "nan")),       # capped at its first try
])
def test_charge_of_a_routed_unusable_row(delta_spec, gamma0, max_attempts, want):
    # One frame whose tree routes an ISL row of weight +inf before its
    # uplink, charged at rho < 1. The round fails, as its energy is not
    # finite; a retransmission energy of (attempts - 1) * inf is NaN where
    # the row takes one attempt. Pinned as charged, field by field.
    cfg = make_scenario(delta_spec, rho=0.1, max_attempts=max_attempts)
    g = topology.SnapshotGraph.from_arrays(3, [0, 1], [1, 2], [[np.inf, 2.0]],
                                           gamma0=[[gamma0, 0.0]], geo_node=2)
    rec = sim.RoundRecord(0, 0, "taeer", None, 2)
    rng = np.random.default_rng(3)
    sim._charge(rec, g, topology.slot_outage(g, cfg.params), np.array([0, 0]),
                np.array([0, 1]), cfg, rng)
    attempts, failures, retrans, total = want
    assert (rec.attempts, rec.failures, rec.edge_frames) == (attempts, failures, 1)
    assert repr(rec.tree_energy_j) == "inf" and rec.geo_energy_j == 2.0
    assert (repr(rec.retrans_energy_j), repr(rec.total_energy_j)) == (retrans, total)
    assert rec.analytic_outage_sum == (0.0 if gamma0 == 0.0 else 1.0)
    assert rec.failed
    # Only a threshold strictly inside (0, 1) draws.
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_orbit_greedy_trees_do_not_depend_on_rho():
    # orbit_greedy draws every frame's arc roots before any outage draw,
    # so outage sampling (rho < 1) changes its outages but not its trees.
    values = config.read_config(str(SCENARIOS / "walker_star_80.cfg"))
    values["run"]["rounds"] = "3"
    cfg = replace(config.build_scenario(values), algorithms=("orbit_greedy",))
    runs = [sim.run_scenario(replace(cfg, rho=rho)) for rho in (1.0, 0.1)]
    got = [[(r.tree_energy_j, r.geo_energy_j, r.edge_frames) for r in m.records]
           for m in runs]
    assert len(got[0]) == 3
    assert got[0] == got[1]


@pytest.mark.parametrize("rho", [1.0, 0.1])
def test_one_outage_draw_per_round_and_algorithm(delta_spec, monkeypatch, rho):
    # With outages on, each (round, algorithm) samples all its routed
    # LEO-LEO rows in one call; at rho = 1 nothing is sampled.
    real, sizes = sim.sample_attempts, []

    def spy(rng, gamma0, params, max_attempts):
        sizes.append(len(gamma0))
        return real(rng, gamma0, params, max_attempts)

    monkeypatch.setattr(sim, "sample_attempts", spy)
    cfg = make_scenario(delta_spec, algorithms=sim.ALGORITHMS, rho=rho, rounds=2)
    res = sim.compare_algorithms(cfg)
    want = [res[a].records[t].edge_frames for t in range(cfg.rounds) for a in sim.ALGORITHMS]
    assert sizes == (want if cfg.outages_enabled else [])


def test_slot_label_is_the_graphs_slot(delta_spec):
    # Rounds past the first period take the slot label of their graph.
    cfg = make_scenario(delta_spec, algorithms=("d_merge",), rounds=26)
    cfg = replace(cfg, times=replace(cfg.times, frames_per_slot=1))
    m = cfg.times.slots_per_period
    assert cfg.rounds > m
    labels = [r.slot_label for r in sim.run_scenario(cfg).records]
    assert labels == [t % m for t in range(cfg.rounds)]


class TestCompareAlgorithms:
    def test_single_algorithm_single_column(self, delta_spec):
        cfg = make_scenario(delta_spec, algorithms=("orbit_greedy",), rounds=2)
        res = sim.compare_algorithms(cfg)
        assert set(res) == {"orbit_greedy"}

    def test_taeer_never_above_d_merge(self, delta_spec):
        cfg = make_scenario(delta_spec,
                            algorithms=("taeer", "d_merge"), rounds=4)
        res = sim.compare_algorithms(cfg)
        for a, b in zip(res["taeer"].records, res["d_merge"].records):
            assert a.tree_energy_j <= b.tree_energy_j + 1e-9
            assert a.root == b.root

    @pytest.mark.parametrize("algorithms, searches_per_frame", [
        (("taeer", "d_merge", "orbit_greedy"), 1), (("orbit_greedy",), 0),
        (("orbit_greedy", "d_merge"), 1), (("taeer",), 1)])
    def test_one_path_search_per_frame(self, delta_spec, monkeypatch,
                                       algorithms, searches_per_frame):
        # One uplink satellite per round with a path router, none for
        # orbit_greedy alone, and one plan per frame toward it, from one
        # routing.path_plans call per round.
        real_plans, real_select = routing.path_plans, routing.select_root
        calls, roots = [], []

        def counted(g, terminals, root):
            plans = real_plans(g, terminals, root)
            calls.extend((u, root) for u in range(len(frame_rows(*plans))))
            return plans

        def selected(*args):
            roots.append(real_select(*args))
            return roots[-1]

        monkeypatch.setattr(routing, "path_plans", counted)
        monkeypatch.setattr(routing, "select_root", selected)
        cfg = make_scenario(delta_spec, algorithms=algorithms, rounds=2)
        res = sim.compare_algorithms(cfg)
        frames = cfg.times.frames_per_slot
        assert len(calls) == searches_per_frame * cfg.rounds * frames
        assert len(roots) == searches_per_frame * cfg.rounds
        assert [root for _, root in calls] == [r for r in roots for _ in range(frames)]
        for m in res.values():
            want = roots if m.algorithm != "orbit_greedy" else [None] * cfg.rounds
            assert [r.root for r in m.records] == want

    @pytest.mark.parametrize("rho", [1.0, 0.1])
    def test_shared_search_matches_each_router_alone(self, delta_spec, rho):
        cfg = make_scenario(delta_spec, rho=rho, rounds=3, seed=11,
                            algorithms=sim.ALGORITHMS)
        together = sim.compare_algorithms(cfg)
        for algorithm in sim.ALGORITHMS:
            alone = sim.run_scenario(replace(cfg, algorithms=(algorithm,)))
            assert together[algorithm] == alone, algorithm

    def test_failed_search_fails_every_path_router(self, delta_spec, monkeypatch):
        cfg = make_scenario(delta_spec, algorithms=sim.ALGORITHMS, rounds=3)
        # The plans are built on the round's own graph, whose slot_index is
        # the round index here (3 rounds < slots_per_period). Round 1 cuts a
        # terminal off from frame 3 on, by array sweeps and by the heap
        # search.
        assert cfg.rounds < cfg.times.slots_per_period
        for method in ("sweeps", "heap"):
            with monkeypatch.context() as mp:
                force_method(mp, method)
                plans_cut_at(mp, slot=1, k=3)
                res = sim.compare_algorithms(cfg)
            for algorithm in ("taeer", "d_merge"):
                assert [r.failed for r in res[algorithm].records] == [False, True, False]
            assert not any(r.failed for r in res["orbit_greedy"].records)

    @pytest.mark.parametrize("k", [0, 7, 24])
    def test_search_failing_at_frame_k_charges_the_frames_before(
            self, delta_spec, monkeypatch, k):
        # Round 1 cuts a terminal off from frame k on, so its plans stop
        # there, by array sweeps and by the heap search. Both path routers
        # fail that round with frames 0..k-1 charged, as the per-frame
        # reference routes and charges them; everything else is as in a
        # clean run.
        cfg = make_scenario(delta_spec, algorithms=sim.ALGORITHMS, rounds=3)
        assert k < cfg.times.frames_per_slot and cfg.rounds < cfg.times.slots_per_period
        clean = sim.compare_algorithms(cfg)
        t_abs = cfg.times.slot_len_s
        g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs,
                                    sim.scenario_tx_power(cfg))
        _, terminals = sim.terminals_for_round(cfg, t_abs)
        plans = frame_rows(*routing.path_plans(g, terminals, routing.select_root(g, terminals)))
        for method in ("sweeps", "heap"):
            with monkeypatch.context() as mp:
                force_method(mp, method)
                plans_cut_at(mp, slot=1, k=k)
                res = sim.compare_algorithms(cfg)
            assert res["orbit_greedy"] == clean["orbit_greedy"]
            for algorithm in ("taeer", "d_merge"):
                got, want = res[algorithm], clean[algorithm]
                assert got.failed_rounds == 1
                assert got.records[0] == want.records[0] and got.records[2] == want.records[2]
                tree_j, geo_j, outage, edge_frames = 0.0, 0.0, 0.0, 0
                for u, rows in enumerate(plans[:k]):
                    if algorithm == "taeer":
                        rows = list(taeer_per_frame(g, u, terminals, g.geo_node, rows).edge_ids)
                    isl = [e for e in rows if g.dst[e] != g.geo_node]
                    tree_j += left_to_right(g.weights_j[u][isl].tolist())
                    for e in rows:
                        if e not in isl:
                            geo_j += float(g.weights_j[u][e])
                    outage += left_to_right(channel.outage_from_gamma0(
                        g.gamma0[u][isl], cfg.params).tolist())
                    edge_frames += len(isl)
                assert got.records[1] == replace(
                    want.records[1], tree_energy_j=tree_j, geo_energy_j=geo_j,
                    analytic_outage_sum=outage, edge_frames=edge_frames,
                    attempts=edge_frames, failed=True)

    def test_rho_one_evaluates_outage_of_routed_rows_only(self, delta_spec, monkeypatch):
        real = channel._erf
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return real(x)

        monkeypatch.setattr(channel, "_erf", counted)
        cfg = make_scenario(delta_spec, algorithms=sim.ALGORITHMS, rounds=3)
        res = sim.compare_algorithms(cfg)
        # One batched call per (round, algorithm), over the routed rows only.
        assert len(sizes) == cfg.rounds * len(sim.ALGORITHMS)
        assert sum(sizes) == sum(r.edge_frames for m in res.values() for r in m.records)

    @pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.cfg")))
    def test_rho_below_one_evaluates_outage_once_per_slot(self, scenario, monkeypatch):
        # The counterpart at rho < 1: one batched call per round over the
        # slot's ISL rows of every frame (topology.slot_outage), none per
        # (round, algorithm), and every record's analytic outage bit for
        # bit the left-to-right sum of its routed rows' outages alone.
        values = config.read_config(str(SCENARIOS / scenario))
        values["algorithms"]["rho"] = "0.1"
        values["run"]["rounds"] = "2"
        if scenario == "walker_star_800.cfg":
            values["run"]["rounds"] = "1"
            values.setdefault("time", {})["frames_per_slot"] = "5"
        cfg = replace(config.build_scenario(values), algorithms=sim.ALGORITHMS)
        real_erf, real_charge = channel._erf, sim._charge
        sizes, charged = [], []

        def counted(x):
            sizes.append(np.size(x))
            return real_erf(x)

        def spy(rec, graph, outage, frame, rows, scenario_cfg, rng):
            real_charge(rec, graph, outage, frame, rows, scenario_cfg, rng)
            charged.append((rec, graph, frame, rows))

        with monkeypatch.context() as mp:
            mp.setattr(channel, "_erf", counted)
            mp.setattr(sim, "_charge", spy)
            sim.compare_algorithms(cfg)
        assert len(charged) == cfg.rounds * len(sim.ALGORITHMS)
        slots = [g for _, g, *_ in charged[::len(sim.ALGORITHMS)]]
        assert sizes == [g.frame_count * int(np.count_nonzero(g.dst != g.geo_node))
                         for g in slots]
        for rec, g, frame, rows in charged:
            outage = 0.0
            for u, r in enumerate(frame_rows(frame, rows)):
                isl = [e for e in r if g.dst[e] != g.geo_node]
                outage += left_to_right(channel.outage_from_gamma0(
                    g.gamma0[u][isl], cfg.params).tolist())
            assert rec.edge_frames > 0
            assert rec.analytic_outage_sum == outage, rec.algorithm

    def test_orbit_greedy_much_more_expensive(self, delta_spec):
        cfg = make_scenario(delta_spec,
                            algorithms=("taeer", "orbit_greedy"), rounds=4)
        res = sim.compare_algorithms(cfg)
        assert res["orbit_greedy"].avg_energy_per_slot_j > \
            1.5 * res["taeer"].avg_energy_per_slot_j

    def test_table_rendering(self, delta_spec):
        cfg = make_scenario(delta_spec, algorithms=("taeer",), rounds=2)
        text = sim.comparison_table(sim.compare_algorithms(cfg))
        assert "avg energy per slot (J)" in text and "taeer" in text


def test_rho_pareto_trend(delta_spec):
    """Raising rho from 0 to 1 trades outage for energy, as a trend over
    seeded ensembles (not per instance)."""
    energies = {0.0: [], 1.0: []}
    outages = {0.0: [], 1.0: []}
    for seed in range(20):
        for rho in (0.0, 1.0):
            cfg = make_scenario(delta_spec, rho=rho, rounds=2, seed=seed)
            m = sim.run_scenario(cfg)
            energies[rho].append(
                sum(r.tree_energy_j for r in m.records) / len(m.records))
            outages[rho].append(m.analytic_outage_pct)
    assert np.mean(energies[1.0]) <= np.mean(energies[0.0])
    assert np.mean(outages[1.0]) >= np.mean(outages[0.0])


def test_sweep_snr_threshold_monotone(delta_spec):
    cfg = make_scenario(delta_spec, rho=0.1, rounds=2)
    sweep = sweep_snr_threshold(cfg, [-130, -120, -110, -100, -90, -80])
    values = [v for _, v in sweep]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


@pytest.mark.parametrize("shell, rho", [("delta", 1.0), ("star", 0.1)])
def test_routed_isl_links_match_the_charged_rows(shell, rho, delta_spec, star_spec):
    # The sweep's rows are exactly the LEO-LEO rows the simulator charges,
    # and recording them leaves the run as it was.
    spec = delta_spec if shell == "delta" else star_spec
    cfg = make_scenario(spec, rho=rho, rounds=3, clusters=41)
    m, p_t, d_km = routed_isl_links(cfg)
    frames = sum(r.edge_frames for r in m.records)
    assert frames > 0 and len(p_t) == len(d_km) == frames
    assert m.records == sim.run_scenario(cfg).records


class TestExports:
    def test_metrics_json_schema_and_stability(self, tmp_path, delta_spec):
        cfg = make_scenario(delta_spec, rho=0.1, rounds=2, seed=5)
        m = sim.run_scenario(cfg)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        sim.write_metrics_json(p1, m)
        sim.write_metrics_json(p2, sim.run_scenario(cfg))
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        for key in ("algorithm", "rho", "constellation", "avg_energy_per_slot_j",
                    "avg_outage_pct", "rounds"):
            assert key in data
        assert data["constellation"] == "80/4/1 walker-delta"

    def test_rounds_csv(self, tmp_path, delta_spec):
        cfg = make_scenario(delta_spec, rounds=2)
        m = sim.run_scenario(cfg)
        path = tmp_path / "rounds.csv"
        sim.write_rounds_csv(path, m)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("round,slot,algorithm,root")

    def test_link_sweep_csv(self, tmp_path, params):
        path = tmp_path / "sweep.csv"
        sim.write_link_sweep_csv(path, params, 25, [1000.0, 2000.0], [0.5, 1.0])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        assert header == ["d_km", "p_t_w", "rx_power_w", "snr_db", "rate_bps",
                          "energy_j", "outage_prob"]
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["outage_prob"]) <= 1.0
        assert float(row["energy_j"]) > 0
