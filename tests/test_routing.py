import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    OracleSizeLimitError,
    _msa_rows,
    bellman_ford,
    enumerate_min_arborescence,
    exact_dst_oracle,
    paths_to_root,
    validate_tree,
)
from oracles import taeer as taeer_per_frame
from satagg import config, routing, sim, topology
from satagg.routing import (
    RoutingInfeasibleError,
    d_merge,
    orbit_greedy,
    orbit_plan,
    path_plans,
    select_root,
    shortest_path_csr,
    shortest_paths_to_root,
)
from satagg.topology import SnapshotGraph, ordered_sum

from conftest import (
    SCENARIOS,
    TX_POWER_W,
    chu_liu_edmonds,
    cut_off_from,
    from_edge_list,
    force_method,
    make_scenario,
    random_digraph,
    route,
    taeer,
)


def graph_of(n, edges, frames=1):
    return from_edge_list(n, edges, frame_count=frames)


def reaches_root(n, edges, root):
    """Nodes that can reach root following directed edges (test-side BFS)."""
    radj = {}
    for u, v, _ in edges:
        radj.setdefault(v, []).append(u)
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in radj.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class TestDijkstra:
    """shortest_path_csr, the package's Dijkstra search, run as the path
    search runs it: from the root over the reversed edges."""

    def test_source_equals_target(self):
        g = graph_of(3, [(0, 1, 1.0)])
        dist, pred = shortest_path_csr(*g.frame_reverse_csr(0), 0)
        assert dist[0] == 0.0 and pred[0] == -1

    def test_single_edge(self):
        g = graph_of(2, [(0, 1, 2.5)])
        dist, pred = shortest_path_csr(*g.frame_reverse_csr(0), 1)
        assert dist.tolist() == [2.5, 0.0] and pred.tolist() == [1, -1]

    def test_unreachable_returns_none(self):
        # Node 2 cannot reach 0: it gets no distance and no next hop.
        g = graph_of(3, [(1, 0, 1.0), (0, 2, 1.0)])
        dist, pred = shortest_path_csr(*g.frame_reverse_csr(0), 0)
        assert dist[2] == math.inf and pred[2] == -1

    def test_against_bellman_ford_ensemble(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            n, edges = random_digraph(rng, max_nodes=12)
            if not edges:
                continue
            g = graph_of(n, edges)
            root = int(rng.integers(n))
            dist, pred = shortest_path_csr(*g.frame_reverse_csr(0), root)
            reversed_edges = [(v, x, w) for x, v, w in edges]
            # exact float equality
            assert dist.tolist() == bellman_ford(n, reversed_edges, root)
            reached = np.isfinite(dist)
            assert pred[root] == -1 and (pred[~reached] == -1).all()
            reached[root] = False
            assert (pred[reached] >= 0).all()

    def test_path_follows_graph_edges(self):
        rng = np.random.default_rng(41)
        n, edges = random_digraph(rng, max_nodes=10, p=0.5)
        g = graph_of(n, edges)
        dist, pred = shortest_path_csr(*g.frame_reverse_csr(0), n - 1)
        # Every next hop is a graph edge, and a tight one: its weight plus
        # the next hop's distance is the node's distance, bit for bit.
        hops = np.flatnonzero(pred >= 0)
        assert hops.size > 0
        rows = g.edge_rows(hops, pred[hops])
        assert (g.weights_j[0][rows] + dist[pred[hops]] == dist[hops]).all()


class TestShortestPathCsr:
    @pytest.mark.parametrize("shell, rho", [("delta", 1.0), ("star", 0.1)])
    def test_reverse_search_matches_bellman_ford(self, shell, rho, delta_spec, star_spec):
        cfg = make_scenario(delta_spec if shell == "delta" else star_spec,
                            rho=rho, clusters=41, seed=42)
        g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, 0.0,
                                    sim.scenario_tx_power(cfg))
        if rho < 1.0:
            g = topology.robust_weights(g, rho, cfg.params)
        root = 3
        for u in (0, 12):
            dist, pred = shortest_path_csr(*g.frame_reverse_csr(u), root)
            assert dist.dtype == np.float64 and pred.dtype == np.int32
            reversed_edges = list(zip(g.dst.tolist(), g.src.tolist(),
                                      g.weights_j[u].tolist()))
            assert dist.tolist() == bellman_ford(g.num_nodes, reversed_edges, root)
            # The GEO relay transmits to no one, so the reverse search from a
            # satellite never reaches it.
            assert dist[g.geo_node] == math.inf
            reached = np.isfinite(dist)
            assert pred[root] == -1 and (pred[~reached] == -1).all()
            reached[root] = False
            assert (pred[reached] >= 0).all()


def assert_tight_tree(g, u, terminals, root, rows):
    """rows are a tree toward root whose leaves are terminals (d_merge's
    tree validates), and every row is tight under Bellman-Ford's distances
    to the root: w + dist[dst] == dist[src], bit for bit."""
    reversed_edges = list(zip(g.dst.tolist(), g.src.tolist(), g.weights_j[u].tolist()))
    dist = bellman_ford(g.num_nodes, reversed_edges, root)
    for r in rows:
        assert g.weights_j[u][r] + dist[g.dst[r]] == dist[g.src[r]], (u, r)
    validate_tree(d_merge(g, u, terminals, root, rows), terminals)


def planned_rows(g, terminals, root):
    """path_plans' plans on g plus a relay node that only root uplinks to,
    each without its uplink row and as rows of g."""
    n = g.num_nodes
    relayed = SnapshotGraph.from_arrays(
        n + 1, np.append(g.src, root), np.append(g.dst, n),
        np.column_stack((g.weights_j, np.ones(g.frame_count))), geo_node=n)
    plans = []
    for plan in path_plans(relayed, terminals, root):
        rows = [r for r in plan if relayed.dst[r] != n]
        plans.append(g.edge_rows(relayed.src[rows], relayed.dst[rows]).tolist())
    return plans


class TestShortestPathsToRoot:
    """The rows of path_plans, per frame, against the oracle's rows."""

    @pytest.mark.parametrize("kind", ["continuous", "integer", "zero"])
    def test_tight_tree_ensemble(self, kind):
        # Two frames per instance: continuous weights, small integers (ties
        # everywhere) or integers from 0 (zero-weight rows, as at rho = 0).
        rng = np.random.default_rng({"continuous": 60, "integer": 61, "zero": 62}[kind])
        for _ in range(400):
            g, terminals, root = random_dst_instance(rng, max_nodes=10, max_terminals=6)
            shape = (2, g.num_edges)
            if kind == "continuous":
                w = rng.uniform(0.01, 10.0, size=shape)
            else:
                low = 1 if kind == "integer" else 0
                w = rng.integers(low, 4, size=shape).astype(float)
            g = SnapshotGraph.from_arrays(g.num_nodes, g.src, g.dst, w)
            plans = planned_rows(g, terminals, root)
            assert len(plans) == 2
            for u, rows in enumerate(plans):
                assert rows == paths_to_root(g, u, terminals, root)
                assert_tight_tree(g, u, terminals, root, rows)

    @pytest.mark.parametrize("shell, rho", [("delta", 1.0), ("star", 0.1)])
    def test_tight_tree_on_snapshots(self, shell, rho, delta_spec, star_spec):
        cfg = make_scenario(delta_spec if shell == "delta" else star_spec,
                            rho=rho, clusters=41, seed=42)
        tx_power = sim.scenario_tx_power(cfg)
        for t in (0, 5):
            t_abs = t * cfg.times.slot_len_s
            g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs,
                                        tx_power)
            if rho < 1.0:
                g = topology.robust_weights(g, rho, cfg.params)
            _, terminals = sim.terminals_for_round(cfg, t_abs)
            root = select_root(g, terminals)
            uplink = int(g.edge_rows(root, g.geo_node))
            plans = path_plans(g, terminals, root)
            for u in (0, 12, 24):
                rows = [r for r in plans[u] if r != uplink]
                assert_tight_tree(g, u, terminals, root, rows)

    def test_equal_cost_tie_takes_fewest_hops(self):
        # Both routes from 0 to the root 1 cost 3. The search reaches 0
        # through 2 first (2 and 3 tie at distance 2, and 2 pops first), but
        # 3 is one hop from the root and 2 is two, so 0 takes 0 -> 3.
        g = graph_of(5, [(0, 2, 1.0), (0, 3, 1.0), (2, 4, 1.0), (3, 1, 2.0),
                         (4, 1, 1.0)])
        assert shortest_path_csr(*g.frame_reverse_csr(0), 1)[1][0] == 2
        assert paths_to_root(g, 0, [0, 1], 1) == [1, 3]   # 0-3-1
        assert planned_rows(g, [0, 1], 1) == [[1, 3]]

    def test_equal_hops_tie_goes_to_lowest_head(self):
        # Both routes from 0 cost 3 over two hops. The search reaches 0
        # through 3 first; the rule takes the lower head id, 2.
        g = graph_of(4, [(0, 2, 1.0), (0, 3, 2.0), (2, 1, 2.0), (3, 1, 1.0)])
        assert shortest_path_csr(*g.frame_reverse_csr(0), 1)[1][0] == 3
        assert paths_to_root(g, 0, [0, 1], 1) == [0, 2]   # 0-2-1
        assert planned_rows(g, [0, 1], 1) == [[0, 2]]

    def test_zero_weight_rows_pointing_at_each_other_stay_acyclic(self):
        # 1 -> 2 and 2 -> 1 weigh 0, so node 1 is tied between 2 and the
        # root 3. The lowest head id alone would close the cycle 1-2-1; the
        # fewest hops send 1 to the root.
        g = graph_of(4, [(1, 2, 0.0), (2, 1, 0.0), (1, 3, 1.0)])
        rows = paths_to_root(g, 0, [1, 2, 3], 3)
        assert rows == [1, 2]   # 2-1-3
        assert planned_rows(g, [1, 2, 3], 3) == [rows]
        validate_tree(d_merge(g, 0, [1, 2, 3], 3, rows), [1, 2, 3])

    def test_rounding_tie_follows_the_root_sums(self):
        # Both routes from 0 cost 0.9 in exact arithmetic. Summed from the
        # root, 0-2-3-1 rounds to 0.8999999999999999 and 0-4-1 to 0.9, so
        # node 0 has one tight row and no tie is broken.
        g = graph_of(5, [(0, 2, 0.2), (2, 3, 0.4), (3, 1, 0.3),
                         (0, 4, 0.1), (4, 1, 0.8)])
        assert paths_to_root(g, 0, [0, 1], 1) == [0, 2, 3]
        assert planned_rows(g, [0, 1], 1) == [[0, 2, 3]]

    def test_tied_node_takes_one_row_for_every_terminal(self):
        # Node 1 is tied: 1-0-3 and 1-3 both sum to 0.5 from the root 3.
        # Terminals 2 and 4 both pass 1 and share its one row, 1-3 (fewest
        # hops), so the union is a tree.
        g = graph_of(5, [(0, 3, 0.2), (1, 0, 0.3), (1, 3, 0.5), (2, 1, 0.4),
                         (4, 2, 0.7)])
        rows = paths_to_root(g, 0, [0, 2, 3, 4], 3)
        assert rows == [0, 2, 3, 4]
        assert planned_rows(g, [0, 2, 3, 4], 3) == [rows]
        validate_tree(d_merge(g, 0, [0, 2, 3, 4], 3, rows), [0, 2, 3, 4])

    def test_unreachable_terminals_listed(self):
        # The oracle lists the stranded terminals; the plans stop before
        # frame 0.
        g = graph_of(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(RoutingInfeasibleError) as exc:
            paths_to_root(g, 0, [0, 1, 2, 3], 1)
        assert exc.value.stranded == [2, 3]
        assert planned_rows(g, [0, 1, 2, 3], 1) == []


def assert_warm_equals_cold(g, root, monkeypatch):
    """Search every frame of g toward root, each frame starting from the
    warm rows of the frame before, and compare each with a cold search:
    distances bit for bit, and next hops at every node with a single tight
    out-edge. Returns the number of frames searched warm."""
    searched = []
    real = routing.shortest_path_csr

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        searched.append((kwargs.get("start") is not None, result))
        return result

    monkeypatch.setattr(routing, "shortest_path_csr", recorded)
    warm, warm_frames = None, 0
    for u in range(g.frame_count):
        searched.clear()
        got, warm = shortest_paths_to_root(g, u, root, warm)
        assert got.tobytes() == shortest_paths_to_root(g, u, root)[0].tobytes(), u
        (was_warm, (dist, pred)), (_, (cold_dist, cold_pred)) = searched
        warm_frames += was_warm
        assert dist.tobytes() == cold_dist.tobytes(), u
        assert dist.dtype == np.float64 and pred.dtype == np.int32
        assert (pred[~np.isfinite(dist)] == -1).all()
        tight = g.weights_j[u] + dist[g.dst] == dist[g.src]
        single = np.bincount(g.src[tight], minlength=g.num_nodes) == 1
        assert np.array_equal(pred[single], cold_pred[single]), u
    monkeypatch.undo()
    return warm_frames


class TestWarmStart:
    @pytest.mark.parametrize("scenario, rho", [
        ("walker_delta_80.cfg", 1.0), ("walker_star_80.cfg", 1.0),
        ("walker_star_80.cfg", 0.1), ("walker_star_800.cfg", 1.0)])
    def test_real_slots_match_cold_search(self, scenario, rho, monkeypatch):
        cfg = config.build_scenario(config.read_config(str(SCENARIOS / scenario)))
        tx_power = sim.scenario_tx_power(cfg)
        slots = (0,) if cfg.spec.total_sats > 100 else (0, 7)
        for t in slots:
            t_abs = t * cfg.times.slot_len_s
            g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs, tx_power)
            if rho < 1.0:
                g = topology.robust_weights(g, rho, cfg.params)
            _, terminals = sim.terminals_for_round(cfg, t_abs)
            root = select_root(g, terminals)
            warm = assert_warm_equals_cold(g, root, monkeypatch)
            assert warm == g.frame_count - 1

    @pytest.mark.parametrize("kind", ["zero", "integer", "inf"])
    def test_synthetic_frames_match_cold_search(self, kind, monkeypatch):
        # Weights that change from frame to frame: zero-weight rows, small
        # integers (ties everywhere), or rows at +inf in only some frames.
        rng = np.random.default_rng({"zero": 71, "integer": 72, "inf": 73}[kind])
        for _ in range(150):
            n, edges = random_digraph(rng, max_nodes=10, p=0.45, min_nodes=3)
            if not edges:
                continue
            frames = 4
            w = rng.uniform(0.01, 10.0, size=(frames, len(edges)))
            if kind == "zero":
                w[rng.random(w.shape) < 0.3] = 0.0
            elif kind == "integer":
                w = rng.integers(0, 4, size=w.shape).astype(float)
            else:
                w[rng.random(w.shape) < 0.25] = np.inf
            src, dst, _ = zip(*edges)
            g = SnapshotGraph.from_arrays(n, src, dst, w)
            root = int(rng.integers(n))
            assert_warm_equals_cold(g, root, monkeypatch)

    def test_search_after_a_stranded_frame_matches_cold_search(self, monkeypatch):
        # Frame 1 cuts node 0 off the root, so its tree leaves node 0 out;
        # frame 2 starts from that tree, and its seeds reach node 0 again.
        # The plans stop before frame 1.
        w = np.array([[1.0, 1.0, 5.0], [np.inf, 1.0, np.inf], [2.0, 1.0, 1.0]])
        g = SnapshotGraph.from_arrays(3, [0, 1, 0], [1, 2, 2], w)
        _, warm = shortest_paths_to_root(g, 0, 2)
        assert warm.tolist() == [2, 0]   # node 1's tight row, then node 0's
        dist, warm = shortest_paths_to_root(g, 1, 2, warm)
        assert dist[0] == math.inf and warm.tolist() == [2]
        assert assert_warm_equals_cold(g, 2, monkeypatch) == 2
        assert planned_rows(g, [0, 2], 2) == [[0, 2]]

    def test_node_listed_before_its_head_matches_cold_search(self, monkeypatch):
        # Rows (1, 0), (1, 2), (2, 0), (3, 1). Over the zero-weight row
        # (1, 2), node 1 is as far from the root as its head 2 and has the
        # lower id, so the stored tree lists it first: re-summed in that
        # order it keeps +inf, and only the seed pass reaches it and node 3.
        w = np.array([[5.0, 0.0, 1.0, 2.0], [5.0, 0.0, 1.5, 2.5]])
        g = SnapshotGraph.from_arrays(4, [1, 1, 2, 3], [0, 2, 0, 1], w)
        _, warm = shortest_paths_to_root(g, 0, 0)
        assert warm.tolist() == [1, 2, 3]
        assert assert_warm_equals_cold(g, 0, monkeypatch) == 1


def shipped_round0(scenario):
    """Round 0 of a shipped scenario as the simulator routes it: the
    routing graph (outage-blended below rho = 1), the terminals and the
    uplink satellite, picked on the energy graph."""
    cfg = config.build_scenario(config.read_config(str(SCENARIOS / scenario)))
    g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, 0.0,
                                sim.scenario_tx_power(cfg))
    _, terminals = sim.terminals_for_round(cfg, 0.0)
    root = select_root(g, terminals)
    if cfg.outages_enabled:
        g = topology.robust_weights(g, cfg.rho, cfg.params)
    return g, terminals, root


def assert_plans_match_cold_search(g, terminals, root, plans=None):
    """Each of path_plans' plans (or of the plans given) is the oracle's
    rows of its frame with root's uplink row among them, sorted, and the
    plans stop at the first frame where the oracle raises. Returns the
    number of plans."""
    if plans is None:
        plans = path_plans(g, terminals, root)
    uplink = int(g.edge_rows(root, g.geo_node))
    for u in range(g.frame_count):
        try:
            rows = paths_to_root(g, u, terminals, root)
        except RoutingInfeasibleError:
            assert len(plans) == u
            break
        plan = plans[u]
        assert plan == sorted(plan) and plan.count(uplink) == 1, u
        assert [r for r in plan if r != uplink] == rows, u
    else:
        assert len(plans) == g.frame_count
    return len(plans)


def solve_recorded(g, terminals, root, monkeypatch):
    """(plans, method, tie_frames): path_plans(g, terminals, root), how it
    solved the frames after frame 0 ("sweeps" or "heap"), and how many
    frames broke ties in batch (`routing._fewest_hops`)."""
    calls = {"sweeps": 0, "tie_frames": 0}
    real_sweeps, real_ties = routing._sweep_distances, routing._fewest_hops

    def sweeps(*args):
        calls["sweeps"] += 1
        return real_sweeps(*args)

    def ties(g, tight, root, hop):
        calls["tie_frames"] += hop.shape[1]
        return real_ties(g, tight, root, hop)

    with monkeypatch.context() as mp:
        mp.setattr(routing, "_sweep_distances", sweeps)
        mp.setattr(routing, "_fewest_hops", ties)
        plans = path_plans(g, terminals, root)
    return plans, "sweeps" if calls["sweeps"] else "heap", calls["tie_frames"]


def first_frames(g, count):
    """g cut to its first count frames."""
    return replace(g, weights_j=g.weights_j[:count], distance_km=g.distance_km[:count],
                   gamma0=g.gamma0[:count])


class TestPathPlans:
    @pytest.mark.parametrize("scenario", ["walker_delta_80.cfg", "walker_star_80.cfg"])
    def test_shipped_round_matches_cold_search(self, scenario, monkeypatch):
        # delta80 routes at rho = 1, star80 at rho = 0.1. Frame 0's tree is
        # 12 (delta80) or 13 (star80) rows deep, below the slot's 25 frames,
        # so the frames after it are swept together.
        g, terminals, root = shipped_round0(scenario)
        plans, method, _ = solve_recorded(g, terminals, root, monkeypatch)
        assert method == "sweeps"
        assert assert_plans_match_cold_search(g, terminals, root, plans) == g.frame_count

    @pytest.mark.parametrize("scenario, frames", [
        ("walker_delta_80.cfg", 5), ("walker_delta_80.cfg", 1), ("walker_star_800.cfg", 25)])
    def test_heap_search_when_frame_0_is_as_deep_as_the_slot(self, scenario, frames,
                                                              monkeypatch):
        # delta80's frame 0 tree is 12 rows deep, more than 5 frames (and a
        # single frame has none after frame 0); star800's is 46 rows deep,
        # more than its 25 frames.
        g, terminals, root = shipped_round0(scenario)
        g = first_frames(g, frames)
        plans, method, _ = solve_recorded(g, terminals, root, monkeypatch)
        assert method == "heap"
        assert assert_plans_match_cold_search(g, terminals, root, plans) == frames

    def test_relay_graphs_with_ties_match_cold_search(self, monkeypatch):
        # Small integer weights from 0 (ties and zero-weight rows), some
        # rows at +inf in some frames, and a relay every node uplinks to;
        # the same rounds by each method.
        for method in ("heap", "sweeps"):
            force_method(monkeypatch, method)
            rng = np.random.default_rng(74)
            short, tie_frames = 0, 0
            for _ in range(150):
                n, edges = random_digraph(rng, max_nodes=9, p=0.45, min_nodes=3)
                edges += [(v, n, 1.0) for v in range(n)]
                src, dst, _ = zip(*edges)
                w = rng.integers(0, 4, size=(4, len(edges))).astype(float)
                w[rng.random(w.shape) < 0.1] = np.inf
                g = SnapshotGraph.from_arrays(n + 1, src, dst, w, geo_node=n)
                terminals = sorted(set(rng.choice(n, size=3).tolist()))
                root = select_root(g, terminals)
                plans, _, ties = solve_recorded(g, terminals, root, monkeypatch)
                count = assert_plans_match_cold_search(g, terminals, root, plans)
                short += count < g.frame_count
                tie_frames += ties
            assert short, method   # some rounds stop early
            assert tie_frames, method   # some frames break ties in batch

    @pytest.mark.parametrize("k", [0, 7, 24])
    def test_search_raising_at_frame_k_keeps_the_plans_before(self, k, monkeypatch):
        # A terminal cut off from frame k on: the sweeps and the heap search
        # stop there alike.
        g, terminals, root = shipped_round0("walker_delta_80.cfg")
        full = path_plans(g, terminals, root)
        assert k < len(full)
        cut = cut_off_from(g, min(t for t in terminals if t != root), k)
        for method in ("sweeps", "heap"):
            force_method(monkeypatch, method)
            plans, ran, _ = solve_recorded(cut, terminals, root, monkeypatch)
            assert ran == method
            assert plans == full[:k]

    @pytest.mark.parametrize("frames", [1, 25])
    @pytest.mark.parametrize("method", ["sweeps", "heap"])
    def test_root_only_round_plans_the_uplink_alone(self, method, frames, monkeypatch):
        # No terminal but the root: every frame's plan is root's uplink row
        # (a one-frame slot: forced sweeps run over no frame).
        g, _, root = shipped_round0("walker_delta_80.cfg")
        g = first_frames(g, frames)
        force_method(monkeypatch, method)
        plans, ran, _ = solve_recorded(g, [root], root, monkeypatch)
        assert ran == method
        assert plans == [[int(g.edge_rows(root, g.geo_node))]] * frames

    @pytest.mark.parametrize("method", ["sweeps", "heap"])
    def test_one_frame_slot_stranded_at_frame_0_plans_nothing(self, method, monkeypatch):
        # Forced sweeps run over no frame here; the full slot is the k = 0
        # case of test_search_raising_at_frame_k_keeps_the_plans_before.
        g, terminals, root = shipped_round0("walker_delta_80.cfg")
        cut = cut_off_from(first_frames(g, 1), min(t for t in terminals if t != root), 0)
        force_method(monkeypatch, method)
        plans, ran, _ = solve_recorded(cut, terminals, root, monkeypatch)
        assert ran == method
        assert plans == []


class TestSweepPlans:
    """The frames after frame 0 solved together by array sweeps, frame by
    frame against the oracle, and the same rounds by heap searches."""

    @pytest.mark.parametrize("kind", ["uniform", "integer"])
    def test_relay_graphs_match_cold_search(self, kind, monkeypatch):
        # 8-29 frames, so that frame 0's tree (at most 11 rows deep) is
        # shallower than the slot and the depth rule picks the sweeps.
        # Weights are uniform, or integers from 0 (ties and zero-weight
        # rows); some rows weigh +inf or NaN, and some rounds cut a terminal
        # off from frame k on.
        depth = routing._tree_depth
        for method in ("sweeps", "heap"):
            force_method(monkeypatch, method)
            rng = np.random.default_rng({"uniform": 75, "integer": 76}[kind])
            solved, tie_frames, short = 0, 0, 0
            for _ in range(200):
                n, edges = random_digraph(rng, max_nodes=12, p=0.35, min_nodes=3)
                edges += [(v, n, 1.0) for v in range(n)]
                src, dst, _ = zip(*edges)
                frames = int(rng.integers(8, 30))
                shape = (frames, len(edges))
                if kind == "uniform":
                    w = rng.uniform(0.01, 10.0, size=shape)
                else:
                    w = rng.integers(0, 4, size=shape).astype(float)
                w[rng.random(shape) < 0.05] = np.inf
                w[rng.random(shape) < 0.03] = np.nan
                g = SnapshotGraph.from_arrays(n + 1, src, dst, w, geo_node=n)
                terminals = sorted(set(rng.choice(n, size=4).tolist()))
                root = select_root(g, terminals)
                if len(terminals) > 1 and rng.random() < 0.3:
                    cut = min(t for t in terminals if t != root)
                    g = cut_off_from(g, cut, int(rng.integers(1, frames)))
                plans, ran, ties = solve_recorded(g, terminals, root, monkeypatch)
                count = assert_plans_match_cold_search(g, terminals, root, plans)
                assert ran == method
                # A round that strands a terminal at frame 0, or has no
                # terminal but the root, is not counted.
                if not plans or terminals == [root]:
                    continue
                solved += 1
                tie_frames += ties
                short += count < frames
                if method == "heap":
                    continue
                assert depth(g, shortest_paths_to_root(g, 0, root)[1]) < frames
                dist = routing._sweep_distances(g, root, np.ascontiguousarray(g.weights_j.T))
                for u in range(frames):
                    cold, _ = shortest_path_csr(*g.frame_reverse_csr(u), root)
                    assert dist[:, u].tobytes() == cold.tobytes(), u
            assert solved >= 100 and short
            if kind == "integer":
                assert tie_frames, method   # some frames break ties in batch


def row_pairs(g, rows):
    return list(zip(g.src[rows].tolist(), g.dst[rows].tolist()))


def prune_leaves(edges, terminals):
    """(child, parent) edges left after dropping leaves that are not
    terminals, to a fixpoint (test-side oracle)."""
    edges = list(edges)
    while True:
        parents = {p for _, p in edges}
        kept = [(c, p) for c, p in edges if c in parents or c in terminals]
        if len(kept) == len(edges):
            return kept
        edges = kept


def one_pass(tails, w, roots):
    """{tail: k}: every tail's first row k of least weight w[k] (a NaN
    first weight stays), roots left out."""
    picks = {}
    for k, s in enumerate(tails):
        if s not in picks or w[k] < w[picks[s]]:
            picks[s] = k
    for r in roots:
        picks.pop(r, None)
    return picks


def count_contractions(monkeypatch):
    """Patch the arborescence core to record each frame it solves whose
    answer is not the one-pass picks (every non-root node's cheapest
    out-row, the first of equal weights). The core runs its levels for
    all frames in one call, so a frame is the finest step seen from
    outside."""
    frames = []
    solve = routing._msa

    def counted(tail, head, w, roots, span, n):
        out = solve(tail, head, w, roots, span, n)
        picks = one_pass(tail.tolist(), w.tolist(), roots.tolist())
        differ = set(out.tolist()) ^ set(picks.values())
        frames.extend(sorted({int(tail[k]) // n for k in differ}))
        return out

    monkeypatch.setattr(routing, "_msa", counted)
    return frames


class TestSubstituteGraph:
    """The substitute graph is the union of the terminals' shortest-path
    rows; taeer's arborescence of it keeps every row."""

    def test_single_terminal_is_the_path(self):
        g = graph_of(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)])
        rows, = planned_rows(g, [0, 3], 3)
        assert row_pairs(g, rows) == [(0, 1), (1, 3)]
        assert taeer(g, 0, [0, 3], 3, rows).edges == ((0, 1), (1, 3))

    def test_disjoint_paths_edge_count(self):
        g = graph_of(5, [(0, 2, 1.0), (2, 4, 1.0), (1, 3, 1.0), (3, 4, 1.0)])
        rows, = planned_rows(g, [0, 1, 4], 4)
        assert len(rows) == 4
        arb = taeer(g, 0, [0, 1, 4], 4, rows)
        assert arb.edge_ids == tuple(rows) and arb.total_cost == 4.0

    def test_shared_suffix_deduplicated(self):
        # Both terminals funnel through 2 -> 3; the shared edge appears once.
        g = graph_of(4, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        rows, = planned_rows(g, [0, 1, 3], 3)
        expected = [(0, 2), (1, 2), (2, 3)]  # set union oracle
        assert row_pairs(g, rows) == expected
        arb = taeer(g, 0, [0, 1, 3], 3, rows)
        assert list(arb.edges) == expected and arb.total_cost == 3.0

    def test_empty_path_set_root_only(self):
        g = graph_of(3, [(0, 1, 1.0)])
        rows, = planned_rows(g, [2], 2)
        assert rows == []
        arb = taeer(g, 0, [2], 2, rows)
        assert arb.edges == () and arb.edge_ids == () and arb.total_cost == 0.0


class TestChuLiuEdmonds:
    def test_simple_instance(self):
        g = graph_of(3, [(1, 0, 1.0), (2, 0, 5.0), (2, 1, 2.0)])
        arb = chu_liu_edmonds(g, 0)
        assert arb.edges == ((1, 0), (2, 1))
        assert arb.total_cost == 3.0
        validate_tree(arb)

    def test_cycle_contraction_instance(self):
        g = graph_of(3, [(1, 0, 10.0), (2, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)])
        arb = chu_liu_edmonds(g, 0)
        assert arb.edges == ((1, 0), (2, 1))
        assert arb.total_cost == 11.0

    def test_equal_weight_ties(self):
        # Ties go to the lower (head, tail) pair: node 2 takes its lower
        # head in the one pass, and the contracted cycle {1, 2} leaves
        # through its lower tail.
        g = graph_of(3, [(1, 0, 1.0), (2, 0, 1.0), (2, 1, 1.0)])
        assert chu_liu_edmonds(g, 0).edges == ((1, 0), (2, 0))
        g = graph_of(4, [(1, 2, 1.0), (2, 1, 1.0), (1, 0, 5.0), (2, 0, 5.0), (3, 1, 1.0)])
        assert chu_liu_edmonds(g, 0).edges == ((1, 0), (2, 1), (3, 1))

    def test_single_node_root(self):
        g = graph_of(1, [])
        arb = chu_liu_edmonds(g, 0)
        assert arb.edges == () and arb.total_cost == 0.0

    def test_stranded_nodes_reported(self):
        g = graph_of(4, [(1, 0, 1.0), (3, 2, 1.0)])
        with pytest.raises(RoutingInfeasibleError) as exc:
            chu_liu_edmonds(g, 0, nodes=range(4))
        assert exc.value.stranded == [2, 3]

    def test_stranded_cycle_reported(self):
        # Every node has an out-row, but 2 and 3 only reach each other.
        g = graph_of(4, [(1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        with pytest.raises(RoutingInfeasibleError) as exc:
            chu_liu_edmonds(g, 0, nodes=range(4))
        assert exc.value.stranded == [2, 3]

    def test_stranded_against_reachability(self):
        # A stranded node stops the one-pass walk either at a node without
        # an out-row or at a cycle of cheapest rows; both raise with every
        # node that cannot reach the root.
        rng = np.random.default_rng(78)
        kinds = {"no out-row": 0, "cycle": 0}
        for _ in range(1000):
            n, edges = random_digraph(rng, max_nodes=8, p=0.35)
            root = int(rng.integers(n))
            stranded = sorted(set(range(n)) - reaches_root(n, edges, root))
            if not stranded:
                continue
            with pytest.raises(RoutingInfeasibleError) as exc:
                chu_liu_edmonds(graph_of(n, edges), root, nodes=range(n))
            assert exc.value.stranded == stranded
            tails = {u for u, _, _ in edges}
            kinds["cycle" if set(range(n)) - {root} <= tails else "no out-row"] += 1
        assert kinds["no out-row"] > 200 and kinds["cycle"] > 30

    def test_exact_against_enumeration(self, monkeypatch):
        # Both branches of the solver: the cheapest out-rows already form
        # the arborescence (one pass), or they cycle and contraction runs.
        # Small integer weights make equal-weight picks common, at the
        # contracted levels too.
        contractions = count_contractions(monkeypatch)
        for integer_weights in (False, True):
            rng = np.random.default_rng(77)
            checked = one_pass = 0
            for _ in range(150):
                n, edges = random_digraph(rng, max_nodes=8, p=0.45)
                if not edges:
                    continue
                if integer_weights:
                    edges = [(u, v, float(rng.integers(1, 5))) for u, v, _ in edges]
                root = int(rng.integers(n))
                oracle = enumerate_min_arborescence(edges, root, range(n))
                g = graph_of(n, edges)
                before = len(contractions)
                try:
                    arb = chu_liu_edmonds(g, root, nodes=range(n))
                except RoutingInfeasibleError:
                    assert oracle is None
                    continue
                validate_tree(arb)
                assert oracle is not None
                assert arb.total_cost == pytest.approx(oracle, rel=1e-12, abs=1e-12)
                checked += 1
                one_pass += len(contractions) == before
            assert checked > 50
            assert one_pass > 20 and checked - one_pass > 20

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        n, edges = random_digraph(rng, max_nodes=10, p=0.5)
        g = graph_of(n, edges)
        root = 0
        reach = reaches_root(n, edges, root)
        arbs = [chu_liu_edmonds(g, root, nodes=reach) for _ in range(3)]
        assert arbs[0].edges == arbs[1].edges == arbs[2].edges


def random_frames(rng):
    """A random multi-frame digraph for the arborescence core against the
    per-frame reference, as (graph, root). Half are sparse graphs of 2-9
    nodes, where nodes are often stranded; half are dense graphs of 5-30
    nodes with integer or uniform weights and some +inf rows, where the
    picks often hold several cycles at once."""
    frames = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        n, edges = random_digraph(rng, max_nodes=9, p=float(rng.uniform(0.15, 0.5)))
    else:
        n, edges = random_digraph(rng, max_nodes=30, p=float(rng.uniform(0.2, 0.6)),
                                  min_nodes=5)
    if rng.random() < 0.5:
        w = rng.integers(1, 5, size=(frames, len(edges))).astype(float)
    else:
        w = rng.uniform(0.01, 10.0, size=(frames, len(edges)))
    w[rng.random(w.shape) < 0.1] = np.inf
    src, dst = ([e[i] for e in edges] for i in (0, 1))
    return SnapshotGraph.from_arrays(n, src, dst, w), int(rng.integers(n))


class TestMsaCore:
    def test_matches_reference_on_random_frames(self):
        # Every frame of a graph, each spanning every node with every row,
        # is solved in one call to the core and gives the reference's
        # {node: row} map, or the call raises the stranded list of the
        # first frame whose reference raises.
        rng = np.random.default_rng(2028)
        solved = stranded = contracted = 0
        while solved + stranded < 3000:
            g, root = random_frames(rng)
            n, e, count = g.num_nodes, g.num_edges, g.frame_count
            src, dst = g.src.tolist(), g.dst.tolist()
            want = []
            for u in range(count):
                try:
                    want.append(_msa_rows(src, dst, g.weights_j[u].tolist(), root,
                                          set(range(n))))
                except RoutingInfeasibleError as exc:
                    want.append(exc.stranded)
            plan = np.repeat(np.arange(count), e)
            tail = plan * n + np.tile(g.src, count)
            head = plan * n + np.tile(g.dst, count)
            roots = np.arange(count) * n + root
            args = (tail, head, g.weights_j.ravel(), roots, np.ones(count * n, dtype=bool), n)
            failed = [x for x in want if isinstance(x, list)]
            if failed:
                with pytest.raises(RoutingInfeasibleError) as exc:
                    routing._msa(*args)
                assert exc.value.stranded == failed[0]
                stranded += 1
                continue
            picked = routing._msa(*args)
            got = [{} for _ in range(count)]
            for k in picked.tolist():
                got[k // e][src[k % e]] = k % e
            assert got == want
            solved += count
            contracted += sum(x != one_pass(src, w, [root])
                              for x, w in zip(want, g.weights_j.tolist()))
        assert stranded > 500 and solved > 1500 and contracted > 500


def random_dst_instance(rng, max_nodes=9, max_terminals=4, integer_weights=False):
    """Digraph + (terminals, root) with every terminal able to reach root.

    integer_weights=True quantises weights to small integers, making
    equal-cost path ties common (they are measure-zero under continuous
    weights).
    """
    while True:
        n, edges = random_digraph(rng, max_nodes=max_nodes, p=0.4, min_nodes=3)
        if not edges:
            continue
        if integer_weights:
            edges = [(u, v, float(rng.integers(1, 5))) for u, v, _ in edges]
        root = int(rng.integers(n))
        reach = sorted(reaches_root(n, edges, root))
        if len(reach) < 2:
            continue
        k = int(rng.integers(1, min(max_terminals, len(reach)) + 1))
        picks = rng.choice(len(reach), size=k, replace=False)
        terminals = sorted({root} | {reach[i] for i in picks})
        return graph_of(n, edges), terminals, root


class TestTaeer:
    def test_root_only(self):
        g = graph_of(3, [(0, 1, 1.0)])
        arb = route(taeer, g, 0, [1], 1)
        assert arb.edges == () and arb.total_cost == 0.0

    def test_single_terminal_is_shortest_path(self):
        g = graph_of(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 3, 5.0)])
        arb = route(taeer, g, 0, [0, 3], 3)
        assert arb.edges == ((0, 1), (1, 3))
        assert arb.total_cost == 2.0

    def test_root_must_be_terminal(self):
        g = graph_of(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            route(taeer, g, 0, [0], 1)

    def test_unreachable_terminal_listed(self):
        g = graph_of(3, [(0, 1, 1.0)])
        with pytest.raises(RoutingInfeasibleError) as exc:
            route(taeer, g, 0, [1, 2], 1)
        assert exc.value.stranded == [2]

    def test_invariants_and_sandwich_small_ensemble(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            g, terminals, root = random_dst_instance(rng)
            arb = route(taeer, g, 0, terminals, root)
            validate_tree(arb, terminals)
            merged = route(d_merge, g, 0, terminals, root)
            opt = exact_dst_oracle(g, terminals, root)
            assert opt <= arb.total_cost + 1e-9
            assert arb.total_cost <= merged.total_cost + 1e-9

    def test_sandwich_holds_under_weight_ties(self):
        rng = np.random.default_rng(98)
        for _ in range(200):
            g, terminals, root = random_dst_instance(rng, integer_weights=True)
            arb = route(taeer, g, 0, terminals, root)
            validate_tree(arb, terminals)
            merged = route(d_merge, g, 0, terminals, root)
            validate_tree(merged, terminals)
            opt = exact_dst_oracle(g, terminals, root)
            assert opt <= arb.total_cost + 1e-9
            assert arb.total_cost <= merged.total_cost + 1e-9

    def test_coincides_with_merging_when_paths_unique(self):
        # Every terminal's path takes one fixed row out of each node, ties
        # included, so the union of the paths is already an arborescence:
        # the exact solver cannot improve on it and both algorithms return
        # the same tree (bit-identical cost), with tied integer weights too.
        # ROADMAP item 4, which builds taeer's substitute graph from a
        # terminal closure instead, changes this.
        rng = np.random.default_rng(97)
        for integer_weights in (False, True):
            for _ in range(100):
                g, terminals, root = random_dst_instance(
                    rng, integer_weights=integer_weights)
                arb = route(taeer, g, 0, terminals, root)
                merged = route(d_merge, g, 0, terminals, root)
                assert arb.edges == merged.edges
                assert arb.edge_ids == merged.edge_ids
                assert arb.total_cost == merged.total_cost

    @pytest.mark.parametrize("integer_weights", [False, True])
    def test_equals_msa_then_pruning_on_any_rows(self, monkeypatch, integer_weights):
        # On every row of the graph, not a tree of path rows, taeer is the
        # exact arborescence of those rows with non-terminal leaves pruned:
        # the same rows in the same order, so a bit-identical cost. Integer
        # weights make equal-weight picks common.
        contractions = count_contractions(monkeypatch)
        rng = np.random.default_rng(96)
        solved = one_pass = pruned = 0
        for _ in range(500):
            g, terminals, root = random_dst_instance(
                rng, integer_weights=integer_weights)
            rows = list(range(g.num_edges))
            try:
                msa = chu_liu_edmonds(g, root)
            except RoutingInfeasibleError as exc:
                with pytest.raises(RoutingInfeasibleError) as got:
                    taeer(g, 0, terminals, root, rows)
                assert got.value.stranded == exc.stranded
                continue
            before = len(contractions)
            arb = taeer(g, 0, terminals, root, rows)
            one_pass += len(contractions) == before
            kept = prune_leaves(msa.edges, terminals)
            ids = [e for e, pair in zip(msa.edge_ids, msa.edges) if pair in kept]
            assert arb.edges == tuple(kept)
            assert arb.edge_ids == tuple(ids)
            assert arb.total_cost == ordered_sum(g.weights_j[0][ids].tolist())
            validate_tree(arb, terminals)
            solved += 1
            pruned += len(kept) < len(msa.edges)
        assert solved > 300 and pruned > 200
        assert one_pass > 100 and solved - one_pass > 100

    def test_deterministic(self):
        rng = np.random.default_rng(123)
        g, terminals, root = random_dst_instance(rng)
        a = route(taeer, g, 0, terminals, root)
        b = route(taeer, g, 0, terminals, root)
        assert a.edges == b.edges and a.total_cost == b.total_cost


def random_round(rng):
    """A random multi-frame graph with one plan per frame, for taeer_round
    against the per-frame reference: (g, terminals, root, plans). Weights
    are uniform, small integers (ties everywhere), partly +inf or, rarely,
    partly NaN, and each plan is a random sorted subset of the rows, so
    its picks may form a tree, hold a cycle or strand a node."""
    n, edges = random_digraph(rng, max_nodes=9, p=float(rng.uniform(0.2, 0.6)))
    frames = int(rng.integers(1, 5))
    kind = rng.choice(["uniform", "integer", "inf", "nan"], p=[0.35, 0.35, 0.25, 0.05])
    if kind == "integer":
        w = rng.integers(1, 5, size=(frames, len(edges))).astype(float)
    else:
        w = rng.uniform(0.01, 10.0, size=(frames, len(edges)))
        if kind != "uniform":
            w[rng.random(w.shape) < 0.2] = np.inf if kind == "inf" else np.nan
    src, dst = ([e[i] for e in edges] for i in (0, 1))
    g = SnapshotGraph.from_arrays(n, src, dst, w)
    root = int(rng.integers(n))
    terminals = sorted({root} | set(rng.choice(n, size=int(rng.integers(0, n + 1))).tolist()))
    keep = float(rng.uniform(0.4, 1.0))
    plans = [np.flatnonzero(rng.random(g.num_edges) < keep).tolist() for _ in range(frames)]
    return g, terminals, root, plans


def per_frame(g, terminals, root, plans):
    """The reference's tree, or its stranded list, at each frame."""
    out = []
    for u, rows in enumerate(plans):
        try:
            out.append(taeer_per_frame(g, u, terminals, root, rows))
        except RoutingInfeasibleError as exc:
            out.append(exc.stranded)
    return out


class TestTaeerRound:
    def test_matches_per_frame_reference_on_random_rounds(self, monkeypatch):
        # Each frame gives the reference's rows, or the call raises the
        # stranded list of the first frame whose reference raises; each
        # frame alone gives its own.
        contractions = count_contractions(monkeypatch)
        rng = np.random.default_rng(2024)
        trees = stranded = ties = 0
        for _ in range(3000):
            g, terminals, root, plans = random_round(rng)
            want = per_frame(g, terminals, root, plans)
            failed = [x for x in want if isinstance(x, list)]
            if not failed:
                assert routing.taeer_round(g, terminals, root, plans) == want
                trees += len(want)
                ties += any(len(set(w)) < len(w) for w in g.weights_j.tolist())
                continue
            with pytest.raises(RoutingInfeasibleError) as exc:
                routing.taeer_round(g, terminals, root, plans)
            assert exc.value.stranded == failed[0]
            for u, (rows, x) in enumerate(zip(plans, want)):
                if isinstance(x, list):
                    with pytest.raises(RoutingInfeasibleError) as exc:
                        taeer(g, u, terminals, root, rows)
                    assert exc.value.stranded == x
                    stranded += 1
                else:
                    assert taeer(g, u, terminals, root, rows) == x
        assert trees > 2000 and stranded > 1000 and ties > 300
        assert len(contractions) > 300

    @pytest.mark.parametrize("scenario", ["walker_delta_80.cfg", "walker_star_80.cfg",
                                          "walker_star_800.cfg"])
    def test_matches_per_frame_reference_on_shipped_scenarios(self, scenario, monkeypatch):
        # Every frame of every round the shipped scenario routes, at its rho.
        # Its plans are trees, so no frame contracts.
        cfg = config.build_scenario(config.read_config(str(SCENARIOS / scenario)))
        contractions = count_contractions(monkeypatch)
        real = routing.taeer_round
        solved = []

        def checked(g, terminals, root, plans):
            trees = real(g, terminals, root, plans)
            assert trees == per_frame(g, terminals, root, plans)
            solved.append(len(trees))
            return trees

        monkeypatch.setattr(routing, "taeer_round", checked)
        sim.run_scenario(replace(cfg, algorithms=("taeer",)))
        assert solved == [cfg.times.frames_per_slot] * cfg.rounds
        assert contractions == []

    def test_no_plans_no_trees(self):
        g = graph_of(3, [(0, 1, 1.0)])
        assert routing.taeer_round(g, [0, 1], 1, []) == []


class TestDMerge:
    def test_single_terminal_matches_taeer(self):
        g = graph_of(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 3, 5.0)])
        assert route(d_merge, g, 0, [0, 3], 3).total_cost == \
            route(taeer, g, 0, [0, 3], 3).total_cost

    def test_disjoint_paths_costs_add(self):
        g = graph_of(5, [(0, 2, 1.5), (2, 4, 1.0), (1, 3, 2.0), (3, 4, 1.0)])
        m = route(d_merge, g, 0, [0, 1, 4], 4)
        assert m.total_cost == pytest.approx(5.5)

    def test_root_must_be_terminal(self):
        g = graph_of(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            route(d_merge, g, 0, [0], 1)

    def test_dominance_over_taeer_ensemble(self):
        # The arborescence keeps at most one outgoing edge per substitute
        # node, so it can never cost more than the merged path union.
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            g, terminals, root = random_dst_instance(rng, max_nodes=10)
            merged = route(d_merge, g, 0, terminals, root)
            validate_tree(merged, terminals)
            assert route(taeer, g, 0, terminals, root).total_cost <= \
                merged.total_cost + 1e-9


class TestOrbitGreedy:
    @pytest.fixture
    def snapshot(self, delta_spec, params):
        import numpy as np

        from satagg import topology
        times = topology.TimeStructure.for_constellation(delta_spec)
        txp = topology.tx_power_draw(delta_spec, np.random.default_rng(0), *TX_POWER_W)
        return topology.build_snapshot(delta_spec, params, times, 0.0, txp)

    @staticmethod
    def greedy(g, u, terminals, rng):
        return orbit_greedy(g, u, orbit_plan(g, terminals), rng)

    @staticmethod
    def uplink_nodes(g, res):
        return [c for c, p in res.edges if p == g.geo_node]

    def test_adjacent_terminals_one_orbit(self, snapshot):
        res = self.greedy(snapshot, 0, [3, 4, 5], np.random.default_rng(1))
        assert res.root == snapshot.geo_node
        assert len(self.uplink_nodes(snapshot, res)) == 1
        assert len(res.edges) == 3  # the arc spans the terminals, plus the uplink
        validate_tree(res, [3, 4, 5])

    def test_three_orbits_three_uplinks(self, snapshot):
        terminals = [2, 25, 47]  # orbits 0, 1, 2
        res = self.greedy(snapshot, 0, terminals, np.random.default_rng(1))
        ups = self.uplink_nodes(snapshot, res)
        assert snapshot.node_orbit[ups].tolist() == [0, 1, 2]

    def test_wraparound_arc(self, snapshot):
        # Slots 18, 19, 0, 1 of orbit 0: the minimal arc crosses the seam.
        res = self.greedy(snapshot, 0, [18, 19, 0, 1], np.random.default_rng(3))
        assert len(res.edges) == 4   # three ring hops and the uplink
        assert {res.root}.union(*res.edges) == {18, 19, 0, 1, snapshot.geo_node}

    def test_cost_includes_uplinks(self, snapshot):
        res = self.greedy(snapshot, 0, [2, 25], np.random.default_rng(1))
        assert len(self.uplink_nodes(snapshot, res)) == 2
        assert res.total_cost == ordered_sum(
            snapshot.weights_j[0].tolist()[e] for e in res.edge_ids)

    def test_root_choice_seeded(self, snapshot):
        a = self.greedy(snapshot, 0, [3, 9], np.random.default_rng(8))
        b = self.greedy(snapshot, 0, [3, 9], np.random.default_rng(8))
        assert a == b

    def test_plan_rows_are_the_arcs_links(self, snapshot):
        # Terminals in orbits 0 (across the seam), 1 (one node) and 3.
        plan = orbit_plan(snapshot, [19, 1, 0, 25, 70, 66])
        assert [arc for arc, *_ in plan] == [
            (19, 0, 1), (25,), (66, 67, 68, 69, 70)]
        src, dst = snapshot.src.tolist(), snapshot.dst.tolist()
        for arc, forward, backward, uplink in plan:
            pairs = list(zip(arc, arc[1:]))
            assert [(src[e], dst[e]) for e in forward] == pairs
            assert [(dst[e], src[e]) for e in backward] == pairs
            assert [(src[e], dst[e]) for e in uplink] == [
                (v, snapshot.geo_node) for v in arc]

    def test_one_plan_serves_every_frame(self, snapshot):
        # A round's plan is built once; each frame draws only the arc roots,
        # one per orbit in orbit order, and charges that frame's weights.
        terminals = [2, 5, 25, 47, 50]
        plan = orbit_plan(snapshot, terminals)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        for u in range(snapshot.frame_count):
            res = orbit_greedy(snapshot, u, plan, rng)
            validate_tree(res, terminals)
            drawn = [uplink[int(ref.integers(len(arc)))] for arc, *_, uplink in plan]
            assert [e for (_, p), e in zip(res.edges, res.edge_ids)
                    if p == snapshot.geo_node] == drawn
            assert list(res.edge_ids) == snapshot.edge_rows(
                [c for c, _ in res.edges], [p for _, p in res.edges]).tolist()
            assert list(res.edge_ids) == sorted(res.edge_ids)
            w = snapshot.weights_j[u].tolist()
            assert res.total_cost == ordered_sum(w[e] for e in res.edge_ids)

    def test_requires_constellation_graph(self):
        g = graph_of(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            orbit_plan(g, [0])


@pytest.fixture(scope="module")
def delta80_frame():
    """Frame 0 of round 0 of the shipped delta80 scenario as the simulator
    routes it: the graph, the terminals and the path routers' rows (the
    shortest paths to the uplink satellite, plus its uplink row)."""
    g, terminals, root = shipped_round0("walker_delta_80.cfg")
    return g, terminals, path_plans(g, terminals, root)[0]


@pytest.mark.parametrize("router", [taeer, d_merge, orbit_greedy],
                         ids=lambda f: f.__name__)
def test_tree_derives_pairs_and_cost_from_its_rows(router, delta80_frame):
    g, terminals, rows = delta80_frame

    def solve():
        if router is orbit_greedy:
            return orbit_greedy(g, 0, orbit_plan(g, terminals), np.random.default_rng(5))
        return router(g, 0, terminals, g.geo_node, rows)

    tree = solve()
    validate_tree(tree, terminals)
    ids = list(tree.edge_ids)
    assert tree.edges == tuple(zip(g.src[ids].tolist(), g.dst[ids].tolist()))
    assert tree.total_cost == ordered_sum(g.weights_j[0][ids].tolist())
    assert solve() == tree
    assert routing.Arborescence(g, 1, tree.root, tree.edge_ids) != tree


class TestExactDstOracle:
    def test_terminals_cover_all_nodes_equals_msa(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n, edges = random_digraph(rng, max_nodes=7, p=0.5)
            if not edges:
                continue
            root = 0
            reach = reaches_root(n, edges, root)
            if len(reach) < 2:
                continue
            g = graph_of(n, edges)
            try:
                arb = chu_liu_edmonds(g, root, nodes=reach)
            except RoutingInfeasibleError:
                continue
            assert exact_dst_oracle(g, sorted(reach), root) == pytest.approx(
                arb.total_cost, rel=1e-12)

    def test_root_only_zero(self):
        g = graph_of(3, [(0, 1, 1.0)])
        assert exact_dst_oracle(g, [1], 1) == 0.0

    def test_path_graph_end_terminals(self):
        g = graph_of(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        assert exact_dst_oracle(g, [0, 3], 3) == pytest.approx(6.0)

    def test_size_limit(self):
        edges = [(i, i + 1, 1.0) for i in range(14)]
        g = graph_of(15, edges)
        with pytest.raises(OracleSizeLimitError):
            exact_dst_oracle(g, [0, 14], 14)


class TestSelectRoot:
    def test_min_uplink(self, delta_spec, params):
        import numpy as np

        from satagg import topology
        times = topology.TimeStructure.for_constellation(delta_spec)
        txp = topology.tx_power_draw(delta_spec, np.random.default_rng(0), *TX_POWER_W)
        g = topology.build_snapshot(delta_spec, params, times, 0.0, txp)
        terms = [5, 23, 41, 66]
        root = select_root(g, terms)
        ups = dict(zip(terms, g.weights_j[0][g.edge_rows(terms, g.geo_node)]))
        assert ups[root] == min(ups.values())


def test_complexity_smoke():
    """Runtime grows clearly sub-quadratically in |V| at fixed terminal count
    (ring + random chords, constellation-like density)."""
    rng = np.random.default_rng(31)

    def build(n):
        seen = set()
        edges = []

        def add(u, v):
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v, float(rng.uniform(0.5, 1.5))))

        for i in range(n):
            add(i, (i + 1) % n)
            add(i, (i - 1) % n)
        for u, v in rng.integers(0, n, size=(2 * n, 2)):
            add(int(u), int(v))
        return graph_of(n, edges)

    sizes = (250, 2000)
    timings = []
    for n in sizes:
        g = build(n)
        terminals = sorted(int(x) for x in rng.choice(n, size=10, replace=False))
        root = terminals[0]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            route(taeer, g, 0, terminals, root)
            best = min(best, time.perf_counter() - t0)
        timings.append(best)
    ratio = timings[1] / timings[0]
    size_ratio = sizes[1] / sizes[0]
    assert ratio < size_ratio ** 2, f"superquadratic scaling: {timings}"
    assert ratio > 1.0, f"runtime did not grow with |V|: {timings}"
