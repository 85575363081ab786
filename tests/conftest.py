import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable
SCENARIOS = Path(__file__).parent.parent / "scenarios"

from oracles import paths_to_root  # noqa: E402
from satagg import channel, geometry, routing, sim, topology


@pytest.fixture
def params():
    return channel.LinkParams()


@pytest.fixture
def delta_spec():
    return geometry.ConstellationSpec(4, 20, 500.0, 45.0, 1, "delta")


@pytest.fixture
def star_spec():
    return geometry.ConstellationSpec(4, 20, 700.0, 99.5, 1, "star")


# The scenario default transmit-power range, sim.ScenarioConfig's.
TX_POWER_W = (0.0316, 5.0)


def make_scenario(spec, *, algorithms=("taeer",), rho=1.0, rounds=3, seed=7,
                  clusters=12, params=None, **settings):
    params = params or channel.LinkParams()
    times = topology.TimeStructure.for_constellation(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    return sim.ScenarioConfig(
        spec=spec, params=params, times=times,
        clusters=sim.random_clusters(rng, clusters),
        algorithms=tuple(algorithms), rho=rho, rounds=rounds, rng_seed=seed,
        **settings)


def random_digraph(rng, max_nodes=12, p=0.4, w_low=0.01, w_high=10.0,
                   min_nodes=2):
    """Random weighted digraph as (num_nodes, [(u, v, w), ...]); no parallel
    edges or self-loops."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v, float(rng.uniform(w_low, w_high))))
    return n, edges


def taeer(g, u, terminals, root, rows):
    """routing.taeer_round's tree at frame u, every earlier frame's plan
    empty."""
    return routing.taeer_round(g, terminals, root, [[]] * u + [rows])[u]


def route(router, g, u, terminals, root):
    """A path router (taeer above or d_merge) at frame u on that frame's
    shortest-path rows toward root (`oracles.paths_to_root`, the rows
    `routing.path_plans` gives)."""
    return router(g, u, terminals, root, paths_to_root(g, u, terminals, root))


def from_edge_list(num_nodes, edges, frame_count=1):
    """Synthetic graph from [(u, v, w), ...]; the same weight is replicated
    across frames."""
    if edges:
        src, dst, w = zip(*edges)
    else:
        src, dst, w = (), (), ()
    weights = np.tile(np.asarray(w, dtype=float), (frame_count, 1))
    return topology.SnapshotGraph.from_arrays(
        num_nodes, np.asarray(src, dtype=np.int32), np.asarray(dst, dtype=np.int32), weights)


def cut_off_from(g, node, k):
    """g with every out-row of node at +inf from frame k on: from that
    frame, node reaches no other node."""
    w = g.weights_j.copy()
    w[k:, g.src == node] = np.inf
    return replace(g, weights_j=w)


def force_method(monkeypatch, method):
    """Make routing.path_plans solve the frames after frame 0 by "sweeps" or
    by the "heap" search, whatever the depth of frame 0's tree."""
    depth = {"sweeps": lambda g, warm: 0, "heap": lambda g, warm: g.frame_count}[method]
    monkeypatch.setattr(routing, "_tree_depth", depth)


def plans_cut_at(monkeypatch, slot, k):
    """Make the simulator plan the round of slot `slot` on its routing graph
    with the lowest terminal other than the root cut off from frame k on
    (cut_off_from), so that no plan reaches frame k."""
    real = routing.path_plans

    def cut(g, terminals, root):
        if g.slot_index == slot:
            g = cut_off_from(g, min(t for t in terminals if t != root), k)
        return real(g, terminals, root)

    monkeypatch.setattr(routing, "path_plans", cut)


def chu_liu_edmonds(g, root, u=0, nodes=None):
    """Exact minimum spanning arborescence in data-flow orientation: the
    package's arborescence core (`routing._msa`) on a graph's rows at
    frame u, as one plan.

    Spans `nodes` (default: every node incident to an edge, plus the root).
    Raises RoutingInfeasibleError listing nodes that cannot reach the root.
    """
    span = np.zeros(g.num_nodes, dtype=bool)
    if nodes is None:
        span[g.src] = span[g.dst] = True
    else:
        span[[int(v) for v in nodes]] = True
    span[root] = True
    eids = np.flatnonzero(span[g.src] & span[g.dst])
    picked = routing._msa(g.src[eids].astype(np.intp), g.dst[eids].astype(np.intp),
                          g.weights_j[u, eids], np.array([root]), span, g.num_nodes)
    return routing.Arborescence(g, u, root, tuple(np.sort(eids[picked]).tolist()))


def routed_isl_links(cfg):
    """sim.run_scenario(cfg) with taeer, cfg's first algorithm, wrapped to
    record (tx power, distance) of every LEO-LEO row of every tree it
    returns, in the order the simulator charges them: round by round, and
    in each round's trees frame by frame. Uplink rows end at the GEO relay
    and are left out. Returns (RunMetrics, p_t, d_km)."""
    assert cfg.algorithms[0] == "taeer"
    tx_power = sim.scenario_tx_power(cfg)
    p_t, d_km = [], []
    solve = routing.taeer_round

    def recording(g, terminals, root, plans):
        trees = solve(g, terminals, root, plans)
        for tree in trees:
            eids = np.asarray(tree.edge_ids, dtype=np.intp)
            eids = eids[g.dst[eids] != g.geo_node]
            p_t.extend(tx_power[g.src[eids]])
            d_km.extend(g.distance_km[tree.frame][eids])
        return trees

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "taeer_round", recording)
        metrics = sim.run_scenario(cfg)
    return metrics, np.asarray(p_t), np.asarray(d_km)


def sweep_snr_threshold(cfg, thresholds_db):
    """Analytic per-ISL outage of the routed trees under a range of receiver
    SNR thresholds, as (threshold, percent) pairs. Routing is done once at
    cfg.params' threshold and the used rows are held fixed, so each sweep
    point re-evaluates only the outage probability; per-edge monotonicity
    in the threshold is preserved exactly."""
    _, p_t, d_km = routed_isl_links(cfg)
    out = []
    for th in thresholds_db:
        params = replace(cfg.params, snr_th_db=float(th))
        pout = channel.outage_from_gamma0(channel.gamma0(p_t, d_km, params), params)
        out.append((float(th), float(100.0 * np.mean(pout))))
    return out
