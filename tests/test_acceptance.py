"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run pytest with -s to see them against the stated
tolerances and runtime budgets).
"""
import time

import numpy as np
import pytest

from conftest import (
    TX_POWER_W,
    chu_liu_edmonds,
    from_edge_list,
    make_scenario,
    random_digraph,
    route,
    sweep_snr_threshold,
    taeer,
)
from oracles import (
    centralized_gd,
    enumerate_min_arborescence,
    exact_dst_oracle,
    pointing_loss_pdf,
    pointing_pdf_quadrature,
    pointing_pdf_quadrature_logspace,
    validate_tree,
)
from satagg import channel, geometry, hierfl, routing, sim, topology
from satagg.channel import LinkParams
from satagg.cli import parse_and_dispatch
from satagg.routing import RoutingInfeasibleError
from test_routing import random_dst_instance


def _report(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_msa_exactness():
    """Chu-Liu-Edmonds equals brute-force enumeration on 500 digraphs."""
    rng = np.random.default_rng(2001)
    t0 = time.perf_counter()
    solved = infeasible_agreed = 0
    while solved < 500:
        n, edges = random_digraph(rng, max_nodes=8, p=0.45)
        if not edges:
            continue
        root = int(rng.integers(n))
        g = from_edge_list(n, edges)
        oracle = enumerate_min_arborescence(edges, root, range(n))
        try:
            arb = chu_liu_edmonds(g, root, nodes=range(n))
        except RoutingInfeasibleError:
            assert oracle is None  # both sides must agree it is unsolvable
            infeasible_agreed += 1
            continue
        assert oracle is not None
        assert arb.total_cost == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        validate_tree(arb)
        solved += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, f"500 exact matches (+{infeasible_agreed} agreed-infeasible) "
               f"in {elapsed:.1f}s (< 30s)")


def test_criterion_2_heuristic_sandwich():
    """exact optimum <= TAEER <= D-Merge on 200 random DST instances."""
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    for k in range(200):
        g, terminals, root = random_dst_instance(
            rng, max_nodes=9, max_terminals=4, integer_weights=(k % 2 == 0))
        opt = exact_dst_oracle(g, terminals, root)
        arb = route(taeer, g, 0, terminals, root)
        validate_tree(arb, terminals)
        merged = route(routing.d_merge, g, 0, terminals, root)
        assert opt <= arb.total_cost + 1e-9
        assert arb.total_cost <= merged.total_cost + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, f"200 instances sandwiched in {elapsed:.1f}s (< 60s)")


def test_criterion_3_outage_closed_form():
    """Closed-form outage matches the density integral to 1e-6; the density
    is a proper distribution."""
    rng = np.random.default_rng(2003)
    worst = 0.0
    checked = 0
    while checked < 1000:
        params = LinkParams(
            sigma_p_rad=float(rng.uniform(0.02, 0.1)),
            theta_3db_rad=float(rng.uniform(0.05, 0.2)))
        p_t = float(rng.uniform(0.0316, 5.0))
        d_km = float(rng.uniform(500.0, 45000.0))
        g0_val = channel.gamma0(p_t, d_km, params)
        if not 1e-9 < g0_val < 1.0 - 1e-9:
            continue
        closed = channel.outage_from_gamma0(g0_val, params)
        integral, _ = pointing_pdf_quadrature_logspace(
            lambda x: pointing_loss_pdf(x, params), g0_val)
        worst = max(worst, abs(closed - integral))
        assert abs(closed - integral) <= 1e-6
        checked += 1
    norm_worst = 0.0
    for k in range(50):
        params = LinkParams(
            sigma_p_rad=float(rng.uniform(0.02, 0.1)),
            theta_3db_rad=float(rng.uniform(0.05, 0.2)))
        quad = pointing_pdf_quadrature if k == 0 else pointing_pdf_quadrature_logspace
        total, _ = quad(lambda x: pointing_loss_pdf(x, params), 1.0)
        norm_worst = max(norm_worst, abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-6
    _report(3, f"1000 draws, worst |closed-integral| {worst:.2e}; "
               f"worst |norm-1| {norm_worst:.2e} (<= 1e-6)")


def test_criterion_4_aggregation_equivalence():
    """Tree reduction equals the flat weighted sum; E=1 full batch replays
    centralized gradient descent."""
    rng = np.random.default_rng(2004)
    from test_hierfl import random_arborescence
    worst = 0.0
    for _ in range(100):
        tree = random_arborescence(rng, int(rng.integers(2, 14)))
        n_dev = int(rng.integers(1, 20))
        d = int(rng.integers(1, 8))
        deltas = rng.standard_normal((n_dev, d))
        raw = rng.uniform(0.05, 1.0, n_dev)
        weights = raw / raw.sum()
        terms = [int(rng.integers(len({tree.root}.union(*tree.edges))))
                 for _ in range(n_dev)]
        got = hierfl.tree_aggregate(tree, deltas, weights, terms)
        ref = hierfl.flat_aggregate(deltas, weights)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        err = float(np.max(np.abs(got - ref))) / scale
        worst = max(worst, err)
        assert err <= 1e-12

    settings = hierfl.TrainingSettings(
        dim=10, samples_per_device=20, heterogeneity=1.0, noise_std=0.1,
        local_steps=1, learning_rate=0.02, batch_size=20)
    stack = hierfl.make_synthetic_tasks([1 / 8] * 8, settings, np.random.default_rng(4))
    fed = hierfl.run_training(stack, [False] * 50, settings, np.random.default_rng(0))
    cent = centralized_gd(stack, 50, 0.02)
    step_worst = max(abs(lf - lc) / max(abs(lc), 1e-30)
                     for (_, lf, _), (_, lc, _) in zip(fed, cent))
    assert step_worst <= 1e-10
    _report(4, f"100 tree reductions (worst rel err {worst:.2e} <= 1e-12); "
               f"50-step replay (worst rel err {step_worst:.2e} <= 1e-10)")


@pytest.fixture(scope="module")
def ordering_runs():
    """Shared 50-slot comparison runs for criteria 5 and 7."""
    t0 = time.perf_counter()
    out = {}
    for name, spec in {
        "delta": geometry.ConstellationSpec(4, 20, 500.0, 45.0, 1, "delta"),
        "star": geometry.ConstellationSpec(4, 20, 700.0, 99.5, 1, "star"),
    }.items():
        cfg1 = make_scenario(spec, algorithms=("taeer", "d_merge", "orbit_greedy"),
                             rho=1.0, rounds=50, seed=2005, clusters=41)
        cfg01 = make_scenario(spec, algorithms=("taeer", "d_merge", "orbit_greedy"),
                              rho=0.1, rounds=50, seed=2005, clusters=41)
        out[name] = {
            "spec": spec,
            1.0: sim.compare_algorithms(cfg1),
            0.1: sim.compare_algorithms(cfg01),
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_5_paper_ordering(ordering_runs):
    """Energy ordering TAEER <= D-Merge < Orbit-Greedy with ratio >= 2 at
    rho=1; outage(D-Merge) >= outage(TAEER) at rho=0.1; both constellations,
    50 slots, under 5 minutes."""
    lines = []
    for name in ("delta", "star"):
        res1 = ordering_runs[name][1.0]
        e = {a: res1[a].avg_energy_per_slot_j for a in res1}
        assert res1["taeer"].failed_rounds == 0
        assert e["taeer"] <= e["d_merge"] + 1e-9
        assert e["d_merge"] < e["orbit_greedy"]
        ratio = e["orbit_greedy"] / e["taeer"]
        assert ratio >= 2.0
        res01 = ordering_runs[name][0.1]
        o = {a: res01[a].avg_outage_per_isl_pct for a in res01}
        assert o["d_merge"] >= o["taeer"]
        lines.append(f"{name}: {e['taeer']:.0f}/{e['d_merge']:.0f}/"
                     f"{e['orbit_greedy']:.0f} J (ratio {ratio:.2f}), "
                     f"outage {o['taeer']:.2f}%/{o['d_merge']:.2f}%")
    assert ordering_runs["elapsed"] < 300.0
    _report(5, "; ".join(lines) + f"; built in {ordering_runs['elapsed']:.0f}s (< 300s)")


def test_criterion_6_scale_runtime():
    """One 800/20/1 frame instance solves in under a second."""
    spec = geometry.ConstellationSpec(20, 40, 700.0, 99.5, 1, "star")
    params = LinkParams()
    times = topology.TimeStructure.for_constellation(spec)
    rng = np.random.default_rng(2006)
    txp = topology.tx_power_draw(spec, rng, *TX_POWER_W)
    g = topology.build_snapshot(spec, params, times, 0.0, txp)
    clusters = sim.random_clusters(rng, 41)
    terminals = sorted(set(geometry.serving_satellites(
        clusters, 0.0, geometry.positions(spec, 0.0))))
    root = routing.select_root(g, terminals)
    t0 = time.perf_counter()
    arb = route(taeer, g, 0, terminals, root)
    elapsed = time.perf_counter() - t0
    validate_tree(arb, terminals)
    assert elapsed < 1.0
    _report(6, f"800/20/1 frame with {len(terminals)} terminals solved in "
               f"{elapsed * 1e3:.1f}ms (< 1s)")


def test_criterion_7_snr_threshold_trend(ordering_runs):
    """Average per-ISL outage is monotone nondecreasing in the receiver SNR
    threshold, both constellations."""
    thresholds = [-130.0, -120.0, -110.0, -100.0, -90.0, -80.0, -70.0]
    summary = []
    for name in ("delta", "star"):
        cfg = make_scenario(ordering_runs[name]["spec"], algorithms=("taeer",),
                            rho=0.1, rounds=10, seed=2007, clusters=41)
        sweep = sweep_snr_threshold(cfg, thresholds)
        values = [v for _, v in sweep]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]
        summary.append(f"{name}: {values[0]:.3f}% -> {values[-1]:.3f}%")
    _report(7, f"outage nondecreasing over {len(thresholds)} thresholds "
               f"({'; '.join(summary)})")


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed produce byte-identical metric files."""
    cfg_text = (
        "[constellation]\npattern = delta\naltitude_km = 500\n"
        "inclination_deg = 45\n\n[clusters]\ncount = 20\n\n"
        "[algorithms]\nnames = taeer\nrho = 0.1\n\n[run]\nrounds = 6\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = parse_and_dispatch(["run-scenario", "--config", str(cfg_path),
                                   "--seed", "31415", "--out", str(out)])
        assert code == 0
        blobs.append(((out / "metrics.json").read_bytes(),
                      (out / "rounds.csv").read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    size = len(blobs[0][0]) + len(blobs[0][1])
    _report(8, f"two runs byte-identical ({size} bytes of metrics)")
