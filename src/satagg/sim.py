"""Multi-round scenario driver: terminals from cluster geometry, routing
of every frame, outage sampling with retransmissions, and metric
accumulation.

Round t runs in the time slot starting at t * slot_len: the constellation is
propagated at that absolute epoch (Earth rotation shifts the cluster
longitudes, so terminal identities change across rounds) and the slot label
is t mod slots_per_period. Energy is always charged from the true per-frame
energy weights even when routing runs on outage-blended weights; the GEO
uplinks ending every tree are charged deterministically, in the totals.
"""
import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel, geometry, routing, topology
from .channel import LinkParams
from .geometry import ConfigError, ConstellationSpec, GroundCluster
from .topology import SnapshotGraph, TimeStructure, ordered_sum

ALGORITHMS = ("taeer", "d_merge", "orbit_greedy")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: the shell, link, time grid and clusters, plus the run
    settings, whose defaults are the reference settings."""

    spec: ConstellationSpec
    params: LinkParams
    times: TimeStructure
    clusters: tuple
    algorithms: tuple = ALGORITHMS
    rho: float = 1.0
    rounds: int = 300
    rng_seed: int = 0
    tx_power_min_w: float = 0.0316
    tx_power_max_w: float = 5.0
    max_attempts: int = 100

    def __post_init__(self):
        # The seed first: config draws the clusters from it, and cannot from
        # a negative one.
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ConfigError("rng_seed", f"must be an unsigned 64-bit value, "
                                          f"got {self.rng_seed}")
        if not self.algorithms:
            raise ConfigError("algorithms", "need at least one algorithm")
        for k, a in enumerate(self.algorithms):
            if a not in ALGORITHMS:
                raise ConfigError("algorithms", f"unknown algorithm {a!r} "
                                                f"(choose from {sorted(ALGORITHMS)})")
            if a in self.algorithms[:k]:
                raise ConfigError("algorithms", f"{a!r} is named twice")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho", f"value {self.rho} outside the [0, 1] bound")
        for name in ("rounds", "max_attempts"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        for name in ("tx_power_min_w", "tx_power_max_w"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)!r}")
        if not 0 < self.tx_power_min_w:
            raise ConfigError("tx_power_min_w", f"must be > 0, got {self.tx_power_min_w}")
        if not self.tx_power_min_w <= self.tx_power_max_w:
            raise ConfigError("tx_power_max_w", f"must be >= {self.tx_power_min_w}, "
                                                f"got {self.tx_power_max_w}")
        if not self.clusters:
            raise ConfigError("clusters", "at least one ground cluster is required")
        check_device_weights(self.clusters)

    @property
    def outages_enabled(self) -> bool:
        """Outages are sampled iff routing blends in the outage penalty."""
        return self.rho < 1.0

    @property
    def constellation_label(self) -> str:
        s = self.spec
        return (f"{s.total_sats}/{s.num_orbits}/{s.phasing_factor} "
                f"walker-{s.pattern}")


@dataclass
class RoundRecord:
    round_index: int
    slot_label: int
    algorithm: str
    root: int | None
    num_terminals: int
    tree_energy_j: float = 0.0        # one attempt per used LEO-LEO edge, all frames
    retrans_energy_j: float = 0.0
    geo_energy_j: float = 0.0
    attempts: int = 0
    failures: int = 0
    analytic_outage_sum: float = 0.0  # sum of per-edge-frame outage probabilities
    edge_frames: int = 0              # number of (edge, frame) transmissions
    failed: bool = False

    @property
    def total_energy_j(self) -> float:
        return self.tree_energy_j + self.retrans_energy_j + self.geo_energy_j


@dataclass
class RunMetrics:
    algorithm: str
    rho: float
    constellation: str
    rounds: int
    seed: int
    avg_energy_per_slot_j: float
    avg_outage_per_isl_pct: float | None   # empirical, None when not sampled
    analytic_outage_pct: float
    failed_rounds: int
    records: list = field(default_factory=list)


def check_device_weights(clusters) -> None:
    """Raise ConfigError unless the clusters' device weights sum to 1."""
    total = ordered_sum(w for c in clusters for w in c.device_weights)
    if abs(total - 1.0) > 1e-12:
        raise ConfigError("clusters", f"device weights must sum to 1 (got {total!r})")


def random_clusters(rng: np.random.Generator, count: int = 41,
                    lat_band_deg: float = 60.0) -> tuple:
    """Clusters spread uniformly (by area) over the populated latitude band,
    one device each, equal aggregation weights."""
    if count < 1:
        raise ConfigError("count", f"must be >= 1, got {count}")
    if not 0 < lat_band_deg <= 90:
        raise ConfigError("lat_band_deg", f"must lie in (0, 90], got {lat_band_deg}")
    zmax = math.sin(math.radians(lat_band_deg))
    lats = np.degrees(np.arcsin(rng.uniform(-zmax, zmax, count)))
    lons = rng.uniform(-180.0, 180.0, count)
    return tuple(GroundCluster(i, float(lats[i]), float(lons[i]), (1.0 / count,))
                 for i in range(count))


def scenario_tx_power(cfg: ScenarioConfig) -> np.ndarray:
    """Per-satellite transmit powers of the scenario, drawn from the first
    child of the master seed (the second seeds the rounds)."""
    power_ss = np.random.SeedSequence(cfg.rng_seed).spawn(2)[0]
    return topology.tx_power_draw(cfg.spec, np.random.default_rng(power_ss),
                                  cfg.tx_power_min_w, cfg.tx_power_max_w)


def terminals_for_round(cfg: ScenarioConfig, t_abs: float) -> tuple[dict, list]:
    """Serving satellite per cluster at the round epoch; returns the
    cluster -> node map and the deduplicated sorted terminal list."""
    served = geometry.serving_satellites(cfg.clusters, t_abs,
                                         geometry.positions(cfg.spec, t_abs))
    mapping = {c.cluster_id: s for c, s in zip(cfg.clusters, served)}
    return mapping, sorted(set(served))


def sample_attempts(rng: np.random.Generator, gamma0, params: LinkParams,
                    max_attempts: int) -> tuple[list, list]:
    """Transmission attempts for routed rows given by their gamma0, in order.

    Each attempt draws a fresh pointing error theta = sigma_p*|z| and fails
    when the resulting pointing loss drops below the row's gamma0. Returns
    (attempts, success) lists; success is False where max_attempts all
    failed. Rows with gamma0 >= 1 (certain outage) or <= 0 draw nothing.
    The draws come in batches, one per row still unfinished, and are handed
    out in row order, each row taking draws until it ends; as every
    unfinished row needs at least one more draw, the generator consumes
    exactly the normals, and leaves exactly the state, of drawing one at a
    time row after row.

    A batch is handed out by segments: while each row takes one draw, the
    rest of the batch is compared with the next rows' bounds on z^2 in one
    array operation, up to its first failing draw; from there the row
    takes draws one at a time until it ends, and the next row starts a new
    segment. Outages are rare, so most rows end inside a segment.
    """
    g = np.asarray(gamma0, dtype=float)
    attempts, success = [1] * g.size, [True] * g.size
    capped = g >= 1.0
    for row in np.flatnonzero(capped).tolist():
        attempts[row] = max_attempts
        success[row] = False
    draws = ~capped & ~(g <= 0.0)
    rows = np.flatnonzero(draws)   # the rows that draw
    # Each row's bound on z^2, -math.log(g) / scale as the per-edge loop
    # computes it (NaN for a NaN threshold, which no draw meets).
    scale = params.g0 * params.sigma_p_rad ** 2
    limits = -np.fromiter(map(math.log, g[draws].tolist()), float, rows.size) / scale
    pos, k = 0, 0   # the current row's place in rows, its draws so far
    while pos < rows.size:
        z = rng.standard_normal(rows.size - pos)
        z2 = z * z
        i = 0   # the next draw of the batch
        while i < z2.size:
            if k == 0:   # a segment: one draw for each of the next rows
                ok = z2[i:] <= limits[pos:pos + z2.size - i]
                run = int(ok.argmin())   # the first failing draw, if any
                if ok[run]:
                    run = ok.size
                pos, i = pos + run, i + run
                if i == z2.size:
                    break
            k += 1
            met = bool(z2[i] <= limits[pos])
            i += 1
            if met or k >= max_attempts:
                attempts[rows[pos]] = k
                success[rows[pos]] = met
                pos, k = pos + 1, 0
    return attempts, success


def _round_trees(algorithm: str, g: SnapshotGraph, terminals, plans,
                 rng: np.random.Generator) -> tuple:
    """One router's trees of a round, rooted at g's GEO relay, as one
    (frame, rows) pair of int arrays, frame-major and ascending within a
    frame. The path routers route plans, the round's (frame, rows) path
    plans (each frame's path rows with the uplink satellite's uplink row):
    d_merge's trees are the plans, and taeer solves them in one call.
    orbit_greedy routes every frame of the slot in one call, drawing its
    arc roots from rng before any outage is sampled."""
    if algorithm == "taeer":
        return routing.taeer_round(g, terminals, g.geo_node, *plans)
    if algorithm == "d_merge":
        return plans
    if algorithm == "orbit_greedy":
        return routing.orbit_greedy(g, terminals, rng)
    raise ValueError(f"unknown algorithm {algorithm}")


def _charge(rec: RoundRecord, graph: SnapshotGraph, outage: np.ndarray | None,
            frame: np.ndarray, rows: np.ndarray, cfg: ScenarioConfig,
            rng: np.random.Generator) -> None:
    """Add a round's trees, the (frame, rows) pair of _round_trees, to rec
    from graph's true weights, in one gather of their rows, and decide
    whether the round failed. Every routed frame holds an uplink row, so
    the routed frames are 0..frame[-1] (none for empty arrays). Uplink
    rows add to the GEO energy one at a time. The LEO-LEO rows' analytic
    outages are gathered from outage, the slot's outage array
    (topology.slot_outage), or evaluated for these rows alone where outage
    is None (rho = 1). Their weights and outages are summed left to right
    per frame, by a cumsum along a zero-padded (frames, rows) grid, and the
    frame sums added. With outages on, the LEO-LEO rows are sampled in one
    sample_attempts call from rng, in frame order and then row order, and
    each row adds (attempts - 1) * weight to the retransmission energy, in
    row order; that is 0 for a row delivered at its first attempt unless
    its weight is not finite (0 * inf is NaN), so only the other rows are
    added. Otherwise each row takes one attempt. The round fails when a
    frame is left unrouted, a row is not delivered, or the total energy is
    not finite (an unusable link, weight +inf, was routed)."""
    w = graph.weights_j[frame, rows]
    isl = graph.dst[rows] != graph.geo_node
    for x in w[~isl].tolist():
        rec.geo_energy_j += x
    routed = int(frame[-1]) + 1 if frame.size else 0
    frame, rows, w = frame[isl], rows[isl], w[isl]   # the LEO-LEO rows from here on
    gamma0 = graph.gamma0[frame, rows]
    if outage is None:
        p_out = channel.outage_from_gamma0(gamma0, cfg.params)
    else:
        p_out = outage[frame, rows]
    # Frame u's rows fill grid[:, u, 1:] in order after a leading 0.
    sizes = np.bincount(frame)
    grid = np.zeros((2, sizes.size, sizes.max(initial=0) + 1))
    col = np.arange(1, frame.size + 1) - (np.cumsum(sizes) - sizes)[frame]
    grid[0, frame, col] = w
    grid[1, frame, col] = p_out
    tree_j, outage_sum = np.cumsum(grid, axis=2)[:, :, -1].tolist()
    for x in tree_j:
        rec.tree_energy_j += x
    for x in outage_sum:
        rec.analytic_outage_sum += x
    rec.edge_frames += w.size
    delivered = True
    if cfg.outages_enabled:
        attempts, success = sample_attempts(rng, gamma0, cfg.params,
                                            cfg.max_attempts)
        k = np.fromiter(attempts, np.intp, len(attempts))
        k_sum = int(k.sum())
        rec.attempts += k_sum
        rec.failures += k_sum - success.count(True)
        retried = np.flatnonzero((k != 1) | ~np.isfinite(w))
        for k_e, w_e in zip(k[retried].tolist(), w[retried].tolist()):
            rec.retrans_energy_j += (k_e - 1) * w_e
        delivered = all(success)
    else:
        rec.attempts += w.size
    rec.failed = (routed < graph.frame_count or not delivered
                  or not math.isfinite(rec.total_energy_j))


def _simulate(cfg: ScenarioConfig, algorithms) -> dict:
    """Shared driver; returns {algorithm: RunMetrics}.

    Every algorithm sees identical terminal sets and identical per-round rng
    seeds, and every router returns trees rooted at the GEO relay. When a
    path router (taeer, d_merge) runs, each round picks one uplink
    satellite (routing.select_root; the path routers' record root) and
    builds the round's plans toward it before any router runs
    (routing.path_plans), as one (frame, rows) pair of arrays. The plans
    stop at the first frame with a terminal that cannot reach the uplink
    satellite, so each path router then leaves the frames from there on
    unrouted. d_merge's trees are the plans, and taeer solves them in one
    call; orbit_greedy routes the round in one call, looking its ring
    arcs' rows up once (routing.orbit_plan) and drawing only its arc roots
    per frame. Routers run on the rows of the energy graph (outage
    blending only re-weights them), so their rows index its true weights.

    Each (round, algorithm) is routed whole (_round_trees) and then
    charged (_charge), which alone samples outages, sums the energies and
    decides whether the round failed. A router that finds the round
    infeasible routes no frame: its arrays are empty. With outages on
    (rho < 1), each round evaluates the slot's outage array once
    (topology.slot_outage): robust_weights blends with it, and every
    algorithm's charge gathers its routed rows from it. At rho = 1 the
    analytic outage is one call per round and algorithm over the routed
    LEO-LEO rows, so such a run evaluates no other row's.
    """
    tx_power = scenario_tx_power(cfg)
    round_seeds = np.random.SeedSequence(cfg.rng_seed).spawn(2)[1].spawn(cfg.rounds)
    path_routed = [a for a in algorithms if a in ("taeer", "d_merge")]

    records = {a: [] for a in algorithms}

    for t in range(cfg.rounds):
        t_abs = t * cfg.times.slot_len_s
        graph = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs,
                                        tx_power)
        outage, route_graph = None, graph
        if cfg.outages_enabled:
            outage = topology.slot_outage(graph, cfg.params)
            route_graph = topology.robust_weights(graph, cfg.rho, outage)
        _, terminals = terminals_for_round(cfg, t_abs)
        root = None
        plans = None   # (frame, rows): every frame's path rows with the uplink row
        if path_routed:
            root = routing.select_root(graph, terminals)
            plans = routing.path_plans(route_graph, terminals, root)

        for algorithm in algorithms:
            rng = np.random.default_rng(round_seeds[t])
            rec = RoundRecord(round_index=t, slot_label=graph.slot_index,
                              algorithm=algorithm,
                              root=root if algorithm in path_routed else None,
                              num_terminals=len(terminals))
            try:
                frame, rows = _round_trees(algorithm, route_graph, terminals, plans, rng)
            except routing.RoutingInfeasibleError:
                frame = rows = np.zeros(0, dtype=np.intp)
            _charge(rec, graph, outage, frame, rows, cfg, rng)
            records[algorithm].append(rec)

    out = {}
    for algorithm in algorithms:
        recs = records[algorithm]
        good = [r for r in recs if not r.failed]
        energy = (ordered_sum(r.total_energy_j for r in good) / len(good)
                  if good else float("nan"))
        attempts = sum(r.attempts for r in recs)
        failures = sum(r.failures for r in recs)
        outage = (100.0 * failures / attempts
                  if cfg.outages_enabled and attempts else None)
        frames = sum(r.edge_frames for r in recs)
        analytic = (100.0 * ordered_sum(r.analytic_outage_sum for r in recs) / frames
                    if frames else 0.0)
        out[algorithm] = RunMetrics(
            algorithm=algorithm, rho=cfg.rho,
            constellation=cfg.constellation_label, rounds=cfg.rounds,
            seed=cfg.rng_seed, avg_energy_per_slot_j=float(energy),
            avg_outage_per_isl_pct=outage, analytic_outage_pct=float(analytic),
            failed_rounds=len(recs) - len(good), records=recs)
    return out


def run_scenario(cfg: ScenarioConfig) -> RunMetrics:
    """Run the first configured algorithm over cfg.rounds rounds;
    deterministic under seed."""
    algorithm = cfg.algorithms[0]
    return _simulate(cfg, (algorithm,))[algorithm]


def compare_algorithms(cfg: ScenarioConfig) -> dict:
    """Run every configured algorithm on identical terminal sets and
    per-round seeds; returns {algorithm: RunMetrics}."""
    return _simulate(cfg, tuple(cfg.algorithms))


def comparison_table(results: dict) -> str:
    """Fixed-width text table of the headline metrics per algorithm."""
    names = sorted(results)
    lines = [f"{'metric':<28}" + "".join(f"{n:>16}" for n in names)]
    lines.append(f"{'avg energy per slot (J)':<28}" + "".join(
        f"{results[n].avg_energy_per_slot_j:>16.4f}" for n in names))
    row = []
    for n in names:
        v = results[n].avg_outage_per_isl_pct
        row.append(f"{'-':>16}" if v is None else f"{v:>16.3f}")
    lines.append(f"{'avg outage per ISL (%)':<28}" + "".join(row))
    lines.append(f"{'failed rounds':<28}" + "".join(
        f"{results[n].failed_rounds:>16d}" for n in names))
    return "\n".join(lines)


def metrics_payload(m: RunMetrics) -> dict:
    """The JSON fields of one run; the energy average is None (null) when
    every round failed, since JSON has no NaN."""
    energy = m.avg_energy_per_slot_j
    return {
        "algorithm": m.algorithm,
        "rho": m.rho,
        "constellation": m.constellation,
        "avg_energy_per_slot_j": None if math.isnan(energy) else energy,
        "avg_outage_pct": m.avg_outage_per_isl_pct,
        "analytic_outage_pct": m.analytic_outage_pct,
        "rounds": m.rounds,
        "seed": m.seed,
        "failed_rounds": m.failed_rounds,
    }


def write_metrics_json(path, metrics) -> None:
    """Stable-schema JSON export (strict: no NaN or infinity); accepts one
    RunMetrics or {name: RunMetrics}."""
    if isinstance(metrics, RunMetrics):
        payload = metrics_payload(metrics)
    else:
        payload = {name: metrics_payload(m) for name, m in sorted(metrics.items())}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_rounds_csv(path, metrics: RunMetrics) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "slot", "algorithm", "root", "num_terminals",
                    "tree_energy_j", "retrans_energy_j", "geo_energy_j",
                    "total_energy_j", "attempts", "failures", "failed"])
        for r in metrics.records:
            w.writerow([r.round_index, r.slot_label, r.algorithm,
                        "" if r.root is None else r.root, r.num_terminals,
                        repr(r.tree_energy_j), repr(r.retrans_energy_j),
                        repr(r.geo_energy_j), repr(r.total_energy_j),
                        r.attempts, r.failures, int(r.failed)])


def write_link_sweep_csv(path, params: LinkParams, frames_per_slot: int,
                         distances_km, powers_w) -> None:
    """Link-budget sweep export (d_km, p_t_w, rx_power_w, snr_db, rate_bps,
    energy_j, outage_prob), one row per (power, distance) with the power
    outer; energy_j is per frame. Each column is evaluated on the whole grid
    in one call."""
    p_t = np.asarray(powers_w, dtype=float)[:, None]
    d_km = np.asarray(distances_km, dtype=float)
    sigma2 = channel.noise_power(params)
    p_r = channel.received_power(p_t, d_km, params)
    rate = channel.achievable_rate(p_r, sigma2, params)
    energy, gamma0 = channel.link_budget(p_t, d_km, params, frames_per_slot)
    columns = np.broadcast_arrays(d_km, p_t, p_r, rate, energy,
                                  channel.outage_from_gamma0(gamma0, params))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d_km", "p_t_w", "rx_power_w", "snr_db", "rate_bps",
                    "energy_j", "outage_prob"])
        # csv writes a float as its repr.
        w.writerows((d, p, rx, 10.0 * math.log10(rx / sigma2), rate, e, out)
                    for d, p, rx, rate, e, out in zip(*(c.ravel().tolist() for c in columns)))
