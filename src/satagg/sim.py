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
from itertools import chain

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
    tree_energy_j: float        # one attempt per used LEO-LEO edge, all frames
    retrans_energy_j: float
    geo_energy_j: float
    attempts: int
    failures: int
    analytic_outage_sum: float  # sum of per-edge-frame outage probabilities
    edge_frames: int            # number of (edge, frame) transmissions
    failed: bool

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
    """Transmission attempts for one frame's routed rows, in row order.

    Each attempt draws a fresh pointing error theta = sigma_p*|z| and fails
    when the resulting pointing loss drops below the row's gamma0. Returns
    (attempts, success) lists; success is False where max_attempts all
    failed. Rows with gamma0 >= 1 (certain outage) or <= 0 draw nothing.
    The draws come in batches, one per row still unfinished, and are handed
    out in row order, each row taking draws until it ends; as every
    unfinished row needs at least one more draw, the generator consumes
    exactly the normals, and leaves exactly the state, of drawing one at a
    time row after row.
    """
    n = len(gamma0)
    attempts, success = [1] * n, [True] * n
    rows, limits = [], []   # the rows that draw, and their bound on z^2
    scale = params.g0 * params.sigma_p_rad ** 2
    for row, g in enumerate(gamma0):
        if g >= 1.0:
            attempts[row] = max_attempts
            success[row] = False
        elif not g <= 0.0:
            rows.append(row)
            limits.append(-math.log(g) / scale)
    pos, k = 0, 0   # the current row's place in rows, its draws so far
    while pos < len(rows):
        for z in rng.standard_normal(len(rows) - pos).tolist():
            k += 1
            if z * z <= limits[pos]:
                attempts[rows[pos]] = k
            elif k < max_attempts:
                continue
            else:   # also where the bound is NaN, which no draw meets
                attempts[rows[pos]] = k
                success[rows[pos]] = False
            pos, k = pos + 1, 0
    return attempts, success


def _frame_trees(algorithm: str, g: SnapshotGraph, terminals, plans,
                 rng: np.random.Generator):
    """One router's trees of a round, in frame order, rooted at g's GEO
    relay. The path routers solve one frame per plan in plans (the frame's
    path rows with the uplink satellite's uplink row), taeer all of them
    in one call; orbit_greedy solves every frame of the slot, each when it
    is asked for, drawing its arc roots from rng after the previous frame's
    outage samples."""
    if algorithm == "taeer":
        return routing.taeer_round(g, terminals, g.geo_node, plans)
    if algorithm == "d_merge":
        return (routing.d_merge(g, u, terminals, g.geo_node, rows)
                for u, rows in enumerate(plans))
    if algorithm == "orbit_greedy":
        layout = routing.orbit_plan(g, terminals)
        return (routing.orbit_greedy(g, u, layout, rng) for u in range(g.frame_count))
    raise ValueError(f"unknown algorithm {algorithm}")


def _charge(rec: RoundRecord, graph: SnapshotGraph, trees, params: LinkParams,
            attempts=None, delivered=None) -> None:
    """Add a round's trees, in frame order, to rec from graph's true
    weights, in one gather of their rows. Uplink rows add to the GEO energy
    one at a time; the LEO-LEO rows' weights and analytic outages are
    summed left to right per frame, and the frame sums added. attempts and
    delivered are the LEO-LEO rows' sampled attempts and outcomes in the
    same order (None when outages are not sampled: one attempt each), and
    each row's retransmissions add its weight once per extra attempt."""
    sizes = [len(tree.edge_ids) for tree in trees]
    eids = np.fromiter(chain.from_iterable(tree.edge_ids for tree in trees),
                       dtype=np.intp, count=sum(sizes))
    frame = np.repeat(np.array([tree.frame for tree in trees], dtype=np.intp), sizes)
    w = graph.weights_j[frame, eids]
    isl = graph.dst[eids] != graph.geo_node
    for x in w[~isl].tolist():
        rec.geo_energy_j += x
    w_tree = w[isl].tolist()
    p_out = channel.outage_from_gamma0(graph.gamma0[frame[isl], eids[isl]],
                                       params).tolist()
    end = 0
    for size in np.bincount(np.repeat(np.arange(len(trees)), sizes)[isl],
                            minlength=len(trees)).tolist():
        start, end = end, end + size
        rec.tree_energy_j += ordered_sum(w_tree[start:end])
        rec.analytic_outage_sum += ordered_sum(p_out[start:end])
    rec.edge_frames += len(w_tree)
    if attempts is None:
        rec.attempts += len(w_tree)
        return
    k_sum = sum(attempts)
    rec.attempts += k_sum
    rec.failures += k_sum - delivered.count(True)
    for k, w_e in zip(attempts, w_tree):
        rec.retrans_energy_j += (k - 1) * w_e
    if not all(delivered):
        rec.failed = True


def _simulate(cfg: ScenarioConfig, algorithms) -> dict:
    """Shared driver; returns {algorithm: RunMetrics}.

    Every algorithm sees identical terminal sets and identical per-round rng
    seeds, and every router returns a tree rooted at the GEO relay. When a
    path router (taeer, d_merge) runs, each round picks one uplink
    satellite (routing.select_root; the path routers' record root) and
    builds the round's plans toward it before any router runs
    (routing.path_plans). The plans stop at the first frame with a
    terminal that cannot reach the uplink satellite, and each path router
    then fails the round with the frames before it charged. taeer solves
    the round's plans in one call, d_merge one frame at a time;
    orbit_greedy looks its ring arcs' rows up once per round
    (routing.orbit_plan) and draws only its arc roots per frame. Routers
    run on the rows of the energy graph (outage blending only re-weights
    them), so their edge_ids index its true weights. Only a tree's
    LEO-LEO rows are sampled for outage, in one sample_attempts call per
    frame in row order, right after that frame's tree. The round's trees
    are then charged in one pass (_charge), whose analytic outage is one
    call per round and algorithm over the routed LEO-LEO rows, so a rho = 1
    run evaluates no other row's. A round whose charged energy is not
    finite needed an unusable link and is marked failed.
    """
    tx_power = scenario_tx_power(cfg)
    round_seeds = np.random.SeedSequence(cfg.rng_seed).spawn(2)[1].spawn(cfg.rounds)
    path_routed = [a for a in algorithms if a in ("taeer", "d_merge")]

    records = {a: [] for a in algorithms}

    for t in range(cfg.rounds):
        t_abs = t * cfg.times.slot_len_s
        graph = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs,
                                        tx_power)
        if cfg.outages_enabled:
            route_graph = topology.robust_weights(graph, cfg.rho, cfg.params)
        else:
            route_graph = graph
        _, terminals = terminals_for_round(cfg, t_abs)
        geo = graph.geo_node
        root = None
        plans = []   # per frame, the sorted path rows with the uplink row
        if path_routed:
            root = routing.select_root(graph, terminals)
            plans = routing.path_plans(route_graph, terminals, root)

        for algorithm in algorithms:
            rng = np.random.default_rng(round_seeds[t])
            rec = RoundRecord(round_index=t, slot_label=graph.slot_index,
                              algorithm=algorithm,
                              root=root if algorithm in path_routed else None,
                              num_terminals=len(terminals), tree_energy_j=0.0,
                              retrans_energy_j=0.0, geo_energy_j=0.0,
                              attempts=0, failures=0, analytic_outage_sum=0.0,
                              edge_frames=0, failed=False)
            trees = []
            attempts, delivered = ([], []) if cfg.outages_enabled else (None, None)
            try:
                for tree in _frame_trees(algorithm, route_graph, terminals, plans, rng):
                    trees.append(tree)
                    if cfg.outages_enabled:
                        eids = np.asarray(tree.edge_ids, dtype=np.intp)
                        gamma0 = graph.gamma0[tree.frame][eids[graph.dst[eids] != geo]]
                        ks, oks = sample_attempts(rng, gamma0.tolist(), cfg.params,
                                                  cfg.max_attempts)
                        attempts += ks
                        delivered += oks
            except routing.RoutingInfeasibleError:
                rec.failed = True
            if algorithm in path_routed and len(plans) < graph.frame_count:
                rec.failed = True
            _charge(rec, graph, trees, cfg.params, attempts, delivered)
            # An unusable link (weight +inf) on the tree or the uplink.
            if not math.isfinite(rec.total_energy_j):
                rec.failed = True
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
