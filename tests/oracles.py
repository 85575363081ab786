"""Independent reference implementations used only to check the package.

These deliberately avoid the package's algorithms: Bellman-Ford instead of
Dijkstra, exhaustive choice enumeration instead of contraction, a
directed Steiner tree optimum from that enumeration over every Steiner-node
subset instead of the path routers, full-gradient descent on the global
objective instead of federated rounds, adaptive quadrature instead of the
closed form, one normal draw per call instead of batched draws, the
per-pair ISL rule and every satellite's distance to every other instead of
the phase-guided pair search, devices trained one at a time instead of as
one stack. The pointing-loss density is the one `satagg.channel`'s
docstring states; the quadratures integrate it to check the closed-form
outage.

`_msa_rows` is the per-frame Chu-Liu/Edmonds on Python lists and dicts
that contracts one cycle per level, where the package's core
(`routing._msa`) solves every frame of a round at once and contracts
every cycle of a level together; `taeer`, the per-frame form of
`routing.taeer_round`, hands each frame to it and prunes leaves one at a
time. `paths_to_root` is the per-frame form of `routing.path_plans`'
rows: Bellman-Ford distances, a walk per terminal and a dict
breadth-first search for ties, where the package reads every frame's
rows off one distance array. `validate_tree` checks a tree's
arborescence invariants.

`Arborescence` is the per-frame view of a tree that the references return
and `validate_tree` reads. The package hands a round's plans and trees on
as one (frame, rows) pair of arrays, which `frame_rows` splits into one
list of rows per frame and `frame_trees` into these views.
"""
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from satagg import geometry
from satagg.routing import RoutingInfeasibleError
from satagg.topology import SnapshotGraph, ordered_sum


@dataclass(frozen=True)
class Arborescence:
    """Rooted aggregation tree at frame `frame` of `graph`: the sorted edge
    rows edge_ids, each (child, parent) toward the root. Two trees are equal
    when their frame, root and rows are. The node pairs and the cost are
    derived from the rows each time they are read."""

    graph: SnapshotGraph = field(compare=False, repr=False)
    frame: int
    root: int
    edge_ids: tuple

    @property
    def edges(self) -> tuple:
        """The (child, parent) node pairs of the rows, in row order."""
        rows = list(self.edge_ids)
        return tuple(zip(self.graph.src[rows].tolist(), self.graph.dst[rows].tolist()))

    @property
    def total_cost(self) -> float:
        """The rows' frame weights summed in row order."""
        return ordered_sum(self.graph.weights_j[self.frame][list(self.edge_ids)].tolist())


def frame_rows(frame, rows, count=None) -> list:
    """A round's plans or trees, the (frame, rows) pair of int arrays that
    the package hands on, as one list of rows per frame 0..count-1 (count:
    frame[-1] + 1, or 0 for empty arrays). Asserts that the arrays are
    frame-major with rows ascending within a frame."""
    frame, rows = np.asarray(frame), np.asarray(rows)
    assert frame.dtype.kind == rows.dtype.kind == "i" and frame.shape == rows.shape
    assert frame.ndim == 1 and (frame >= 0).all() and (rows >= 0).all()
    step = np.diff(frame)
    assert ((step > 0) | ((step == 0) & (np.diff(rows) > 0))).all(), \
        "not frame-major with rows ascending"
    if count is None:
        count = int(frame[-1]) + 1 if frame.size else 0
    assert not frame.size or frame[-1] < count
    return [rows[frame == u].tolist() for u in range(count)]


def frame_trees(g, root, frame, rows, count=None) -> list:
    """frame_rows' lists as one Arborescence of g toward root per frame."""
    return [Arborescence(g, u, root, tuple(r))
            for u, r in enumerate(frame_rows(frame, rows, count))]


class OracleSizeLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


def bellman_ford(num_nodes, edges, source):
    """Shortest-path distances by repeated edge relaxation."""
    dist = [math.inf] * num_nodes
    dist[source] = 0.0
    for _ in range(num_nodes - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def _fewest_hop_rows(g, tight, root):
    """{node: (row, head)}: each node's tight out-row whose head has the
    fewest tight rows to root, then the lowest head id; tight holds one
    frame's tight rows, ascending."""
    src, dst = g.src[tight].tolist(), g.dst[tight].tolist()
    into = {}
    for s, d in zip(src, dst):
        into.setdefault(d, []).append(s)
    depth = {root: 0}   # breadth-first from the root over the tight rows
    level = [root]
    while level:
        below = []
        for d in level:
            for s in into.get(d, ()):
                if s not in depth:
                    depth[s] = depth[d] + 1
                    below.append(s)
        level = below
    best = {}
    # Rows are (src, dst)-sorted, so each tail meets its heads in ascending
    # order and keeps the first of the fewest hops.
    for r, s, d in zip(tight.tolist(), src, dst):
        if d in depth and (s not in best or depth[d] < depth[best[s][1]]):
            best[s] = (r, d)
    return best


def paths_to_root(g, u, terminals, root):
    """The sorted edge rows on the union of every terminal's shortest path
    to root at frame u; terminals that cannot reach root raise
    RoutingInfeasibleError listing them. `routing.path_plans` must give
    these rows, plus root's uplink row, for every frame before the first
    that raises here.

    Distances come from Bellman-Ford over the reversed edges. A row is
    tight when w + dist[dst] == dist[src] in float. Each terminal's walk
    follows a node's only tight out-row; the first time a walk meets a
    node with two or more, every node switches to the one whose head has
    the fewest tight rows to root, then the lowest head id. A walk stops
    at the first node of an earlier walk.
    """
    w = g.weights_j[u]
    reversed_edges = list(zip(g.dst.tolist(), g.src.tolist(), w.tolist()))
    dist = np.array(bellman_ford(g.num_nodes, reversed_edges, root))
    terms = [t for t in sorted(set(terminals)) if t != root]
    missing = [t for t in terms if dist[t] == math.inf]
    if missing:
        raise RoutingInfeasibleError(missing, what="terminal")
    tight = np.flatnonzero(w + dist[g.dst] == dist[g.src])
    src, dst = g.src[tight].tolist(), g.dst[tight].tolist()
    out = {s: (r, d) for r, s, d in zip(tight.tolist(), src, dst)}
    tied = {s for s, k in Counter(src).items() if k > 1}
    ties_broken = False
    done = {root}   # the root and the walked nodes
    for t in terms:
        x = t
        while x not in done:
            if x in tied and not ties_broken:
                out.update(_fewest_hop_rows(g, tight, root))
                ties_broken = True
            done.add(x)
            x = out[x][1]
    return sorted(out[y][0] for y in done - {root})


def enumerate_min_arborescence(edges, root, nodes):
    """Minimum spanning in-arborescence cost by exhaustive enumeration.

    Every non-root node picks one outgoing (child -> parent) edge; a choice
    set is valid when following parents from any node reaches the root
    without revisiting. Branches are pruned on partial cost and on cycles.
    Returns the minimum cost, or None when no spanning arborescence exists.
    """
    nodes = sorted(set(nodes))
    out = {v: [] for v in nodes}
    for u, v, w in edges:
        if u in out and v in out and u != root:
            out[u].append((v, w))
    non_root = [v for v in nodes if v != root]
    choice = {}
    best = [math.inf]

    def acyclic_through(v):
        seen = set()
        x = v
        while x != root and x in choice:
            if x in seen:
                return False
            seen.add(x)
            x = choice[x]
        return True

    def rec(i, cost):
        if cost >= best[0]:
            return
        if i == len(non_root):
            best[0] = cost
            return
        v = non_root[i]
        for p, w in out[v]:
            choice[v] = p
            if acyclic_through(v):
                rec(i + 1, cost + w)
            del choice[v]

    rec(0, 0.0)
    return best[0] if math.isfinite(best[0]) else None


def exact_dst_oracle(g, terminals, root, u=0, max_nodes=12):
    """Exact minimum directed Steiner tree cost toward root at frame u.

    Every subset of the Steiner (non-terminal) nodes is scored with
    enumerate_min_arborescence on the terminals, the root and the subset,
    and the cheapest is the optimum. Only viable for tiny instances: more
    than max_nodes nodes on the graph's edges raise OracleSizeLimitError.
    """
    src, dst = g.src.tolist(), g.dst.tolist()
    edges = list(zip(src, dst, g.weights_j[u].tolist()))
    active = set(src) | set(dst) | {root}
    if len(active) > max_nodes:
        raise OracleSizeLimitError(
            f"{len(active)} nodes exceed the {max_nodes}-node enumeration limit")
    terminals = set(terminals) | {root}
    candidates = sorted(active - terminals)
    best = math.inf
    for mask in range(1 << len(candidates)):
        chosen = {candidates[i] for i in range(len(candidates)) if mask >> i & 1}
        cost = enumerate_min_arborescence(edges, root, terminals | chosen)
        if cost is not None and cost < best:
            best = cost
    if not math.isfinite(best):
        raise RoutingInfeasibleError(sorted(terminals - {root}), what="terminal")
    return best


def _msa_rows(src, dst, w, root, nodes) -> dict:
    """{node: position k of its out-row} in an exact minimum spanning
    arborescence of nodes (which hold root) toward root over the rows
    src[k] -> dst[k] of weight w[k], (src, dst)-sorted and within nodes.

    Chu-Liu/Edmonds in data-flow orientation. Each level picks every
    non-root node's cheapest out-row, ties to the lower original
    (head, tail) pair: a level lists its rows in that order for each tail,
    which at level 0 is row order, and keeps the first of equal weights.
    If following the picks leads every node to the root, they are optimal.
    Otherwise the nodes that cannot reach the root raise
    RoutingInfeasibleError; with none, the first cycle met scanning the
    nodes in ascending order becomes a supernode with an id above every
    node, and the next level solves the contracted rows, sorted by their
    original (head, tail) pair: rows leaving the cycle lose their tail's
    picked weight, rows entering it keep theirs, and rows inside it drop.
    Expanding a level keeps every cycle node's pick except the tail of the
    supernode's chosen exit row, which takes that row.
    """
    pos, tails, heads, levels = range(len(src)), src, dst, []
    while True:
        best = {}
        for k, s in enumerate(tails):
            if s not in best or w[k] < w[best[s]]:
                best[s] = k
        best.pop(root, None)
        reaches = {root: True}   # False: on the walk in progress
        for v in sorted(nodes):
            walk = []
            while v not in reaches and v in best:
                reaches[v] = False
                walk.append(v)
                v = heads[best[v]]
            if not reaches.get(v, False):
                break
            for x in walk:
                reaches[x] = True
        else:
            break
        if not levels:
            into = {}
            for i, j in zip(src, dst):
                into.setdefault(j, []).append(i)
            reach, stack = {root}, [root]
            while stack:
                for x in into.get(stack.pop(), ()):
                    if x not in reach:
                        reach.add(x)
                        stack.append(x)
            if nodes - reach:
                raise RoutingInfeasibleError(nodes - reach)
        cycle = set(walk[walk.index(v):])
        c = max(nodes) + 1
        keep = sorted((k for k, (i, j) in enumerate(zip(tails, heads))
                       if i not in cycle or j not in cycle),
                      key=lambda k: (dst[pos[k]], src[pos[k]]))
        levels.append((c, keep, {v: best[v] for v in cycle}, tails))
        w = [w[k] - w[best[tails[k]]] if tails[k] in cycle else w[k] for k in keep]
        pos = [pos[k] for k in keep]
        tails, heads = ([c if x[k] in cycle else x[k] for k in keep] for x in (tails, heads))
        nodes = nodes - cycle | {c}
    # Level positions map back through each level's kept rows.
    for c, keep, picks, tails in reversed(levels):
        k = keep[best.pop(c)]
        best = {v: keep[p] for v, p in best.items()}
        best.update(picks)
        best[tails[k]] = k
    return best


def taeer(g, u, terminals, root, rows):
    """TAEER for one frame: the exact minimum spanning arborescence of the
    sorted edge rows at frame u (`_msa_rows`), with non-terminal
    leaves pruned away one at a time to a fixpoint. `routing.taeer_round`
    must give, for every frame, the rows this gives, or raise the
    RoutingInfeasibleError this raises first in frame order."""
    if root != g.geo_node and root not in terminals:
        raise ValueError("root must be a terminal or the graph's relay")
    idx = np.array(rows, dtype=np.intp)
    src, dst, w = g.src[idx].tolist(), g.dst[idx].tolist(), g.weights_j[u, idx].tolist()
    out_row = _msa_rows(src, dst, w, root, set(src) | set(dst) | {root})
    term = set(terminals)
    into = Counter(dst[k] for k in out_row.values())
    leaves = [v for v in out_row if not into[v] and v not in term]
    while leaves:
        p = dst[out_row.pop(leaves.pop())]
        into[p] -= 1
        if not into[p] and p not in term and p in out_row:
            leaves.append(p)
    return Arborescence(g, u, root, tuple(rows[k] for k in sorted(out_row.values())))


def validate_tree(tree, terminals=None) -> None:
    """Raise AssertionError if the Arborescence tree violates an
    arborescence invariant: the root transmits, a node has two out-rows,
    a node does not reach the root, or (with terminals) a terminal is
    missing or a leaf is not a terminal."""
    out_edge = {}
    for c, p in tree.edges:
        assert c != tree.root, "root must not transmit"
        assert c not in out_edge, f"node {c} has two outgoing edges"
        out_edge[c] = p
    for c in out_edge:
        seen = set()
        v = c
        while v != tree.root:
            assert v in out_edge, f"node {v} does not reach the root"
            assert v not in seen, f"cycle through node {v}"
            seen.add(v)
            v = out_edge[v]
    if terminals is not None:
        term = set(terminals)
        parents = set(out_edge.values())
        nodes = {tree.root, *out_edge, *parents}
        assert term <= nodes, "tree does not cover all terminals"
        for v in nodes - parents - {tree.root}:
            assert v in term, f"leaf {v} is not a terminal"


@dataclass(frozen=True)
class LocalTask:
    """One device's regression task and its aggregation weight: a device
    of `hierfl.DeviceStack` on its own."""

    features: np.ndarray        # (samples, dim)
    targets: np.ndarray         # (samples,)
    weight: float               # aggregation weight lambda

    def loss(self, x: np.ndarray) -> float:
        r = self.features @ x - self.targets
        return 0.5 * float(r @ r)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.features.T @ (self.features @ x - self.targets)


def local_tasks(stack):
    """The devices of a `hierfl.DeviceStack` as LocalTasks, in device order."""
    return [LocalTask(a, b, float(w))
            for a, b, w in zip(stack.features, stack.targets, stack.weights)]


def make_tasks(weights, settings, rng):
    """Per-device form of `hierfl.make_synthetic_tasks`: one normal draw
    per array, device after device, each device's data its own arrays."""
    dim, samples = settings.dim, settings.samples_per_device
    w_star = rng.standard_normal(dim)
    tasks = []
    for weight in weights:
        w_i = w_star + settings.heterogeneity * rng.standard_normal(dim)
        a = rng.standard_normal((samples, dim)) / math.sqrt(samples)
        b = a @ w_i + settings.noise_std * rng.standard_normal(samples)
        tasks.append(LocalTask(features=a, targets=b, weight=weight))
    return tasks


def local_update(task, global_model, settings, rng=None):
    """One device's settings.local_steps steps of mini-batch SGD from the
    global model, each step drawing its batch just before it trains;
    returns the delta x_final - x_initial. `hierfl.local_update` must give
    every device's delta, and leave the generator, as calling this device
    after device does."""
    n = task.features.shape[0]
    full_batch = settings.batch_size >= n
    if not full_batch and rng is None:
        raise ValueError("mini-batch updates need an rng")
    x = np.array(global_model, dtype=float)
    for _ in range(settings.local_steps):
        if full_batch:
            g = task.gradient(x)
        else:
            idx = rng.choice(n, size=settings.batch_size, replace=False)
            a, b = task.features[idx], task.targets[idx]
            g = (n / settings.batch_size) * (a.T @ (a @ x - b))
        x -= settings.learning_rate * g
    return x - np.asarray(global_model, dtype=float)


def global_loss(tasks, x):
    """Weighted sum of the task losses, added left to right."""
    total = 0.0
    for t in tasks:
        total += t.weight * t.loss(x)
    return total


def global_gradient(tasks, x):
    """Weighted sum of the task gradients, added left to right."""
    g = np.zeros_like(np.asarray(x, dtype=float))
    for t in tasks:
        g += t.weight * t.gradient(x)
    return g


def smoothness_constant(tasks):
    """Largest curvature among the task objectives and the global one."""
    hessians = [t.features.T @ t.features for t in tasks]
    l_local = max(float(np.linalg.eigvalsh(h)[-1]) for h in hessians)
    h_global = sum(t.weight * h for t, h in zip(tasks, hessians))
    return max(l_local, float(np.linalg.eigvalsh(h_global)[-1]))


def train_per_device(tasks, failed, settings, rng):
    """Federated rounds trained device after device: every device's
    local_update in device order, the weighted deltas added left to right
    unless the round's flag in failed is true, then the loss and gradient
    norm; [(round, global_loss, grad_norm)] as `hierfl.run_training`."""
    x = np.zeros(tasks[0].features.shape[1])
    trace = []
    for t, dropped in enumerate(failed):
        deltas = [local_update(task, x, settings, rng) for task in tasks]
        if not dropped:
            acc = 0.0
            for task, delta in zip(tasks, deltas):
                acc = acc + task.weight * delta
            x = x + acc
        trace.append((t, global_loss(tasks, x),
                      float(np.linalg.norm(global_gradient(tasks, x)))))
    return trace


def centralized_gd(stack, rounds, learning_rate):
    """Full-gradient descent on the global objective of a
    `hierfl.DeviceStack` from the zero model; the reference the federated
    trajectory is compared against. Returns [(round, global_loss,
    grad_norm)] after each step."""
    tasks = local_tasks(stack)
    x = np.zeros(stack.dim)
    trace = []
    for t in range(rounds):
        x = x - learning_rate * global_gradient(tasks, x)
        trace.append((t, global_loss(tasks, x),
                      float(np.linalg.norm(global_gradient(tasks, x)))))
    return trace


def sample_attempts_per_edge(rng, gamma0_value, params, max_attempts):
    """Transmission attempts for one frame on one edge, drawing one scalar
    normal per attempt: the per-edge loop whose draws, row after row, the
    simulator's frame-level sample_attempts must reproduce exactly.

    An attempt fails when the pointing loss exp(-G0 * (sigma_p * z)^2) of
    its draw z drops below gamma0. Returns (attempts, success); success is
    False when max_attempts all failed.
    """
    if gamma0_value >= 1.0:
        return max_attempts, False
    if gamma0_value <= 0.0:
        return 1, True
    z2_max = -math.log(gamma0_value) / (params.g0 * params.sigma_p_rad ** 2)
    for k in range(1, max_attempts + 1):
        z = rng.standard_normal()
        if z * z <= z2_max:
            return k, True
    return max_attempts, False


def pointing_loss_pdf(theta, params):
    """Density of the random pointing loss at theta in (0, 1):
    sqrt(c/pi) * x^(c-1) / sqrt(-ln x) with c = 1/(2*G0*sigma_p^2), the
    exponent of the pointing-loss power-law CDF."""
    x = np.asarray(theta, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("pointing loss density is defined on (0, 1)")
    c = 1.0 / (2.0 * params.g0 * params.sigma_p_rad ** 2)
    return math.sqrt(c / math.pi) * x ** (c - 1.0) / np.sqrt(-np.log(x))


def pointing_pdf_quadrature(pdf, upper, abs_tol=1e-9):
    """Integral of a density over (0, upper) with integrable endpoint
    singularities; endpoints evaluate to 0 so QUADPACK's extrapolation can
    handle the divergence."""

    def safe(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return pdf(x)

    val, err = integrate.quad(safe, 0.0, upper, epsabs=abs_tol, limit=300)
    return val, err


def pointing_pdf_quadrature_logspace(pdf, upper, abs_tol=1e-9):
    """Same integral evaluated under the exact substitution x = exp(-y),
    which unwinds the x -> 1 singularity; robust when the density is sharply
    concentrated (large power-law exponents)."""

    def g(y):
        x = math.exp(-y)
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return pdf(x) * x

    y0 = -math.log(upper) if upper < 1.0 else 0.0
    val, err = integrate.quad(g, y0, math.inf, epsabs=abs_tol, limit=300)
    return val, err


def nearest_in_orbit(from_pos, orbit_positions):
    """Index (slot) and distance of the closest satellite in another orbit.

    Ties resolve to the lowest slot index (argmin keeps the first minimum).
    """
    d = np.linalg.norm(orbit_positions - from_pos, axis=1)
    k = int(np.argmin(d))
    return k, float(d[k])


def isl_feasible(spec, pos, a, b):
    """Whether satellite a may open a laser ISL toward satellite b; a and b
    are rows of pos, the (total_sats, 3) positions of one epoch.

    Same orbit: only ring-adjacent slots (an intermediate satellite blocks
    the line). Different orbits: the Euclidean distance must not exceed the
    communication radius and b must be a's nearest satellite within b's
    orbit. geometry.feasible_isl_pairs is this rule in either direction,
    batched.
    """
    if a == b:
        raise ValueError("b must be a satellite other than a")
    s = spec.sats_per_orbit
    (na, ka), (nb, kb) = divmod(a, s), divmod(b, s)
    if na == nb:
        return abs(ka - kb) in (1, s - 1)
    if float(np.linalg.norm(pos[a] - pos[b])) > geometry.comm_radius_km(spec.altitude_km):
        return False
    return nearest_in_orbit(pos[a], pos[nb * s:(nb + 1) * s])[0] == kb


def nearest_in_orbit_pairs(spec, pos):
    """The ISL pairs of one epoch by the per-satellite nearest-in-orbit
    rule, as a (k, 2) int array of rows (i, j), i < j, in ascending order:
    the ring of adjacent slots, and for each satellite and each other orbit
    the nearest satellite of that orbit, if it lies within the
    communication radius. geometry.feasible_isl_pairs must return exactly
    these.

    pos holds the (total_sats, 3) positions of one epoch. Every satellite's
    distances to every satellite come from np.linalg.norm, 64 satellites
    per call: the row of orbit m holds, element for element, what
    nearest_in_orbit computes for that orbit, and argmin keeps the first
    minimum, the lowest slot.
    """
    p, s, total = spec.num_orbits, spec.sats_per_orbit, spec.total_sats
    radius = geometry.comm_radius_km(spec.altitude_km)
    ends = []   # (satellite, the satellite it links to)
    if s >= 2:
        ring = np.arange(total)
        ends.append((ring, ring - ring % s + (ring + 1) % s))
    for lo in range(0, total, 64):
        rows = np.arange(lo, min(total, lo + 64))
        d = np.linalg.norm(pos - pos[rows, None], axis=2).reshape(rows.size, p, s)
        slot = d.argmin(axis=2)
        chosen = ((np.take_along_axis(d, slot[..., None], 2)[..., 0] <= radius)
                  & (np.arange(p) != rows[:, None] // s))
        k, m = np.nonzero(chosen)
        ends.append((rows[k], m * s + slot[k, m]))
    if not ends:
        return np.empty((0, 2), dtype=np.intp)
    i, j = (np.concatenate(e) for e in zip(*ends))
    keys = np.unique(np.minimum(i, j) * total + np.maximum(i, j))
    return np.stack([keys // total, keys % total], axis=1)
