"""Aggregation-tree routing: shortest paths, minimum spanning arborescence,
and the three tree-building algorithms compared by the simulator.

All trees use data-flow orientation: an edge (child, parent) means the child
transmits toward the root, so every non-root tree node has exactly one
outgoing edge. The arborescence solver (`_msa`) picks each node's cheapest
outgoing edge and returns those edges when they already lead every node to
the root; when they form cycles, it contracts every cycle at once and
solves the smaller graph the same way (Chu-Liu/Edmonds, without reversing
any edge). It solves all frames of a round in one call, level by level.

Ties are broken by fixed rules everywhere (a tied next hop by its head's
hop count to the root, then by node id; a tied arborescence pick by the
lower original (head, tail) pair, and supernodes numbered by their cycles'
least members) so identical inputs always produce identical trees.

A round's shortest paths (`path_plans`) are found in two stages: every
node's distance to the root in every frame, as one (nodes x frames) array,
then every frame's rows read off that array in one batched pass. Frame 0's
distances are always a heap search (Dijkstra on Python lists). When its
tree is fewer rows deep than the slot has frames, the other frames are
solved together by Bellman-Ford sweeps over (rows x frames) arrays, each
sweep costing about one heap search of one frame on 80 satellites;
otherwise each frame is a heap search that starts from the previous
frame's tree. Both give bit-identical distances. The shipped 80-satellite
shells (11-13 rows deep, 25 frames) take the sweeps; 800 satellites
(44-48 rows deep) and slots of few frames take the heap.
"""
import heapq
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .topology import SnapshotGraph, ordered_sum

class RoutingInfeasibleError(RuntimeError):
    """A required node cannot reach the root through the graph."""

    def __init__(self, stranded, what="node"):
        self.stranded = sorted(int(v) for v in stranded)
        super().__init__(f"{what}(s) cannot reach the root: {self.stranded}")


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


def shortest_path_csr(indptr, indices, weights, source, start=None):
    """Single-source shortest paths on a CSR digraph with weights >= 0,
    given as lists (`SnapshotGraph.frame_reverse_csr`).

    Returns (dist, pred) arrays, float64 and int32; pred[v] = -1 for the
    source and unreached nodes. Heap entries are (distance, node) so cost
    ties pop in ascending node order, and predecessors update only on strict
    improvement. The loop runs on lists: indexing a list is several times
    faster than indexing an array, and Python float addition rounds exactly
    as float64 addition does.

    start = (dist, pred, seeds) replaces the cold start from the source with
    lists that the search updates in place: every finite dist[v] is the
    float sum along a path from the source through pred, every other entry
    is +inf with pred -1, and seeds lists the nodes with an out-edge that
    improves a label. The loop then relaxes from the seeds until no edge
    improves a label. Any float path sum bounds the cold search's label from
    above, and the cold labels satisfy dist[v] = min over in-edges of
    dist[x] + w, so both starts end with bit-identical distances.
    """
    if start is None:
        n = len(indptr) - 1
        dist = [math.inf] * n
        pred = [-1] * n
        dist[source] = 0.0
        heap = [(0.0, source)]
    else:
        dist, pred, seeds = start
        heap = [(dist[x], x) for x in seeds]
        heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
    return np.array(dist, dtype=float), np.array(pred, dtype=np.int32)


def _warm_start(g: SnapshotGraph, w: np.ndarray, root: int, rows: np.ndarray) -> tuple:
    """(dist, pred, seeds) for `shortest_path_csr` on the frame weights w
    from the tight rows of another frame's tree: in the stored order, each
    row's tail takes its head's label plus the row's weight, so every finite
    label is the float sum along a real path. A tail listed before its head
    (possible only at equal distance, over a zero-weight or
    rounding-absorbed row) keeps +inf, and so does every label whose path
    crosses such a node or a +inf row. The seeds are the nodes with an edge
    that improves a label, found in one pass over all rows; the search from
    them lowers every label to the cold search's."""
    dist = [math.inf] * g.num_nodes
    pred = [-1] * g.num_nodes
    dist[root] = 0.0
    for v, x, wv in zip(g.src[rows].tolist(), g.dst[rows].tolist(), w[rows].tolist()):
        d = dist[x] + wv
        if d < math.inf:
            dist[v] = d
            pred[v] = x
    to_root = np.array(dist)
    improves = w + np.take(to_root, g.dst) < np.take(to_root, g.src)
    seeds = np.zeros(g.num_nodes, dtype=bool)
    seeds[g.dst[improves]] = True
    return dist, pred, np.flatnonzero(seeds).tolist()


def shortest_paths_to_root(g: SnapshotGraph, u: int, root: int, warm=None) -> tuple:
    """(dist, warm): every node's distance to root at frame u (+inf:
    unreached), from one heap search from the root over the reversed edges,
    and what the next frame's search starts from.

    warm is the int array of one tight out-row (w + dist[dst] == dist[src]
    in float) of every reached non-root node, its only one unless the node
    is tied, in ascending distance order, ties by node id, from the last
    frame of g searched toward root (None: no such frame). A slot fixes the
    topology and only the weights drift between frames, so the search
    starts from that tree (`_warm_start`); the distances are bit-identical
    to a cold search's.
    """
    w = g.weights_j[u]
    start = None if warm is None else _warm_start(g, w, root, warm)
    dist, _ = shortest_path_csr(*g.frame_reverse_csr(u), root, start=start)
    tight = np.flatnonzero(w + np.take(dist, g.dst) == np.take(dist, g.src))
    hop = np.zeros(g.num_nodes, dtype=np.intp)
    hop[g.src[tight]] = tight
    # Unreached nodes (+inf) sort last.
    order = np.argsort(dist, kind="stable")[:np.count_nonzero(dist < math.inf)]
    return dist, hop[order[order != root]]


def _tree_depth(g: SnapshotGraph, warm: np.ndarray) -> int:
    """The most rows on any node's path to the root along the warm rows of
    `shortest_paths_to_root`, counted in their stored order: a tail listed
    before its head (at equal distance) counts from its head's count so
    far."""
    hops = [0] * g.num_nodes
    for v, x in zip(g.src[warm].tolist(), g.dst[warm].tolist()):
        hops[v] = hops[x] + 1
    return max(hops)


def _sweep_distances(g: SnapshotGraph, root: int, w: np.ndarray) -> np.ndarray:
    """Every node's distance to root in every frame of w, a (rows x frames)
    weight array of g's rows, as a (nodes x frames) array (+inf:
    unreached), from label-correcting sweeps over all the frames at once.

    Labels start at +inf but for root's 0. Each sweep takes the rows whose
    head's label dropped in any frame in the last sweep (at first, the rows
    into root), adds their weights to their heads' labels, and keeps each
    tail's least candidate per frame where it is below the tail's label
    (`np.fmin`, so a NaN row never relaxes, as in the heap search). Rows
    out of root are left out, which pins it at 0. The sweeps stop when no
    label drops: then no row improves a label, which is where the heap
    search stops too, and every label is a float path sum, so the
    distances are bit-identical to its (the fixpoint argument of
    `shortest_path_csr`). A node with a shortest path of d rows in a frame
    has its final label there after d sweeps.
    """
    src, dst = g.src, g.dst
    dist = np.full((g.num_nodes, w.shape[1]), math.inf)
    dist[root] = 0.0
    dropped = np.zeros(g.num_nodes, dtype=bool)
    dropped[root] = True
    relaxes = src != root
    while True:
        rows = np.flatnonzero(dropped[dst] & relaxes)
        if not rows.size:
            return dist
        tails = src[rows]   # ascending: rows are (src, dst)-sorted
        first = np.ones(rows.size, dtype=bool)
        np.not_equal(tails[1:], tails[:-1], out=first[1:])
        first = np.flatnonzero(first)
        best = np.fmin.reduceat(w[rows] + dist[dst[rows]], first, axis=0)
        tails = tails[first]
        old = dist[tails]
        better = best < old
        dist[tails] = np.where(better, best, old)
        dropped[:] = False
        dropped[tails[better.any(axis=1)]] = True


def _walk(dst: np.ndarray, hop: np.ndarray, terms: list, root: int) -> np.ndarray:
    """The nodes met by the terminals' walks to root, as a (nodes x frames)
    bool array without root: each walk follows hop, one out-row per (node,
    frame), and stops at root or at a node an earlier walk met."""
    n, count = hop.shape
    frames = np.arange(count)
    seen = np.zeros(n * count, dtype=bool)   # node v of frame f is v * count + f
    seen[root * count + frames] = True
    walk = (np.array(terms, dtype=np.intp)[:, None] * count + frames).ravel()
    hop = hop.ravel()
    while walk.size:
        seen[walk] = True
        heads = dst[hop[walk]] * count + walk % count
        walk = heads[~seen[heads]]
    seen[root * count + frames] = False
    return seen.reshape(n, count)


def _fewest_hops(g: SnapshotGraph, tight: np.ndarray, root: int,
                 hop: np.ndarray) -> np.ndarray:
    """hop, a (nodes x frames) array of one tight out-row per (node, frame),
    with every node pointed at its tight out-row whose head has the fewest
    tight rows to root, then the lowest head id; tight is the frames'
    (rows x frames) tight mask. A node with one tight out-row keeps it. A
    node's hop count is one more than its chosen head's, so no walk along
    the chosen rows can cycle, even over zero-weight rows."""
    n, count = hop.shape
    rows, frames = np.divmod(np.flatnonzero(tight), count)
    tails = g.src[rows] * count + frames
    heads = g.dst[rows] * count + frames
    depth = np.full(n * count, -1)
    depth[root * count + np.arange(count)] = 0
    level = 0   # breadth-first from root over the tight rows, all frames at once
    while True:
        below = tails[(depth[heads] == level) & (depth[tails] < 0)]
        if not below.size:
            break
        level += 1
        depth[below] = level
    hops = depth[heads]
    # Rows are (src, dst)-sorted and lexsort is stable, so each tail meets
    # its heads in ascending order and keeps the first of the fewest hops.
    kept = np.flatnonzero(hops >= 0)
    order = kept[np.lexsort((hops[kept], tails[kept]))]
    first = np.ones(order.size, dtype=bool)
    first[1:] = tails[order[1:]] != tails[order[:-1]]
    hop = hop.ravel()
    hop[tails[order[first]]] = rows[order[first]]
    return hop.reshape(n, count)


def _read_plans(g: SnapshotGraph, w: np.ndarray, dist: np.ndarray, terms: list,
                root: int, uplink: int) -> list:
    """Per frame, the sorted rows of the terminals' shortest paths to root
    with root's uplink row, read off dist, every node's distance to root
    as a (nodes x frames) array, under the (rows x frames) weights w.

    A row is tight when w + dist[dst] == dist[src] in float. Each
    terminal's path follows one tight row out of every node by a fixed
    rule: a node with one tight out-row takes it, and in a frame whose
    walks meet a tied node, with two or more, every node takes the one
    `_fewest_hops` picks and the frame is walked again. The rows are then
    a function of the distances alone, and their union is a tree toward
    root: the rows out of the walked nodes. All frames are read at once.
    """
    src, dst = g.src, g.dst
    n, e = g.num_nodes, g.num_edges
    count = dist.shape[1]
    # inf == inf makes rows out of unreached nodes tight; no walk meets one,
    # since a tight row out of a reached node has a reached head.
    tight = w + np.take(dist, dst, axis=0) == np.take(dist, src, axis=0)
    tight_rows, tight_frames = np.divmod(np.flatnonzero(tight), count)
    hop = np.zeros((n, count), dtype=np.intp)
    hop[src[tight_rows], tight_frames] = tight_rows
    tied = np.bincount(src[tight_rows] * count + tight_frames,
                       minlength=n * count).reshape(n, count) > 1
    on = _walk(dst, hop, terms, root)
    redo = np.flatnonzero((on & tied).any(axis=0))
    if redo.size:
        hop[:, redo] = _fewest_hops(g, tight[:, redo], root, hop[:, redo])
        on[:, redo] = _walk(dst, hop[:, redo], terms, root)
    # Frame-major keys f * e + row sort each frame's rows, root's uplink
    # row among them.
    f, v = np.nonzero(on.T)
    keys = np.concatenate((f * e + hop[v, f], np.arange(count) * e + uplink))
    keys.sort()
    flat = (keys % e).tolist()
    ends = np.cumsum(np.bincount(keys // e, minlength=count)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def path_plans(g: SnapshotGraph, terminals, root: int) -> list:
    """The path routers' plans of a round toward root, a terminal with a
    GEO uplink: per frame of g, the sorted rows of the terminals' shortest
    paths to root with root's uplink row (`_read_plans`). The plans stop
    before the first frame with a terminal that cannot reach root. Raises
    ValueError when g has no GEO relay.

    Every node's distance to root in every frame is found first, as one
    (nodes x frames) array that reads no terminal; the frames' rows up to
    the stop are then read off it at once. Frame 0 is a cold heap search
    (`shortest_paths_to_root`). Its tree's depth, the most rows on a
    node's path to root, picks how the other frames are solved:
    - depth below the frame count: all of them together by array sweeps
      (`_sweep_distances`), one sweep per row of depth, each over every
      frame;
    - otherwise: one heap search per frame, each starting from the
      previous frame's tree.
    Both give the same distances. A sweep over all frames costs about one
    heap search of one frame on 80 satellites, and more on larger shells.
    The rule picked the faster method at every shell size and frame count
    measured but 200 satellites, where the two were within 4% of each
    other (README, Performance).
    """
    uplink = int(_uplink_rows(g, root))
    terms = [t for t in sorted(set(terminals)) if t != root]
    dist, warm = shortest_paths_to_root(g, 0, root)
    if _tree_depth(g, warm) < g.frame_count:
        w = np.ascontiguousarray(g.weights_j[1:].T)   # (rows, frames)
        dist = np.column_stack((dist, _sweep_distances(g, root, w)))
    else:
        columns = [dist]
        for u in range(1, g.frame_count):
            dist, warm = shortest_paths_to_root(g, u, root, warm)
            columns.append(dist)
        dist = np.column_stack(columns)
    stranded = np.flatnonzero((dist[terms] == math.inf).any(axis=0))
    count = int(stranded[0]) if stranded.size else dist.shape[1]
    return _read_plans(g, g.weights_j[:count].T, dist[:, :count], terms, root, uplink)


def _msa(tail, head, w, roots, span, n) -> np.ndarray:
    """Each spanned non-root node's row k in an exact minimum spanning
    arborescence of its plan, for every plan at once: Chu-Liu/Edmonds in
    data-flow orientation, level by level over all plans.

    Node v of plan i is id i * n + v, and roots holds each plan's root.
    The rows tail[k] -> head[k] of weight w[k] are (tail, head)-sorted, and
    both ends lie in span, a bool array over the ids that holds the roots.

    Each level picks every non-root node's cheapest out-row: a node lists
    its rows in original (head, tail) order, which at the first level is
    row order, and takes the first of least weight (a NaN first weight
    stays, a later NaN never wins). At the first level, spanned nodes that
    cannot reach their root over any row raise RoutingInfeasibleError with
    the first such plan's nodes. When the picks lead every node to its
    root, they are optimal. Otherwise every cycle of picks contracts at
    once: its members are the image of the next-pick pointers doubled past
    any walk's length, and each cycle, labelled by its least member,
    becomes a supernode with an id above every id, numbered in label
    order. Rows inside a cycle drop, rows leaving it lose their tail's
    picked weight, and rows entering it keep theirs. Expanding a level
    keeps every member's pick except the tail of the supernode's chosen
    exit row, which takes that row.
    """
    bits, top = n.bit_length(), span.size
    is_root = np.zeros(top, dtype=bool)
    is_root[roots] = True
    t, h, x, pos = tail, head, w, np.arange(tail.size)
    levels = []
    while True:
        if levels:
            order = np.lexsort((tail[pos], head[pos], t))
            t, h, x, pos = t[order], h[order], x[order], pos[order]
        start = np.ones(t.size, dtype=bool)
        np.not_equal(t[1:], t[:-1], out=start[1:])
        starts = np.flatnonzero(start)
        least = np.fmin.reduceat(x, starts)
        hit = x == np.repeat(least, np.diff(starts, append=t.size))
        hit[starts] |= np.isnan(x[starts])
        hits = np.flatnonzero(hit)
        group = np.cumsum(start)[hits]
        picked = hits[np.diff(group, prepend=0) != 0]
        picked = picked[~is_root[t[picked]]]
        # Each pick's next pick, out of its head: k for a root and k + 1 for
        # a node without an out-row. Doubling the steps past any walk's
        # length leaves k where the picks lead to the root, and a cycle's
        # picks elsewhere.
        k = picked.size
        at = np.full(top, k + 1)
        at[t[picked]] = np.arange(k)
        at[roots] = k
        step = np.append(at[h[picked]], [k, k + 1])
        for _ in range(bits):
            jump = step[step]
            if (jump == step).all():
                break
            step = jump
        ends = step[:k]
        cyclic = (ends < k).any()   # some walk of picks ends on a cycle
        if not levels:
            nodes = t[picked]   # every spanned non-root node, unless one is stranded
            if cyclic or k < np.count_nonzero(span) - roots.size:
                reached = is_root.copy()   # breadth-first from the roots against the rows
                while True:
                    grow = reached[head] & ~reached[tail]
                    if not grow.any():
                        break
                    reached[tail[grow]] = True
                stranded = np.flatnonzero(span & ~reached)
                if stranded.size:
                    first = stranded // n == stranded[0] // n
                    raise RoutingInfeasibleError(stranded[first] % n)
        if not cyclic:
            break
        ring = np.zeros(k + 2, dtype=bool)
        ring[ends] = True
        ring = np.flatnonzero(ring[:k])
        # Label each cycle by its least member: doubling again, with the
        # least id met so far along each member's walk.
        members = t[picked[ring]]
        label, nxt = members, np.searchsorted(members, h[picked[ring]])
        for _ in range(bits):
            label, nxt = np.minimum(label, label[nxt]), nxt[nxt]
        is_label = label == members
        supers = top + np.arange(np.count_nonzero(is_label))
        level_tail = np.empty(tail.size, dtype=np.intp)
        level_tail[pos] = t
        levels.append((members, pos[picked[ring]], supers, level_tail))
        lost = np.zeros(top)
        lost[members] = x[picked[ring]]
        new = np.arange(top)
        new[members] = top - 1 + np.cumsum(is_label)[np.searchsorted(members, label)]
        with np.errstate(invalid="ignore"):   # inf - inf out of a cycle of +inf picks
            x = x - lost[t]
        t, h = new[t], new[h]
        keep = t != h
        t, h, x, pos = t[keep], h[keep], x[keep], pos[keep]
        top += supers.size
        is_root = np.append(is_root, np.zeros(supers.size, dtype=bool))
    choice = np.empty(top, dtype=np.intp)
    choice[t[picked]] = pos[picked]
    for members, picks, supers, level_tail in reversed(levels):
        exits = choice[supers]
        choice[members] = picks
        choice[level_tail[exits]] = exits
    return choice[nodes]


def taeer_round(g: SnapshotGraph, terminals, root: int, plans) -> list:
    """Topology-aware energy-efficient routing for a round: one tree per
    frame, frame u's from plans[u].

    Each plan is sorted edge rows leading every terminal to root, a
    terminal or the graph's relay: the substitute graph, which merges the
    terminals' shortest paths to a terminal (`path_plans`),
    plus that terminal's uplink row when root is the relay. Each frame's
    tree is an exact minimum spanning arborescence of its rows with
    non-terminal leaves pruned away, and covers every terminal.

    The frames are solved together: every plan's rows are relabelled onto
    one id space, node v of frame u as u * n + v, and one call to the
    arborescence core (`_msa`) solves every frame, level by level, raising
    RoutingInfeasibleError for the first frame with a node that cannot
    reach the root. Pruning then runs on all frames at once, and the kept
    rows are split back into frames.
    """
    if root != g.geo_node and root not in terminals:
        raise ValueError("root must be a terminal or the graph's relay")
    n, count = g.num_nodes, len(plans)
    sizes = [len(p) for p in plans]
    rows = np.fromiter(chain.from_iterable(plans), dtype=np.intp, count=sum(sizes))
    plan = np.repeat(np.arange(count), sizes)   # each row's plan: its frame
    tail, head = plan * n + g.src[rows], plan * n + g.dst[rows]
    roots = np.arange(count) * n + root
    span = np.zeros(count * n, dtype=bool)
    span[tail] = span[head] = span[roots] = True
    chosen = np.zeros(rows.size, dtype=bool)
    chosen[_msa(tail, head, g.weights_j[plan, rows], roots, span, n)] = True
    # Prune non-terminal leaves (nodes nobody transmits to) to a fixpoint.
    # A terminal id that is no node is no row's tail.
    term = np.zeros(n, dtype=bool)
    ids = np.array(list(terminals), dtype=np.intp)
    term[ids[(ids >= 0) & (ids < n)]] = True
    prunable = chosen & ~term[g.src[rows]]
    while True:
        into = np.bincount(head[chosen], minlength=count * n)
        leaves = prunable & chosen & (into[tail] == 0)
        if not leaves.any():
            break
        chosen &= ~leaves
    kept = rows[chosen].tolist()
    ends = np.cumsum(np.bincount(plan[chosen], minlength=count)).tolist()
    return [Arborescence(g, u, root, tuple(kept[a:b]))
            for u, (a, b) in enumerate(zip([0] + ends, ends))]


def d_merge(g: SnapshotGraph, u: int, terminals, root: int, rows) -> Arborescence:
    """Baseline: union of the per-terminal shortest paths, deduplicated.

    rows are sorted edge rows as one of taeer_round's plans, which are that
    union already, and a tree.
    """
    if root != g.geo_node and root not in terminals:
        raise ValueError("root must be a terminal or the graph's relay")
    return Arborescence(g, u, root, tuple(rows))


def _minimal_ring_arc(slots, ring_size):
    """Shortest contiguous arc of the ring covering all given slots, as the
    ordered slot sequence. The largest inter-terminal gap is left out."""
    ks = sorted(set(slots))
    gaps = []
    for a, b in zip(ks, ks[1:] + [ks[0] + ring_size]):
        gaps.append(b - a)
    g_max = max(gaps)
    cut = gaps.index(g_max)  # first largest gap: deterministic
    start = ks[(cut + 1) % len(ks)]
    end = ks[cut]
    arc = [start]
    while arc[-1] != end:
        arc.append((arc[-1] + 1) % ring_size)
    return arc


def orbit_plan(g: SnapshotGraph, terminals) -> tuple:
    """orbit_greedy's layout for one round's terminals, the same in every
    frame of the round: the rows it may route on, looked up in one call.

    One (arc, forward, backward, uplink) tuple per orbit holding
    terminals, in ascending orbit order: arc is the orbit's minimal ring arc
    as node ids, forward[i] and backward[i] are the rows of arc[i] ->
    arc[i + 1] and arc[i + 1] -> arc[i], and uplink[i] is the row of arc[i]'s
    GEO uplink.
    """
    if g.node_orbit is None or g.geo_node is None:
        raise ValueError("orbit_greedy needs a constellation graph with a GEO node")
    orbit_of, slot_of = g.node_orbit.tolist(), g.node_slot.tolist()
    by_orbit = {}
    for t in sorted(set(terminals)):
        by_orbit.setdefault(orbit_of[t], []).append(t)
    ring_size = max(slot_of[:g.geo_node]) + 1

    arcs, src, dst = [], [], []
    for orbit in sorted(by_orbit):
        members = by_orbit[orbit]
        base = members[0] - slot_of[members[0]]
        arc = [base + k for k in _minimal_ring_arc([slot_of[t] for t in members],
                                                   ring_size)]
        arcs.append(arc)
        src += arc[:-1] + arc[1:] + arc
        dst += arc[1:] + arc[:-1] + [g.geo_node] * len(arc)
    rows = g.edge_rows(src, dst).tolist()
    orbits, end = [], 0
    for arc in arcs:
        n = len(arc) - 1
        start, end = end, end + 3 * n + 1
        orbits.append((tuple(arc), tuple(rows[start:start + n]),
                       tuple(rows[start + n:start + 2 * n]),
                       tuple(rows[start + 2 * n:end])))
    return tuple(orbits)


def orbit_greedy(g: SnapshotGraph, u: int, plan: tuple,
                 rng: np.random.Generator) -> Arborescence:
    """Baseline using intra-orbit links only.

    Each orbit holding terminals routes them along its minimal ring arc
    (from plan, see orbit_plan) to a randomly chosen arc node, drawn per
    orbit in ascending orbit order, which uplinks to the GEO relay. The
    tree is rooted at the relay.
    """
    rows = []
    for arc, forward, backward, uplink in plan:
        k = int(rng.integers(len(arc)))
        # Arc nodes before the root arc[k] send forward, the others backward.
        rows += forward[:k] + backward[k:] + (uplink[k],)
    rows.sort()
    return Arborescence(g, u, g.geo_node, tuple(rows))


def select_root(g: SnapshotGraph, terminals) -> int:
    """The aggregation root: the terminal with the cheapest uplink to g's
    GEO relay in the first frame, ties to the lowest node id. Raises
    ValueError when g has no relay."""
    terms = sorted(set(terminals))
    costs = g.weights_j[0][_uplink_rows(g, terms)]
    return terms[int(np.argmin(costs))]


def _uplink_rows(g: SnapshotGraph, nodes) -> np.ndarray:
    """The rows of nodes' uplinks to g's GEO relay (see edge_rows); raises
    ValueError when g has no relay."""
    if g.geo_node is None:
        raise ValueError("routing toward the uplink needs a graph with a GEO relay")
    return g.edge_rows(nodes, g.geo_node)
