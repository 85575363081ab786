"""Per-slot directed graphs over the constellation plus one GEO relay node.

A snapshot fixes connectivity for a whole time slot; the slot is subdivided
into frames and each edge carries one energy weight per frame, evaluated at
the frame midpoint geometry. Edge (i, j) and (j, i) are distinct entries: the
weight depends on the transmitter's power draw.
"""
import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import channel, geometry
from .channel import LinkParams
from .geometry import ConfigError, ConstellationSpec


def ordered_sum(values) -> float:
    """Sum of floats, or of arrays elementwise, added strictly left to
    right, as numpy-scalar accumulation adds them. The built-in sum()
    compensates rounding over Python floats from Python 3.12 on, so its bits
    depend on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class TimeStructure:
    """Slot/frame grid of the (approximate) constellation period: the slot
    length as configured, the slots in one period and the frames in a slot."""

    slot_len_s: float
    slots_per_period: int
    frames_per_slot: int

    def __post_init__(self):
        for name in ("slots_per_period", "frames_per_slot"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.slot_len_s) and self.slot_len_s > 0):
            raise ConfigError("slot_len_s", f"must be finite and > 0, got {self.slot_len_s!r}")

    @property
    def frame_len_s(self) -> float:
        return self.slot_len_s / self.frames_per_slot

    @classmethod
    def for_constellation(cls, spec: ConstellationSpec, slot_len_s: float = 250.0,
                          frames_per_slot: int = 25) -> "TimeStructure":
        """Slot grid covering one orbital period; the period is rounded to a
        whole number of slots, at least one, so slot_len_s is kept exactly."""
        t_orb = geometry.orbital_period_s(spec)
        # A slot length that is not finite and > 0 is named by the constructor.
        m = round(t_orb / slot_len_s) if 0 < slot_len_s < math.inf else 1
        if m < 1:
            raise ConfigError("slot_len_s", f"must be below twice the orbital period "
                                            f"({2 * t_orb:.1f} s), so that the period "
                                            f"rounds to one slot at least; got {slot_len_s!r}")
        return cls(slot_len_s=slot_len_s, slots_per_period=m,
                   frames_per_slot=frames_per_slot)


@dataclass(frozen=True)
class SnapshotGraph:
    """Directed weighted graph of one time slot.

    Edges are stored CSR-sorted by (src, dst); weights_j / distance_km /
    gamma0 are (frames, edges) arrays sharing that column order. gamma0 is
    each link's outage threshold, which channel.outage_from_gamma0 maps to
    its outage probability under the scenario's link parameters. A link the
    model cannot use keeps its row with weight +inf, which no shortest-path
    search relaxes.
    geo_node is the index of the aggregate GEO relay (None for synthetic
    graphs). Instances are immutable; re-weighting returns a new graph on
    the same rows.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights_j: np.ndarray
    distance_km: np.ndarray
    gamma0: np.ndarray
    slot_index: int
    node_orbit: np.ndarray | None = None
    node_slot: np.ndarray | None = None
    geo_node: int | None = None

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @property
    def frame_count(self) -> int:
        return int(self.weights_j.shape[0])

    @property
    def dropped_edges(self) -> int:
        """Number of unusable rows: weight +inf in every frame."""
        return int(np.count_nonzero(~np.isfinite(self.weights_j).any(axis=0)))

    @cached_property
    def rev_order(self) -> np.ndarray:
        """Edge rows grouped by dst (then src): the reversed graph's CSR order.
        Rows are (src, dst)-sorted, so a stable sort on dst alone keeps src
        order among equal heads. dst is cast to the smallest unsigned type
        that holds num_nodes, on which numpy's stable sort is a radix sort
        below 65,536 nodes."""
        return np.argsort(self.dst.astype(np.min_scalar_type(self.num_nodes)), kind="stable")

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Key src * num_nodes + dst of every edge row, int64; ascending
        because rows are (src, dst)-sorted."""
        return self.src.astype(np.int64) * self.num_nodes + self.dst

    def edge_rows(self, src, dst) -> np.ndarray:
        """Rows of the edges (src[i], dst[i]); src and dst broadcast, and the
        rows take their shape (0-d for two scalars).

        Raises KeyError naming every pair that is not an edge.
        """
        src, dst = np.broadcast_arrays(np.asarray(src, dtype=np.int64),
                                       np.asarray(dst, dtype=np.int64))
        shape = src.shape
        src, dst = src.ravel(), dst.ravel()
        keys = src * self.num_nodes + dst
        rows = np.searchsorted(self.edge_index, keys)
        # With dst in range, a key names one (src, dst) pair.
        found = (rows < self.num_edges) & (dst >= 0) & (dst < self.num_nodes)
        found[found] = self.edge_index[rows[found]] == keys[found]
        if not found.all():
            absent = list(zip(src[~found].tolist(), dst[~found].tolist()))
            raise KeyError(f"no edge(s) {absent}")
        return rows.reshape(shape)

    @cached_property
    def reverse_lists(self) -> tuple:
        """(indptr, indices) lists of the reversed graph, the same for every
        frame: row x lists the nodes that transmit to x."""
        indptr = np.searchsorted(self.dst[self.rev_order], np.arange(self.num_nodes + 1))
        return indptr.tolist(), self.src[self.rev_order].tolist()

    def frame_reverse_csr(self, u: int):
        """(indptr, indices, weights) lists of the reversed graph for frame u,
        ready for shortest_path_csr."""
        indptr, indices = self.reverse_lists
        return indptr, indices, np.take(self.weights_j[u], self.rev_order).tolist()

    @classmethod
    def from_arrays(cls, num_nodes, src, dst, weights, *, distance_km=None,
                    gamma0=None, slot_index=0, node_orbit=None,
                    node_slot=None, geo_node=None):
        """Canonicalise edge order to (src, dst)-lexicographic and wrap;
        rows given in that order keep it without a copy.

        weights may be (E,) for a single frame or (U, E); distance_km and
        gamma0 default to 0, which is no outage.
        """
        src = np.asarray(src, dtype=np.int32)
        dst = np.asarray(dst, dtype=np.int32)
        if np.any(src == dst):
            raise ValueError("self-loops are not allowed")
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        columns = [weights,
                   np.zeros_like(weights) if distance_km is None else np.atleast_2d(distance_km),
                   np.zeros_like(weights) if gamma0 is None else np.atleast_2d(gamma0)]
        if not np.all((src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))):
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            if np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):
                raise ValueError("parallel edges are not allowed; merge them first")
            columns = [a[:, order] for a in columns]
        weights, distance_km, gamma0 = (np.ascontiguousarray(a) for a in columns)
        return cls(num_nodes=num_nodes, src=src, dst=dst, weights_j=weights,
                   distance_km=distance_km, gamma0=gamma0,
                   slot_index=slot_index, node_orbit=node_orbit, node_slot=node_slot,
                   geo_node=geo_node)

def tx_power_draw(spec: ConstellationSpec, rng: np.random.Generator,
                  low_w: float, high_w: float) -> np.ndarray:
    """Per-satellite transmit power, drawn once per scenario."""
    return rng.uniform(low_w, high_w, size=spec.total_sats)


def build_snapshot(spec: ConstellationSpec, params: LinkParams,
                   times: TimeStructure, t_slot_start: float,
                   tx_power_w: np.ndarray) -> SnapshotGraph:
    """Snapshot graph for the slot starting at t_slot_start, labelled with
    its slot index within the period (t_slot_start / slot length, rounded,
    mod slots_per_period).

    Connectivity is frozen at the slot start: both directions of every
    feasible LEO ISL, plus one uplink edge from every LEO to the aggregate
    GEO relay (whose coverage is global). Per-frame weights use the geometry
    at each frame midpoint. A link without a finite positive energy in every
    frame keeps its row with weight +inf in every frame.
    """
    if tx_power_w.shape[0] != spec.total_sats:
        raise ValueError("tx_power_w must hold one draw per satellite")
    n_leo = spec.total_sats
    geo = n_leo
    u_frames = times.frames_per_slot
    # One propagation pass: the slot start, then every frame midpoint.
    epochs = [t_slot_start] + [t_slot_start + (u + 0.5) * times.frame_len_s
                               for u in range(u_frames)]
    pos = geometry.positions(spec, np.array(epochs))
    lo, hi = geometry.feasible_isl_pairs(spec, pos[0]).T

    # Both directions of every ISL pair, then every LEO's uplink, put in the
    # graph's (src, dst) row order before any per-frame array is filled.
    src = np.concatenate([lo, hi, np.arange(n_leo)])
    dst = np.concatenate([hi, lo, np.full(n_leo, geo)])
    order = np.argsort(src * (geo + 1) + dst, kind="stable")
    src, dst = src[order], dst[order]

    # One length per ISL pair, which both its rows take: squared as
    # np.linalg.norm sums a length-3 axis, (dx^2 + dy^2) + dz^2, one
    # (frames, pairs) component at a time.
    mid = pos[1:]
    squared = np.zeros((u_frames, len(lo)))
    for c in range(3):
        coord = np.ascontiguousarray(mid[..., c])
        diff = np.take(coord, lo, axis=1) - np.take(coord, hi, axis=1)
        squared += diff * diff
    pair_km = np.sqrt(squared)
    del squared, diff   # not held through the link budget's temporaries
    geo_km = geometry.geo_slant_range_km(mid, np.array(epochs[1:]))
    dist = np.take(np.concatenate([pair_km, pair_km, geo_km], axis=1), order, axis=1)
    del pair_km, geo_km

    weights, gamma0 = channel.link_budget(tx_power_w[src], dist, params, u_frames)
    keep = np.all(np.isfinite(weights) & (weights > 0), axis=0)
    weights = np.where(keep, weights, np.inf)
    orbit = np.concatenate([np.repeat(np.arange(spec.num_orbits, dtype=np.int32),
                                      spec.sats_per_orbit), [-1]])
    slot = np.concatenate([np.tile(np.arange(spec.sats_per_orbit, dtype=np.int32),
                                   spec.num_orbits), [0]])
    slot_index = int(round(t_slot_start / times.slot_len_s)) % times.slots_per_period
    return SnapshotGraph.from_arrays(
        n_leo + 1, src, dst, weights, distance_km=dist,
        gamma0=gamma0, slot_index=slot_index,
        node_orbit=orbit, node_slot=slot, geo_node=geo)


def robust_weights(g: SnapshotGraph, rho: float, params: LinkParams) -> SnapshotGraph:
    """Blend energy with the outage penalty of g's gamma0 under params:
    rho*w + (1-rho)*ln(1/(1-P_out)).

    The returned graph has g's rows. An ISL in certain outage (P_out = 1 in
    any frame) is unusable for the slot and weighs +inf in every frame, as
    does every frame in which g's weight is already +inf. GEO uplink edges
    are outage-exempt (the relay hop is charged deterministically and never
    routed through): their outage is not evaluated, and their penalty is 0.
    rho = 1 leaves the finite weights bit-identical.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if g.geo_node is None:
        out = channel.outage_from_gamma0(g.gamma0, params)
    else:
        isl = g.dst != g.geo_node
        out = np.zeros_like(g.gamma0)
        out[:, isl] = channel.outage_from_gamma0(g.gamma0[:, isl], params)
    # Unusable rows give inf/0 and 0*inf here; np.where replaces them.
    with np.errstate(divide="ignore", invalid="ignore"):
        blended = rho * g.weights_j + (1.0 - rho) * np.log1p(out / (1.0 - out))
    unusable = ~np.isfinite(g.weights_j) | np.any(out >= 1.0, axis=0)
    return replace(g, weights_j=np.where(unusable, np.inf, blended))


def write_snapshot_csv(path, g: SnapshotGraph, params: LinkParams) -> None:
    """Edge-list export, one row per (frame, edge), outage under params."""
    if g.node_orbit is None:
        raise ValueError("graph carries no orbit/slot labels to export")
    orbit, slot = g.node_orbit.tolist(), g.node_slot.tolist()
    outage = channel.outage_from_gamma0(g.gamma0, params)
    ends = [(orbit[i], slot[i], orbit[j], slot[j])
            for i, j in zip(g.src.tolist(), g.dst.tolist())]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "frame", "src_orbit", "src_slot", "dst_orbit",
                    "dst_slot", "distance_km", "weight_j", "outage_prob"])
        for u in range(g.frame_count):
            # csv writes a float as its repr.
            w.writerows((g.slot_index, u, *e, d, wj, p) for e, d, wj, p in zip(
                ends, g.distance_km[u].tolist(), g.weights_j[u].tolist(),
                outage[u].tolist()))
