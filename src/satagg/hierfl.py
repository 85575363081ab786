"""Hierarchical federated averaging on synthetic linear-regression tasks.

Model vectors are plain numpy arrays. Each device holds a least-squares task
with loss 0.5*||A x - b||^2 (sum over its samples) and runs E steps of
mini-batch SGD per round; the network aggregates the weighted model deltas
(bottom-up along a routing tree, or flat) and applies them to the global
model:  x <- x + sum_i lambda_i * delta_i. A run's devices are one
`DeviceStack`, and each round trains the whole stack at once; every sum
across devices is still added left to right in device order.

Tree aggregation is exactly linear in the deltas, so any tree shape yields
the flat weighted sum up to floating-point association; that equivalence is
what decouples routing-energy optimisation from learning accuracy.
"""
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import ConfigError
from .topology import ordered_sum

# run_training gives up once the loss exceeds this multiple of max(1, initial loss).
DIVERGENCE_LIMIT = 1e12


class AggregationError(ValueError):
    """A device's serving terminal is missing from the aggregation tree."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, round_index, loss):
        self.round_index = round_index
        self.loss = loss
        super().__init__(f"training diverged at round {round_index} (loss={loss!r})")


@dataclass(frozen=True)
class TrainingSettings:
    """Federated training loop, local SGD and synthetic-task settings."""

    rounds: int = 300
    local_steps: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    dim: int = 20
    samples_per_device: int = 64
    heterogeneity: float = 0.0
    noise_std: float = 0.1

    def __post_init__(self):
        for name in ("rounds", "local_steps", "batch_size", "dim", "samples_per_device"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate", f"must be > 0, got {self.learning_rate}")
        for name in ("heterogeneity", "noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(name, f"must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class DeviceStack:
    """A run's devices as one stack: device d is row d of every field, so a
    device is its index. Device d fits features[d] (samples, dim) to
    targets[d] (samples,) and aggregates with weight weights[d]."""

    features: np.ndarray        # (devices, samples, dim)
    targets: np.ndarray         # (devices, samples)
    weights: np.ndarray         # (devices,) aggregation weights lambda

    def __post_init__(self):
        d, s, _ = self.features.shape
        if d < 1:
            raise ValueError("need at least one device")
        if self.targets.shape != (d, s) or self.weights.shape != (d,):
            raise ValueError(
                f"features {self.features.shape} need targets of shape {(d, s)} "
                f"and weights of shape {(d,)}, got {self.targets.shape} and "
                f"{self.weights.shape}")
        negative = np.flatnonzero(~(self.weights >= 0))
        if negative.size:
            raise ValueError(f"weight of device {int(negative[0])} must be >= 0, "
                             f"got {self.weights[negative[0]]}")

    @property
    def dim(self) -> int:
        return self.features.shape[2]


def _residuals(a, b, x):
    """Per-device residuals a_d x_d - b_d as (devices, samples, 1) columns,
    for stacked rows a (devices, samples, dim), targets b (devices, samples)
    and models x, one per device (devices, dim) or one shared (dim,). Each
    product is one matrix-vector product per device, as on a single device."""
    return a @ np.asarray(x, dtype=float)[..., None] - b[..., None]


def _gradients(a, b, x):
    """Per-device gradients a_d^T (a_d x_d - b_d) of 0.5*||a_d x_d - b_d||^2,
    (devices, dim); arguments as in _residuals."""
    return (a.transpose(0, 2, 1) @ _residuals(a, b, x))[..., 0]


def local_update(stack: DeviceStack, global_model: np.ndarray,
                 settings: TrainingSettings,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """settings.local_steps steps of mini-batch SGD on every device from the
    global model; returns the deltas x_final - x_initial, (devices, dim).

    Batches are sampled without replacement and scaled by n/|batch| so the
    stochastic gradient stays unbiased; a batch covering the dataset makes
    the update full-batch and draws nothing. All batch indices are drawn
    first, device by device and step by step, one rng.choice each, which is
    the order in which devices trained one after another would draw them;
    each step then trains the whole stack at once."""
    d, n, dim = stack.features.shape
    steps, size = settings.local_steps, settings.batch_size
    full_batch = size >= n
    if not full_batch:
        if rng is None:
            raise ValueError("mini-batch updates need an rng")
        choice = rng.choice
        idx = np.array([[choice(n, size=size, replace=False) for _ in range(steps)]
                        for _ in range(d)])
        idx += (n * np.arange(d))[:, None, None]     # rows of the flattened stack
        features = stack.features.reshape(d * n, dim)
        targets = stack.targets.reshape(d * n)
    x0 = np.asarray(global_model, dtype=float)
    x = np.repeat(x0[None], d, axis=0)
    for e in range(steps):
        if full_batch:
            g = _gradients(stack.features, stack.targets, x)
        else:
            rows = idx[:, e]
            g = (n / size) * _gradients(features[rows], targets[rows], x)
        x -= settings.learning_rate * g
    return x - x0


def tree_aggregate(tree, deltas, weights, terminals) -> np.ndarray:
    """Weighted-sum reduction of device deltas along an aggregation tree.

    Device d contributes weights[d] * deltas[d] at its serving node
    terminals[d]. Partial sums flow child -> parent; the root ends up
    holding sum_d weights[d] * deltas[d]. Devices are accumulated in device
    order and children in ascending node order, so the result is
    reproducible bit-for-bit.
    """
    children = {}
    out_edge = {}
    for c, p in tree.edges:
        children.setdefault(p, []).append(c)
        out_edge[c] = p
    nodes = {tree.root, *out_edge, *children}
    missing = sorted(set(terminals) - nodes)
    if missing:
        raise AggregationError(f"terminals not covered by the tree: {missing}")

    payload = {}
    for node, weight, delta in zip(terminals, weights, deltas, strict=True):
        payload[node] = payload.get(node, 0.0) + weight * np.asarray(delta, dtype=float)

    depth = {}
    for v in nodes:
        d = 0
        w = v
        while w != tree.root:
            w = out_edge[w]
            d += 1
        depth[v] = d

    partial = {}
    for v in sorted(nodes, key=lambda v: (-depth[v], v)):
        acc = payload.get(v, 0.0)
        for c in sorted(children.get(v, ())):
            acc = acc + partial[c]
        partial[v] = acc
    return np.asarray(partial[tree.root], dtype=float)


def flat_aggregate(deltas, weights) -> np.ndarray:
    """Reference reduction: sum of weights[d] * deltas[d], added in device
    order."""
    return np.asarray(ordered_sum(np.asarray(weights)[:, None] * np.asarray(deltas)),
                      dtype=float)


def global_loss(stack: DeviceStack, x: np.ndarray) -> float:
    """Weighted sum of the device losses, added left to right."""
    r = _residuals(stack.features, stack.targets, x)
    losses = 0.5 * (r.transpose(0, 2, 1) @ r)[:, 0, 0]
    return float(ordered_sum((stack.weights * losses).tolist()))


def global_gradient(stack: DeviceStack, x: np.ndarray) -> np.ndarray:
    """Weighted sum of the device gradients, added left to right."""
    return np.asarray(ordered_sum(
        stack.weights[:, None] * _gradients(stack.features, stack.targets, x)))


def run_training(stack: DeviceStack, failed, settings: TrainingSettings,
                 rng: np.random.Generator):
    """Federated rounds of settings' local SGD with flat aggregation from
    the zero model, one per flag in failed; returns per-round records
    [(round, global_loss, grad_norm)], loss/grad evaluated on the updated
    model. A round whose flag is true (its aggregation was not delivered)
    still draws every device's local update, so later rounds see the same
    SGD stream, but leaves the model unchanged. Raises TrainingDivergedError
    if the loss blows up."""
    x = np.zeros(stack.dim)
    initial = global_loss(stack, x)
    trace = []
    for t, dropped in enumerate(failed):
        deltas = local_update(stack, x, settings, rng)
        if not dropped:
            x = x + flat_aggregate(deltas, stack.weights)
        loss = global_loss(stack, x)
        if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT * max(initial, 1.0):
            raise TrainingDivergedError(t, loss)
        trace.append((t, loss, float(np.linalg.norm(global_gradient(stack, x)))))
    return trace


def make_synthetic_tasks(weights, settings: TrainingSettings,
                         rng: np.random.Generator) -> DeviceStack:
    """One linear-regression task per aggregation weight, device d taking
    weights[d]. The per-device optima have a controllable spread: device d
    fits b = A (w* + heterogeneity*z_d) + noise. Larger heterogeneity raises
    the gradient-dissimilarity level across devices. After w*, each device
    draws its z_d, its A and its noise in turn, written into its rows of
    the stack."""
    dim, samples = settings.dim, settings.samples_per_device
    weights = np.array(weights, dtype=float)
    features = np.empty((len(weights), samples, dim))
    targets = np.empty((len(weights), samples))
    w_star = rng.standard_normal(dim)
    for a, b in zip(features, targets):
        w_d = w_star + settings.heterogeneity * rng.standard_normal(dim)
        rng.standard_normal(out=a)
        a /= math.sqrt(samples)
        b[:] = a @ w_d + settings.noise_std * rng.standard_normal(samples)
    return DeviceStack(features, targets, weights)


def smoothness_constant(stack: DeviceStack) -> float:
    """Largest curvature among the device objectives and the global one."""
    hessians = stack.features.transpose(0, 2, 1) @ stack.features
    l_local = float(np.linalg.eigvalsh(hessians)[:, -1].max())
    h_global = ordered_sum(stack.weights[:, None, None] * hessians)
    return max(l_local, float(np.linalg.eigvalsh(h_global)[-1]))


def learning_rate_bound(smoothness: float, local_steps: int) -> float:
    """Step-size cap min{1/(2LE), 1/(L*sqrt(6E(E-1)))} under which the
    federated recursion is guaranteed stable, the bound
    1/(L*sqrt(2E(E-1)(2a+1))) at gradient dissimilarity a = 1; for E = 1
    only the first term applies."""
    if smoothness <= 0 or local_steps < 1:
        raise ValueError("need smoothness > 0 and local_steps >= 1")
    cap = 1.0 / (2.0 * smoothness * local_steps)
    if local_steps > 1:
        cap = min(cap, 1.0 / (smoothness * math.sqrt(
            6.0 * local_steps * (local_steps - 1))))
    return cap


def check_learning_rate(stack: DeviceStack, settings: TrainingSettings) -> float:
    """Warn when settings' learning rate exceeds the stability cap of the
    devices' smoothness at settings' local steps; returns the cap."""
    smoothness = smoothness_constant(stack)
    cap = learning_rate_bound(smoothness, settings.local_steps)
    if settings.learning_rate > cap:
        warnings.warn(
            f"learning rate {settings.learning_rate:g} exceeds the stability cap "
            f"{cap:g} (smoothness={smoothness:g})", RuntimeWarning, stacklevel=2)
    return cap


def write_loss_trace_csv(path, trace, energy_per_round) -> None:
    """CSV export (round, global_loss, grad_norm, cumulative_energy_j)."""
    cumulative = 0.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "global_loss", "grad_norm", "cumulative_energy_j"])
        for k, (t, loss, gnorm) in enumerate(trace):
            cumulative += energy_per_round[k]
            w.writerow([t, repr(loss), repr(gnorm), repr(cumulative)])
