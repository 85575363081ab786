"""Hierarchical federated averaging on synthetic linear-regression tasks.

Model vectors are plain numpy arrays. Each device holds a least-squares task
with loss 0.5*||A x - b||^2 (sum over its samples) and runs E steps of
mini-batch SGD per round; the network aggregates the weighted model deltas
(bottom-up along a routing tree, or flat) and applies them to the global
model:  x <- x + sum_i lambda_i * delta_i.

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
class LocalTask:
    """One device's regression task and its aggregation weight."""

    device_id: int
    features: np.ndarray        # (samples, dim)
    targets: np.ndarray         # (samples,)
    weight: float               # aggregation weight lambda

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be >= 0")

    def loss(self, x: np.ndarray) -> float:
        r = self.features @ x - self.targets
        return 0.5 * float(r @ r)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.features.T @ (self.features @ x - self.targets)


def local_update(task: LocalTask, global_model: np.ndarray, settings: TrainingSettings,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """settings.local_steps steps of mini-batch SGD from the global model;
    returns the delta x_final - x_initial. Batches are sampled without
    replacement and scaled by n/|batch| so the stochastic gradient stays
    unbiased; a batch covering the dataset makes the update full-batch."""
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


def tree_aggregate(tree, deltas: dict, weights: dict, device_terminals: dict) -> np.ndarray:
    """Weighted-sum reduction of device deltas along an aggregation tree.

    Partial sums flow child -> parent; the root ends up holding
    sum_i weight_i * delta_i. Devices and children are accumulated in
    ascending id order so the result is reproducible bit-for-bit.
    """
    nodes = tree.nodes()
    missing = sorted(t for t in set(device_terminals.values()) if t not in nodes)
    if missing:
        raise AggregationError(f"terminals not covered by the tree: {missing}")

    payload = {}
    for dev in sorted(deltas):
        node = device_terminals[dev]
        term = weights[dev] * np.asarray(deltas[dev], dtype=float)
        payload[node] = payload.get(node, 0.0) + term

    children = {}
    out_edge = {}
    for c, p in tree.edges:
        children.setdefault(p, []).append(c)
        out_edge[c] = p
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


def flat_aggregate(deltas: dict, weights: dict) -> np.ndarray:
    """Reference reduction: sum of weight_i * delta_i in ascending device id."""
    acc = 0.0
    for dev in sorted(deltas):
        acc = acc + weights[dev] * np.asarray(deltas[dev], dtype=float)
    return np.asarray(acc, dtype=float)


def global_loss(tasks, x: np.ndarray) -> float:
    """Weighted sum of the task losses, added left to right."""
    return float(ordered_sum(t.weight * t.loss(x) for t in tasks))


def global_gradient(tasks, x: np.ndarray) -> np.ndarray:
    g = np.zeros_like(np.asarray(x, dtype=float))
    for t in tasks:
        g += t.weight * t.gradient(x)
    return g


def run_training(tasks, failed, settings: TrainingSettings, rng: np.random.Generator):
    """Federated rounds of settings' local SGD with flat aggregation from
    the zero model, one per flag in failed; returns per-round records
    [(round, global_loss, grad_norm)], loss/grad evaluated on the updated
    model. A round whose flag is true (its aggregation was not delivered)
    still draws every device's local update, so later rounds see the same
    SGD stream, but leaves the model unchanged. Raises TrainingDivergedError
    if the loss blows up."""
    x = np.zeros(tasks[0].features.shape[1])
    initial = global_loss(tasks, x)
    trace = []
    for t, dropped in enumerate(failed):
        deltas = {}
        for task in sorted(tasks, key=lambda task: task.device_id):
            deltas[task.device_id] = local_update(task, x, settings, rng)
        if not dropped:
            weights = {task.device_id: task.weight for task in tasks}
            x = x + flat_aggregate(deltas, weights)
        loss = global_loss(tasks, x)
        if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT * max(initial, 1.0):
            raise TrainingDivergedError(t, loss)
        trace.append((t, loss, float(np.linalg.norm(global_gradient(tasks, x)))))
    return trace


def make_synthetic_tasks(weights, settings: TrainingSettings,
                         rng: np.random.Generator):
    """One linear-regression task per aggregation weight, device i taking
    weights[i]. The per-device optima have a controllable spread: device i
    fits b = A (w* + heterogeneity*z_i) + noise. Larger heterogeneity raises
    the gradient-dissimilarity level across devices."""
    dim, samples = settings.dim, settings.samples_per_device
    w_star = rng.standard_normal(dim)
    tasks = []
    for i, weight in enumerate(weights):
        w_i = w_star + settings.heterogeneity * rng.standard_normal(dim)
        a = rng.standard_normal((samples, dim)) / math.sqrt(samples)
        b = a @ w_i + settings.noise_std * rng.standard_normal(samples)
        tasks.append(LocalTask(device_id=i, features=a, targets=b, weight=weight))
    return tasks


def smoothness_constant(tasks) -> float:
    """Largest curvature among the device objectives and the global one."""
    hessians = [t.features.T @ t.features for t in tasks]
    l_local = max(float(np.linalg.eigvalsh(h)[-1]) for h in hessians)
    h_global = sum(t.weight * h for t, h in zip(tasks, hessians))
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


def check_learning_rate(tasks, settings: TrainingSettings) -> float:
    """Warn when settings' learning rate exceeds the stability cap of the
    tasks' smoothness at settings' local steps; returns the cap."""
    smoothness = smoothness_constant(tasks)
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
