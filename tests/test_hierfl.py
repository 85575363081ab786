from types import SimpleNamespace

import numpy as np
import pytest

from conftest import from_edge_list
from oracles import centralized_gd
from satagg import hierfl
from satagg.hierfl import LocalTask, TrainingSettings
from satagg.routing import Arborescence


def quadratic_task(rng, n=20, d=8, **kw):
    """A one-device task and the settings it trains with."""
    a = rng.standard_normal((n, d)) / np.sqrt(n)
    w = rng.standard_normal(d)
    b = a @ w + 0.05 * rng.standard_normal(n)
    kw.setdefault("batch_size", n)
    return LocalTask(device_id=0, features=a, targets=b, weight=1.0), TrainingSettings(**kw)


def tree_of(root, edges):
    """The tree toward root over the (child, parent) pairs edges, on a graph
    holding just those edges."""
    nodes = [root] + [v for e in edges for v in e]
    g = from_edge_list(max(nodes) + 1, [(c, p, 0.0) for c, p in edges])
    return Arborescence(g, 0, root, tuple(range(len(edges))))


def random_arborescence(rng, n_nodes):
    """Random tree toward root 0: each node's parent has a smaller index."""
    return tree_of(0, [(v, int(rng.integers(0, v))) for v in range(1, n_nodes)])


class TestLocalUpdate:
    def test_zero_learning_rate_like_limit(self):
        rng = np.random.default_rng(0)
        task, settings = quadratic_task(rng, learning_rate=1e-300, local_steps=3)
        delta = hierfl.local_update(task, np.zeros(8), settings)
        assert np.linalg.norm(delta) < 1e-290

    def test_full_batch_single_step_closed_form(self):
        # Oracle: delta = -eta * A^T (A x - b) for loss 0.5*||Ax-b||^2.
        rng = np.random.default_rng(1)
        task, settings = quadratic_task(rng, learning_rate=0.01, local_steps=1)
        x = rng.standard_normal(8)
        delta = hierfl.local_update(task, x, settings)
        expected = -0.01 * task.features.T @ (task.features @ x - task.targets)
        assert np.allclose(delta, expected, rtol=1e-12, atol=1e-15)

    def test_stationary_point_gives_zero_delta(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        x_star = rng.standard_normal(4)
        task = LocalTask(0, a, a @ x_star, weight=1.0)
        settings = TrainingSettings(local_steps=7, learning_rate=0.05, batch_size=10)
        delta = hierfl.local_update(task, x_star, settings)
        assert np.allclose(delta, 0.0, atol=1e-12)

    def test_minibatch_needs_rng(self):
        rng = np.random.default_rng(3)
        task, settings = quadratic_task(rng, batch_size=4)
        with pytest.raises(ValueError):
            hierfl.local_update(task, np.zeros(8), settings)

    def test_minibatch_gradient_unbiased(self):
        # Mean of the scaled mini-batch step over many draws approaches the
        # full-batch step (law of large numbers, 3-sigma style slack).
        rng = np.random.default_rng(4)
        task, settings = quadratic_task(rng, n=16, learning_rate=0.01, local_steps=1,
                                        batch_size=4)
        x = rng.standard_normal(8)
        full = -0.01 * task.features.T @ (task.features @ x - task.targets)
        draws = np.array([hierfl.local_update(task, x, settings, rng)
                          for _ in range(4000)])
        assert np.allclose(draws.mean(axis=0), full, atol=4 * np.abs(full).max()
                           / np.sqrt(4000) + 1e-4)


class TestTreeAggregate:
    def test_two_devices_arithmetic(self):
        tree = tree_of(0, [(1, 0)])
        out = hierfl.tree_aggregate(
            tree, {0: np.array([2.0]), 1: np.array([4.0])},
            {0: 0.5, 1: 0.5}, {0: 0, 1: 1})
        assert out.tolist() == [3.0]

    def test_single_device_identity(self):
        tree = tree_of(5, [])
        delta = np.array([1.0, -2.0, 3.0])
        out = hierfl.tree_aggregate(tree, {9: delta}, {9: 1.0}, {9: 5})
        assert np.array_equal(out, delta)

    def test_matches_flat_sum_random_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n_nodes = int(rng.integers(2, 12))
            tree = random_arborescence(rng, n_nodes)
            n_dev = int(rng.integers(1, 15))
            d = int(rng.integers(1, 6))
            deltas = {i: rng.standard_normal(d) for i in range(n_dev)}
            raw = rng.uniform(0.1, 1.0, n_dev)
            weights = {i: float(w) for i, w in enumerate(raw / raw.sum())}
            terminals = {i: int(rng.integers(n_nodes)) for i in range(n_dev)}
            got = hierfl.tree_aggregate(tree, deltas, weights, terminals)
            ref = hierfl.flat_aggregate(deltas, weights)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)

    def test_missing_terminal_raises(self):
        tree = tree_of(0, [(1, 0)])
        with pytest.raises(hierfl.AggregationError):
            hierfl.tree_aggregate(tree, {0: np.ones(2)}, {0: 1.0}, {0: 7})


def make_fleet(heterogeneity, eta, rng_seed=100, local_steps=5):
    """Ten equally weighted tasks and the settings they train with."""
    settings = TrainingSettings(
        dim=12, samples_per_device=24, heterogeneity=heterogeneity, noise_std=0.1,
        local_steps=local_steps, learning_rate=eta, batch_size=8)
    return (hierfl.make_synthetic_tasks([1 / 10] * 10, settings,
                                        np.random.default_rng(rng_seed)), settings)


def test_synthetic_tasks_take_the_given_weights():
    # One task per weight, in order; the weights change no draw.
    settings = TrainingSettings(dim=4, samples_per_device=6)
    tasks = hierfl.make_synthetic_tasks([0.9, 0.1], settings, np.random.default_rng(1))
    equal = hierfl.make_synthetic_tasks([0.5, 0.5], settings, np.random.default_rng(1))
    assert [t.weight for t in tasks] == [0.9, 0.1]
    assert [t.device_id for t in tasks] == [0, 1]
    for t, e in zip(tasks, equal):
        assert np.array_equal(t.features, e.features)
        assert np.array_equal(t.targets, e.targets)


def test_global_loss_adds_left_to_right():
    # Per-task weighted losses whose left-to-right sum is 0.0 and whose
    # compensated sum (the built-in sum() over floats from Python 3.12 on)
    # is 2.0; stand-in tasks, since real losses cannot be negative.
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    tasks = [SimpleNamespace(weight=1.0, loss=lambda x, v=v: v) for v in values]
    assert hierfl.global_loss(tasks, np.zeros(1)) == 0.0


class TestRunTraining:
    def test_single_step_full_batch_equals_centralized(self):
        # With E = 1 and full batches the federated round IS one centralized
        # gradient step on the weighted objective.
        rng = np.random.default_rng(21)
        settings = TrainingSettings(
            dim=10, samples_per_device=16, heterogeneity=1.0, noise_std=0.2,
            local_steps=1, learning_rate=0.02, batch_size=16)
        tasks = hierfl.make_synthetic_tasks([1 / 6] * 6, settings, rng)
        fed = hierfl.run_training(tasks, [False] * 50, settings, np.random.default_rng(0))
        cent = centralized_gd(tasks, 50, 0.02)
        for (_, lf, gf), (_, lc, gc) in zip(fed, cent):
            assert lf == pytest.approx(lc, rel=1e-10, abs=1e-10)
            assert gf == pytest.approx(gc, rel=1e-10, abs=1e-10)

    def test_iid_moving_average_decreases(self):
        tasks, settings = make_fleet(0.0, 0.03)
        trace = hierfl.run_training(tasks, [False] * 100, settings, np.random.default_rng(7))
        losses = [x[1] for x in trace]
        ma = [float(np.mean(losses[i:i + 10])) for i in range(len(losses) - 9)]
        # Downward trend: upticks are bounded by the SGD noise floor, and the
        # early descent is strict.
        tol = 1e-3 * ma[0]
        assert all(ma[i + 1] <= ma[i] + tol for i in range(len(ma) - 1))
        assert ma[10] < ma[0] and ma[-1] < 0.1 * ma[0]
        # Oracle: exact gradient descent with the same step budget ends lower.
        cent = centralized_gd(tasks, 100 * 5, 0.03)
        assert cent[-1][1] <= losses[-1] + 1e-12

    def test_heterogeneity_widens_centralized_gap(self):
        # Paired runs: identical seeds, only the spread of device optima
        # changes. Both runs reach their floors (centralized gets the same
        # total gradient-step budget), so the gap difference isolates the
        # client-drift bias added by heterogeneous data.
        def gap(h):
            tasks, settings = make_fleet(h, 0.03)
            fed = hierfl.run_training(tasks, [False] * 400, settings, np.random.default_rng(7))
            cent = centralized_gd(tasks, 400 * 5, 0.03)
            return fed[-1][1] - cent[-1][1]

        g_iid, g_mid, g_het = gap(0.0), gap(1.0), gap(2.0)
        assert g_het > g_mid > g_iid

    def test_failed_rounds_leave_the_model_unchanged(self):
        # Every round fails: the loss stays the zero model's, and every
        # device's update is still drawn.
        tasks, settings = make_fleet(0.0, 0.03)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        trace = hierfl.run_training(tasks, [True] * 4, settings, rng)
        zero = hierfl.global_loss(tasks, np.zeros(tasks[0].features.shape[1]))
        assert [(t, loss) for t, loss, _ in trace] == [(t, zero) for t in range(4)]
        hierfl.run_training(tasks, [False] * 4, settings, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_failed_round_between_applied_rounds(self):
        # Round 1 fails: it keeps round 0's model, and round 2 starts from
        # that model with the draws that follow round 1's.
        tasks, settings = make_fleet(0.0, 0.03)
        trace = hierfl.run_training(tasks, [False, True, False], settings,
                                    np.random.default_rng(3))
        rng = np.random.default_rng(3)
        weights = {t.device_id: t.weight for t in tasks}
        x = np.zeros(tasks[0].features.shape[1])
        models = []
        for applied in (True, False, True):
            deltas = {t.device_id: hierfl.local_update(t, x, settings, rng) for t in tasks}
            if applied:
                x = x + hierfl.flat_aggregate(deltas, weights)
            models.append(x)
        assert [loss for _, loss, _ in trace] == [
            hierfl.global_loss(tasks, m) for m in models]
        assert trace[1][1:] == trace[0][1:] and trace[2][1] < trace[1][1]

    def test_divergence_aborts(self):
        tasks, settings = make_fleet(0.0, 50.0)  # far above the stability cap
        with pytest.raises(hierfl.TrainingDivergedError):
            hierfl.run_training(tasks, [False] * 200, settings, np.random.default_rng(0))


class TestLearningRateGuard:
    def test_bound_shape(self):
        assert hierfl.learning_rate_bound(2.0, 1) == pytest.approx(0.25)
        e5 = hierfl.learning_rate_bound(2.0, 5)
        assert e5 == pytest.approx(min(1 / 20, 1 / (2 * np.sqrt(2 * 5 * 4 * 3))))

    def test_warns_above_cap(self):
        tasks, settings = make_fleet(0.0, 0.5)
        with pytest.warns(RuntimeWarning):
            hierfl.check_learning_rate(tasks, settings)

    def test_silent_below_cap(self):
        tasks, settings = make_fleet(0.0, 1e-4)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hierfl.check_learning_rate(tasks, settings)


def test_loss_trace_csv(tmp_path):
    trace = [(0, 1.5, 0.7), (1, 1.2, 0.5)]
    path = tmp_path / "trace.csv"
    hierfl.write_loss_trace_csv(path, trace, energy_per_round=[10.0, 12.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,global_loss,grad_norm,cumulative_energy_j"
    assert lines[1] == "0,1.5,0.7,10.0"
    assert lines[2] == "1,1.2,0.5,22.0"
