import math

import numpy as np
import pytest

import oracles
from conftest import from_edge_list
from oracles import centralized_gd
from satagg import hierfl
from satagg.hierfl import DeviceStack, TrainingSettings
from satagg.routing import Arborescence


def one_device(a, b):
    """A stack holding the single device that fits a to b, weight 1."""
    return DeviceStack(a[None], b[None], np.ones(1))


def quadratic_task(rng, n=20, d=8, **kw):
    """A one-device stack and the settings it trains with."""
    a = rng.standard_normal((n, d)) / np.sqrt(n)
    w = rng.standard_normal(d)
    b = a @ w + 0.05 * rng.standard_normal(n)
    kw.setdefault("batch_size", n)
    return one_device(a, b), TrainingSettings(**kw)


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
        assert delta.shape == (1, 8)
        assert np.linalg.norm(delta) < 1e-290

    def test_full_batch_single_step_closed_form(self):
        # Oracle: delta = -eta * A^T (A x - b) for loss 0.5*||Ax-b||^2.
        rng = np.random.default_rng(1)
        task, settings = quadratic_task(rng, learning_rate=0.01, local_steps=1)
        x = rng.standard_normal(8)
        delta = hierfl.local_update(task, x, settings)[0]
        a, b = task.features[0], task.targets[0]
        expected = -0.01 * a.T @ (a @ x - b)
        assert np.allclose(delta, expected, rtol=1e-12, atol=1e-15)

    def test_stationary_point_gives_zero_delta(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        x_star = rng.standard_normal(4)
        task = one_device(a, a @ x_star)
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
        a, b = task.features[0], task.targets[0]
        full = -0.01 * a.T @ (a @ x - b)
        draws = np.array([hierfl.local_update(task, x, settings, rng)[0]
                          for _ in range(4000)])
        assert np.allclose(draws.mean(axis=0), full, atol=4 * np.abs(full).max()
                           / np.sqrt(4000) + 1e-4)


class TestTreeAggregate:
    def test_two_devices_arithmetic(self):
        tree = tree_of(0, [(1, 0)])
        out = hierfl.tree_aggregate(tree, np.array([[2.0], [4.0]]), [0.5, 0.5], [0, 1])
        assert out.tolist() == [3.0]

    def test_single_device_identity(self):
        tree = tree_of(5, [])
        delta = np.array([1.0, -2.0, 3.0])
        out = hierfl.tree_aggregate(tree, [delta], [1.0], [5])
        assert np.array_equal(out, delta)

    def test_matches_flat_sum_random_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n_nodes = int(rng.integers(2, 12))
            tree = random_arborescence(rng, n_nodes)
            n_dev = int(rng.integers(1, 15))
            d = int(rng.integers(1, 6))
            deltas = rng.standard_normal((n_dev, d))
            raw = rng.uniform(0.1, 1.0, n_dev)
            weights = raw / raw.sum()
            terminals = [int(rng.integers(n_nodes)) for _ in range(n_dev)]
            got = hierfl.tree_aggregate(tree, deltas, weights, terminals)
            ref = hierfl.flat_aggregate(deltas, weights)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)

    def test_missing_terminal_raises(self):
        tree = tree_of(0, [(1, 0)])
        with pytest.raises(hierfl.AggregationError):
            hierfl.tree_aggregate(tree, [np.ones(2)], [1.0], [7])

    def test_devices_are_rows_not_ids(self):
        # A device listed twice is two devices, each counted; the rows of
        # deltas, weights and terminals must pair up.
        tree = tree_of(0, [(1, 0)])
        delta = np.array([1.5, -3.0])
        twice = (np.array([delta, delta]), [0.5, 0.5])
        assert np.array_equal(hierfl.flat_aggregate(*twice), delta)
        assert np.array_equal(hierfl.tree_aggregate(tree, *twice, [1, 1]), delta)
        with pytest.raises(ValueError):
            hierfl.tree_aggregate(tree, *twice, [1])


def make_fleet(heterogeneity, eta, rng_seed=100, local_steps=5):
    """Ten equally weighted devices and the settings they train with."""
    settings = TrainingSettings(
        dim=12, samples_per_device=24, heterogeneity=heterogeneity, noise_std=0.1,
        local_steps=local_steps, learning_rate=eta, batch_size=8)
    return (hierfl.make_synthetic_tasks([1 / 10] * 10, settings,
                                        np.random.default_rng(rng_seed)), settings)


def test_synthetic_tasks_take_the_given_weights():
    # One device per weight, in order; the weights change no draw.
    settings = TrainingSettings(dim=4, samples_per_device=6)
    stack = hierfl.make_synthetic_tasks([0.9, 0.1], settings, np.random.default_rng(1))
    equal = hierfl.make_synthetic_tasks([0.5, 0.5], settings, np.random.default_rng(1))
    assert stack.weights.tolist() == [0.9, 0.1]
    assert stack.features.shape == (2, 6, 4) and stack.targets.shape == (2, 6)
    assert np.array_equal(stack.features, equal.features)
    assert np.array_equal(stack.targets, equal.targets)


def test_global_loss_adds_left_to_right():
    # Device losses 1e16, then 1 nine times, at the zero model (zero
    # features, targets (1e8, 1e8) and (1, 1)). Added left to right each 1
    # rounds away, as the spacing of floats at 1e16 is 2. A compensated sum
    # (math.fsum, the built-in sum() over floats from Python 3.12 on), a
    # pairwise one (numpy's, from 8 terms on) or the reverse order keeps
    # some of the ones.
    losses = [1e16] + [1.0] * 9
    targets = np.array([[1e8, 1e8]] + [[1.0, 1.0]] * 9)
    stack = DeviceStack(np.zeros((10, 2, 1)), targets, np.ones(10))
    assert [t.loss(np.zeros(1)) for t in oracles.local_tasks(stack)] == losses
    assert math.fsum(losses) > 1e16 and math.fsum(reversed(losses)) > 1e16
    assert hierfl.global_loss(stack, np.zeros(1)) == 1e16


def test_stack_rejects_inconsistent_devices():
    with pytest.raises(ValueError, match="device 1"):
        DeviceStack(np.zeros((2, 3, 1)), np.zeros((2, 3)), np.array([0.5, -0.5]))
    with pytest.raises(ValueError, match="targets"):
        DeviceStack(np.zeros((2, 3, 1)), np.zeros((2, 4)), np.ones(2))
    with pytest.raises(ValueError, match="weights"):
        DeviceStack(np.zeros((2, 3, 1)), np.zeros((2, 3)), np.ones(3))


# (devices, samples, dim, batch_size, local_steps, heterogeneity): each edge
# case once, then random shapes.
EDGE_SHAPES = [
    (1, 5, 3, 2, 3, 0.5),     # one device
    (4, 6, 1, 3, 2, 1.0),     # dim 1
    (3, 1, 4, 1, 2, 1.0),     # one sample, which the batch covers
    (3, 7, 3, 7, 2, 1.0),     # batch of every sample: full batch
    (3, 7, 3, 9, 2, 1.0),     # batch larger than the samples: full batch
    (5, 8, 4, 3, 1, 1.0),     # one local step
    (5, 8, 4, 3, 3, 0.0),     # heterogeneity 0
    (4, 8, 3, 1, 2, 1.0),     # batch of one sample
    (12, 6, 3, 2, 2, 1.0),    # more devices than numpy's pairwise-sum block
]


def random_shapes(count, seed=2022):
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        samples = int(rng.integers(1, 13))
        shapes.append((int(rng.integers(1, 7)), samples, int(rng.integers(1, 7)),
                       int(rng.integers(1, samples + 3)), int(rng.integers(1, 5)),
                       float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))))
    return shapes


ORACLE_SHAPES = EDGE_SHAPES + random_shapes(20)


def shape_id(shape):
    return "D{}-S{}-dim{}-B{}-E{}-h{:.2g}".format(*shape)


def oracle_fleet(shape, seed=9):
    """The stack, the oracle's per-device tasks from the same seed, the
    settings, and the two generators after their draws."""
    devices, samples, dim, batch, steps, heterogeneity = shape
    settings = TrainingSettings(
        dim=dim, samples_per_device=samples, heterogeneity=heterogeneity,
        noise_std=0.1, local_steps=steps, learning_rate=0.05, batch_size=batch)
    raw = np.random.default_rng(seed).uniform(0.1, 1.0, devices)
    weights = (raw / raw.sum()).tolist()
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    return (hierfl.make_synthetic_tasks(weights, settings, rng),
            oracles.make_tasks(weights, settings, ref), settings, (rng, ref))


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
class TestStackMatchesOracle:
    """The stack against devices trained one at a time (`tests/oracles.py`),
    bit for bit."""

    def test_task_generation(self, shape):
        stack, tasks, _, (rng, ref) = oracle_fleet(shape)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert stack.weights.tolist() == [t.weight for t in tasks]
        assert np.array_equal(stack.features, np.array([t.features for t in tasks]))
        assert np.array_equal(stack.targets, np.array([t.targets for t in tasks]))

    def test_deltas_and_generator_state(self, shape):
        stack, tasks, settings, _ = oracle_fleet(shape)
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        for x in (np.zeros(stack.dim), np.random.default_rng(2).standard_normal(stack.dim)):
            deltas = hierfl.local_update(stack, x, settings, rng)
            expected = [oracles.local_update(t, x, settings, ref) for t in tasks]
            assert np.array_equal(deltas, np.array(expected))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_loss_gradient_smoothness(self, shape):
        stack, tasks, _, _ = oracle_fleet(shape)
        for x in (np.zeros(stack.dim), np.random.default_rng(2).standard_normal(stack.dim)):
            assert hierfl.global_loss(stack, x) == oracles.global_loss(tasks, x)
            assert np.array_equal(hierfl.global_gradient(stack, x),
                                  oracles.global_gradient(tasks, x))
        assert hierfl.smoothness_constant(stack) == oracles.smoothness_constant(tasks)

    def test_training_trace(self, shape):
        stack, tasks, settings, _ = oracle_fleet(shape)
        failed = [False, True, False, False]
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert (hierfl.run_training(stack, failed, settings, rng)
                == oracles.train_per_device(tasks, failed, settings, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_a_device_listed_twice_counts_twice():
    # Devices are the stack's rows: a device repeated at half weight trains
    # as the device once at full weight (full batches, so no draws), where
    # keying updates by a shared device id would drop one of them.
    one, settings = quadratic_task(np.random.default_rng(5), local_steps=2,
                                   learning_rate=0.05)
    twice = DeviceStack(np.repeat(one.features, 2, axis=0),
                        np.repeat(one.targets, 2, axis=0), np.array([0.5, 0.5]))
    assert (hierfl.run_training(twice, [False] * 3, settings, np.random.default_rng(0))
            == hierfl.run_training(one, [False] * 3, settings, np.random.default_rng(0)))


class TestRunTraining:
    def test_single_step_full_batch_equals_centralized(self):
        # With E = 1 and full batches the federated round IS one centralized
        # gradient step on the weighted objective.
        rng = np.random.default_rng(21)
        settings = TrainingSettings(
            dim=10, samples_per_device=16, heterogeneity=1.0, noise_std=0.2,
            local_steps=1, learning_rate=0.02, batch_size=16)
        stack = hierfl.make_synthetic_tasks([1 / 6] * 6, settings, rng)
        fed = hierfl.run_training(stack, [False] * 50, settings, np.random.default_rng(0))
        cent = centralized_gd(stack, 50, 0.02)
        for (_, lf, gf), (_, lc, gc) in zip(fed, cent):
            assert lf == pytest.approx(lc, rel=1e-10, abs=1e-10)
            assert gf == pytest.approx(gc, rel=1e-10, abs=1e-10)

    def test_iid_moving_average_decreases(self):
        stack, settings = make_fleet(0.0, 0.03)
        trace = hierfl.run_training(stack, [False] * 100, settings, np.random.default_rng(7))
        losses = [x[1] for x in trace]
        ma = [float(np.mean(losses[i:i + 10])) for i in range(len(losses) - 9)]
        # Downward trend: upticks are bounded by the SGD noise floor, and the
        # early descent is strict.
        tol = 1e-3 * ma[0]
        assert all(ma[i + 1] <= ma[i] + tol for i in range(len(ma) - 1))
        assert ma[10] < ma[0] and ma[-1] < 0.1 * ma[0]
        # Oracle: exact gradient descent with the same step budget ends lower.
        cent = centralized_gd(stack, 100 * 5, 0.03)
        assert cent[-1][1] <= losses[-1] + 1e-12

    def test_heterogeneity_widens_centralized_gap(self):
        # Paired runs: identical seeds, only the spread of device optima
        # changes. Both runs reach their floors (centralized gets the same
        # total gradient-step budget), so the gap difference isolates the
        # client-drift bias added by heterogeneous data.
        def gap(h):
            stack, settings = make_fleet(h, 0.03)
            fed = hierfl.run_training(stack, [False] * 400, settings, np.random.default_rng(7))
            cent = centralized_gd(stack, 400 * 5, 0.03)
            return fed[-1][1] - cent[-1][1]

        g_iid, g_mid, g_het = gap(0.0), gap(1.0), gap(2.0)
        assert g_het > g_mid > g_iid

    def test_failed_rounds_leave_the_model_unchanged(self):
        # Every round fails: the loss stays the zero model's, and every
        # device's update is still drawn.
        stack, settings = make_fleet(0.0, 0.03)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        trace = hierfl.run_training(stack, [True] * 4, settings, rng)
        zero = hierfl.global_loss(stack, np.zeros(stack.dim))
        assert [(t, loss) for t, loss, _ in trace] == [(t, zero) for t in range(4)]
        hierfl.run_training(stack, [False] * 4, settings, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_failed_round_between_applied_rounds(self):
        # Round 1 fails: it keeps round 0's model, and round 2 starts from
        # that model with the draws that follow round 1's.
        stack, settings = make_fleet(0.0, 0.03)
        trace = hierfl.run_training(stack, [False, True, False], settings,
                                    np.random.default_rng(3))
        rng = np.random.default_rng(3)
        x = np.zeros(stack.dim)
        models = []
        for applied in (True, False, True):
            deltas = hierfl.local_update(stack, x, settings, rng)
            if applied:
                x = x + hierfl.flat_aggregate(deltas, stack.weights)
            models.append(x)
        assert [loss for _, loss, _ in trace] == [
            hierfl.global_loss(stack, m) for m in models]
        assert trace[1][1:] == trace[0][1:] and trace[2][1] < trace[1][1]

    def test_divergence_aborts(self):
        stack, settings = make_fleet(0.0, 50.0)  # far above the stability cap
        with pytest.raises(hierfl.TrainingDivergedError):
            hierfl.run_training(stack, [False] * 200, settings, np.random.default_rng(0))


class TestLearningRateGuard:
    def test_bound_shape(self):
        assert hierfl.learning_rate_bound(2.0, 1) == pytest.approx(0.25)
        e5 = hierfl.learning_rate_bound(2.0, 5)
        assert e5 == pytest.approx(min(1 / 20, 1 / (2 * np.sqrt(2 * 5 * 4 * 3))))

    def test_warns_above_cap(self):
        stack, settings = make_fleet(0.0, 0.5)
        with pytest.warns(RuntimeWarning):
            hierfl.check_learning_rate(stack, settings)

    def test_silent_below_cap(self):
        stack, settings = make_fleet(0.0, 1e-4)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hierfl.check_learning_rate(stack, settings)


def test_loss_trace_csv(tmp_path):
    trace = [(0, 1.5, 0.7), (1, 1.2, 0.5)]
    path = tmp_path / "trace.csv"
    hierfl.write_loss_trace_csv(path, trace, energy_per_round=[10.0, 12.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,global_loss,grad_norm,cumulative_energy_j"
    assert lines[1] == "0,1.5,0.7,10.0"
    assert lines[2] == "1,1.2,0.5,22.0"
