import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable
SCENARIOS = Path(__file__).parent.parent / "scenarios"

from satagg import channel, geometry, routing, sim, topology


@pytest.fixture
def params():
    return channel.LinkParams()


@pytest.fixture
def delta_spec():
    return geometry.ConstellationSpec.walker(80, 4, 1, 500.0, 45.0, "delta")


@pytest.fixture
def star_spec():
    return geometry.ConstellationSpec.walker(80, 4, 1, 700.0, 99.5, "star")


# The scenario default transmit-power range, sim.ScenarioConfig's.
TX_POWER_W = (0.0316, 5.0)


def make_scenario(spec, *, algorithms=("taeer",), rho=1.0, rounds=3, seed=7,
                  clusters=12, params=None, **settings):
    params = params or channel.LinkParams()
    times = topology.TimeStructure.for_constellation(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    return sim.ScenarioConfig(
        spec=spec, params=params, times=times,
        clusters=sim.random_clusters(rng, clusters),
        algorithms=tuple(algorithms), rho=rho, rounds=rounds, rng_seed=seed,
        **settings)


def random_digraph(rng, max_nodes=12, p=0.4, w_low=0.01, w_high=10.0,
                   min_nodes=2):
    """Random weighted digraph as (num_nodes, [(u, v, w), ...]); no parallel
    edges or self-loops."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v, float(rng.uniform(w_low, w_high))))
    return n, edges


def route(router, g, u, terminals, root):
    """A path router (taeer or d_merge) at frame u on that frame's
    shortest-path rows toward root, searched as the simulator does."""
    rows = routing.shortest_paths_to_root(g, u, terminals, root)
    return router(g, u, terminals, root, rows)
