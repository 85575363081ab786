"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap the
package's functions by name and read its objects from their hooks. Reads
that pin `src/` include:

- the `.edges` of every tree that `routing.d_merge` returns;
- every graph's `dropped_edges` (from `topology.build_snapshot` and
  `topology.robust_weights`);
- `sim.terminals_for_round(...)[1]`, the round's terminals.

A refactor that drops such a name crashes every traced run while the
untraced suite still passes, so each traced command runs here on a small
config. A wrapped function that the package no longer has counts zero
calls and zeroes its per-layer metrics without failing the run, so the
names that are absent today are pinned too."""
import sys
from pathlib import Path

import pytest

from satagg.cli import parse_and_dispatch
from satagg.sim import ALGORITHMS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402

# Wrapped by the tracer, but moved to the tests (`nearest_in_orbit`,
# `chu_liu_edmonds`, the per-frame `taeer`, which the package solves a round
# at a time in `taeer_round`) or deleted from the package.
ABSENT = ["geometry.nearest_in_orbit", "routing.taeer", "routing.dijkstra",
          "routing.build_substitute_graph", "routing.chu_liu_edmonds"]

TRACED_CFG = """
[constellation]
pattern = delta
altitude_km = 500
inclination_deg = 45

[time]
frames_per_slot = 5

[algorithms]
names = taeer, d_merge, orbit_greedy
rho = 0.1

[run]
rounds = 2
seed = 42

[training]
rounds = 2
"""


@pytest.mark.parametrize("command, algorithms", [
    ("compare-algorithms", ALGORITHMS), ("train", ("taeer",))],
    ids=["compare-algorithms", "train"])
def test_traced_command_runs_clean(tmp_path, command, algorithms):
    cfg = tmp_path / "traced.cfg"
    cfg.write_text(TRACED_CFG)
    tracer = Tracer("traced").install()
    try:
        code = tracer.call("cli.parse_and_dispatch", parse_and_dispatch,
                           [command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == ABSENT
    assert tracer.errors == []
    assert sorted(tracer.records) == sorted(algorithms)
    assert all(len(recs) == 2 for recs in tracer.records.values())
    # The tracer counts the frames of the routers called once per frame.
    per_frame = [a for a in algorithms if a != "taeer"]
    assert tracer.metrics()["sim.frames"][0] == 2 * 5 * len(per_frame)
