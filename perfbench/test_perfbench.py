"""Self-tests of the pipeline benchmark.

Run from the repository root: python3 -m pytest -q perfbench
"""
import dataclasses
import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import verify  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, ROOT, WORKLOADS, command_argv,  # noqa: E402
                       output_files, size_of, write_config)

sys.path.insert(0, str(ROOT / "src"))
from satagg import channel, cli, routing, sim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    """One traced 1-round run per workload, with the minimum of untraced commands."""
    return {name: bench.run(name, DEFAULT_SEED, seconds=0, trace=True, rounds=1)
            for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_verification(smoke, name):
    result, meta = smoke[name]
    assert meta["failures"] == []
    assert result["correct"] and result["failed"] == 0
    ops = size_of(WORKLOADS[name], rounds=1).operations
    assert result["attempted"] == ops * (1 + meta["commands"])
    assert meta["absent"] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_are_byte_identical_to_untraced(smoke, name):
    work = bench.WORK / name
    traced, untraced = work / "out001", work / "out002"
    for f in output_files(WORKLOADS[name], size_of(WORKLOADS[name], rounds=1)):
        assert filecmp.cmp(traced / f, untraced / f, shallow=False), f


def test_metric_names_match_benchmark_json(smoke):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result, _ in smoke.values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    result, _ = bench.run("train80", DEFAULT_SEED, seconds=0, trace=False, rounds=1)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_dijkstra_duplicates_between_taeer_and_d_merge(smoke):
    assert smoke["delta80"][0]["metrics"]["routing.dijkstra.dup_frac"]["value"] == 0.5
    assert smoke["train80"][0]["metrics"]["routing.dijkstra.dup_frac"]["value"] == 0.0


def test_layer_self_times_cover_the_traced_command(smoke):
    m = {k: v["value"] for k, v in smoke["star80_outage"][0]["metrics"].items()}
    assert m["trace.self_sum_s"] + m["trace.hooks_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)


def _delta80_once(tmp_path):
    workload = WORKLOADS["delta80"]
    config = write_config(workload, DEFAULT_SEED, tmp_path / "scenario.cfg", rounds=1)
    out = tmp_path / "out"
    assert cli.parse_and_dispatch(command_argv(workload, config, out)) == 0
    fails = verify.Failures(size_of(workload, rounds=1))
    verify.check_outputs(workload, fails.size, out, DEFAULT_SEED, fails)
    return fails


def test_wrong_tree_fails_verification(tmp_path, monkeypatch):
    correct = routing.taeer

    def drop_one_edge(g, u, terminals, root):
        arb = correct(g, u, terminals, root)
        return dataclasses.replace(arb, edges=arb.edges[1:], edge_ids=arb.edge_ids[1:])

    monkeypatch.setattr(routing, "taeer", drop_one_edge)
    tracer = Tracer("delta80").install()
    try:
        fails = _delta80_once(tmp_path)
    finally:
        tracer.uninstall()
    assert ("taeer", 0) in fails.ops
    assert tracer.errors and tracer.errors[0][:2] == ("taeer", 0)


def test_outage_stream_change_still_passes(tmp_path, monkeypatch):
    """Drawing attempt counts from a geometric law (the same distribution
    from another random stream) changes retransmissions but no pinned output."""
    def geometric_attempts(rng, gamma0_value, params, max_attempts=100):
        if gamma0_value >= 1.0:
            return max_attempts, False
        if gamma0_value <= 0.0:
            return 1, True
        k = int(rng.geometric(1.0 - channel.outage_from_gamma0(gamma0_value, params)))
        return (k, True) if k <= max_attempts else (max_attempts, False)

    workload = WORKLOADS["star80_outage"]
    config = write_config(workload, DEFAULT_SEED, tmp_path / "scenario.cfg", rounds=1)
    outputs = {}
    for name, patch in (("stock", sim.sample_attempts), ("geometric", geometric_attempts)):
        monkeypatch.setattr(sim, "sample_attempts", patch)
        out = tmp_path / name
        assert cli.parse_and_dispatch(command_argv(workload, config, out)) == 0
        fails = verify.Failures(size_of(workload, rounds=1))
        verify.check_outputs(workload, fails.size, out, DEFAULT_SEED, fails)
        assert not fails.ops, fails.messages
        outputs[name] = (out / "rounds_taeer.csv").read_bytes()
    assert outputs["stock"] != outputs["geometric"]


def test_absent_functions_count_zero_calls(tmp_path, monkeypatch):
    monkeypatch.delattr(sim, "sample_attempts")   # never called at rho = 1
    tracer = Tracer("delta80").install()
    try:
        fails = _delta80_once(tmp_path)
    finally:
        tracer.uninstall()
    assert not fails.ops
    assert tracer.absent == ["sim.sample_attempts"]
    metrics = tracer.metrics()
    assert metrics["sim.sample_attempts.calls"] == (0, "count")
    assert metrics["trace.absent"] == (1, "count")
    assert metrics["routing.dijkstra.calls"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "delta80",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
