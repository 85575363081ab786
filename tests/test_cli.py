import configparser
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satagg import config as cfgmod
from satagg import geometry, hierfl, sim, topology
from satagg.cli import parse_and_dispatch

SCENARIOS = Path(__file__).parent.parent / "scenarios"

SMALL_CFG = """
[constellation]
pattern = delta
altitude_km = 500
inclination_deg = 45

[clusters]
count = 8

[run]
rounds = 2
seed = 11

[algorithms]
names = taeer
rho = 1.0

[training]
rounds = 5
dim = 6
samples_per_device = 12
"""


def reject_constant(name):
    """json.loads's parse_constant: the exports are strict JSON, which has
    no NaN or Infinity."""
    raise ValueError(f"non-JSON constant {name}")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


class TestDefaultsMatchReferenceSettings:
    def test_parameter_table_defaults(self):
        cfg = cfgmod.read_config(None)
        assert cfg["constellation"]["pattern"] == "star"
        assert int(cfg["constellation"]["num_orbits"]) == 4
        assert int(cfg["constellation"]["num_orbits"]) * \
            int(cfg["constellation"]["sats_per_orbit"]) == 80
        assert float(cfg["constellation"]["altitude_km"]) == 700.0
        assert float(cfg["time"]["slot_len_s"]) == 250.0
        assert float(cfg["time"]["slot_len_s"]) / \
            int(cfg["time"]["frames_per_slot"]) == 10.0
        assert float(cfg["link"]["carrier_freq_hz"]) == 193e12
        assert float(cfg["link"]["bandwidth_fraction"]) == 0.02
        assert float(cfg["link"]["tx_power_min_w"]) == 0.0316
        assert float(cfg["link"]["tx_power_max_w"]) == 5.0
        assert float(cfg["link"]["optical_efficiency"]) == 0.8
        assert float(cfg["link"]["rx_telescope_diameter_m"]) == 0.006
        assert float(cfg["link"]["pointing_error_rad"]) == 0.01
        assert float(cfg["link"]["beamwidth_3db_rad"]) == 0.1
        assert float(cfg["link"]["boltzmann_j_per_k"]) == 1.38e-23
        assert float(cfg["link"]["solar_temp_k"]) == 6000.0
        assert float(cfg["link"]["system_temp_k"]) == 1000.0
        assert float(cfg["link"]["cmb_temp_k"]) == 2.725
        assert float(cfg["link"]["pointing_error_scale_rad"]) == 0.05
        assert float(cfg["link"]["snr_threshold_db"]) == -110.0
        assert int(cfg["clusters"]["count"]) == 41
        assert int(cfg["run"]["rounds"]) == 300
        assert int(cfg["training"]["local_steps"]) == 5
        assert int(cfg["training"]["batch_size"]) == 32
        assert float(cfg["training"]["learning_rate"]) == 0.001

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[link]\nwarp_drive = 9\n")
        with pytest.raises(cfgmod.ConfigError, match="warp_drive"):
            cfgmod.read_config(str(path))


class TestDispatch:
    def test_run_scenario_happy_path(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "out"
        code = parse_and_dispatch(["run-scenario", "--config", cfg_file,
                                   "--seed", "42", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "metrics.json").read_text())
        assert data["algorithm"] == "taeer"
        assert data["rounds"] == 2
        assert (out / "rounds.csv").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = parse_and_dispatch(["run-scenario", "--config",
                                   str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_rho_bound_violation_named(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG.replace("rho = 1.0", "rho = 1.5"))
        code = parse_and_dispatch(["run-scenario", "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "algorithms.rho" in err and "[0, 1]" in err

    def test_frames_per_slot_bound_violation_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "\n[time]\nframes_per_slot = 0\n")
        assert parse_and_dispatch(["run-scenario", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config field 'time.frames_per_slot'" in err

    @pytest.mark.parametrize("value", ["0", "-250", "inf", "nan"])
    def test_slot_len_bound_violation_named(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + f"\n[time]\nslot_len_s = {value}\n")
        assert parse_and_dispatch(["run-scenario", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config field 'time.slot_len_s'" in err

    def test_removed_sample_outages_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG.replace("seed = 11\n",
                                         "seed = 11\nsample_outages = false\n"))
        assert parse_and_dispatch(["run-scenario", "--config", str(bad)]) == 2
        assert "run.sample_outages" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["generate-constellation", "--t", value],
                     "config field 't': must be finite and >= 0",
                     id=value) for value in ("-1", "nan", "inf")] + [
        pytest.param(["export-snapshot", "--slot", "-1"],
                     "config field 'slot': must be >= 0, got -1", id="slot-1"),
        # Its start time overflows a float; its file name would be too long.
        pytest.param(["export-snapshot", "--slot", "9" * 401],
                     "config field 'slot': gives a slot start time beyond the float range",
                     id="slot-401-digits")] + [
        # So late that the float spacing of the orbit phase would let
        # neighbouring satellites share a position.
        pytest.param(["export-snapshot", "--slot", "9" * digits],
                     "config field 'slot': gives a slot start time that is too late",
                     id=f"slot-{digits}-digits") for digits in (17, 20)] + [
        pytest.param(["generate-constellation", "--t", "1e20"],
                     "config field 't': is too late", id="1e20")])
    def test_bad_epoch_named(self, tmp_path, cfg_file, capsys, argv, message):
        # The flag that sets the epoch is named, and no output is left behind.
        out = tmp_path / "out"
        assert parse_and_dispatch(argv + ["--config", cfg_file, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_export_snapshot_15_digit_slot(self, tmp_path, cfg_file):
        # The float spacing of the orbit phase is still below half the
        # in-plane satellite spacing.
        out = tmp_path / "out"
        assert parse_and_dispatch(["export-snapshot", "--slot", "9" * 15, "--config",
                                   cfg_file, "--out", str(out)]) == 0
        assert (out / f"snapshot_slot{'9' * 15}.csv").exists()

    def test_unknown_subcommand_exit_2(self, capsys):
        assert parse_and_dispatch(["frobnicate"]) == 2

    def test_byte_identical_reruns(self, tmp_path, cfg_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = parse_and_dispatch(["run-scenario", "--config", cfg_file,
                                       "--seed", "7", "--rho", "0.1",
                                       "--out", str(out)])
            assert code == 0
            outs.append(((out / "metrics.json").read_bytes(),
                         (out / "rounds.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_compare_algorithms(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "cmp"
        code = parse_and_dispatch(["compare-algorithms", "--config", cfg_file,
                                   "--algorithms", "taeer,orbit_greedy",
                                   "--out", str(out)])
        assert code == 0
        data = json.loads((out / "comparison.json").read_text(),
                          parse_constant=reject_constant)
        assert set(data) == {"taeer", "orbit_greedy"}
        assert (out / "rounds_taeer.csv").exists()
        assert "avg energy per slot" in capsys.readouterr().out

    def test_generate_constellation(self, tmp_path, cfg_file):
        out = tmp_path / "eph"
        code = parse_and_dispatch(["generate-constellation", "--config", cfg_file,
                                   "--t", "0", "--out", str(out)])
        assert code == 0
        lines = (out / "ephemerides.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 80

    def test_generate_constellation_in_chunks(self, tmp_path, monkeypatch):
        # A 2-satellite shell at 9 s slots has 657 slot starts: three chunks
        # of at most EPHEMERIS_CHUNK epochs, and the bytes of one call for all.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[constellation]\nnum_orbits = 1\nsats_per_orbit = 2\n"
                       "phasing_factor = 0\n\n[time]\nslot_len_s = 9\n")
        sizes = []
        propagate = geometry.positions

        def recording(spec, t):
            sizes[-1].append(len(t))
            return propagate(spec, t)

        monkeypatch.setattr(geometry, "positions", recording)
        outs = []
        for chunk in (geometry.EPHEMERIS_CHUNK, 10 ** 6):
            monkeypatch.setattr(geometry, "EPHEMERIS_CHUNK", chunk)
            sizes.append([])
            out = tmp_path / str(chunk)
            assert parse_and_dispatch(["generate-constellation", "--config", str(cfg),
                                       "--out", str(out)]) == 0
            outs.append((out / "ephemerides.csv").read_bytes())
        chunked, whole = sizes
        assert sum(chunked) == sum(whole) == 657 and max(whole) == 657
        assert max(chunked) <= 256 and len([n for n in chunked if n]) == 3
        assert outs[0] == outs[1]

    def test_export_snapshot(self, tmp_path, cfg_file):
        out = tmp_path / "snap"
        code = parse_and_dispatch(["export-snapshot", "--config", cfg_file,
                                   "--slot", "3", "--out", str(out)])
        assert code == 0
        header = (out / "snapshot_slot3.csv").read_text().splitlines()[0]
        assert header.startswith("slot,frame,src_orbit")

    def test_export_snapshot_bytes_pinned(self, tmp_path):
        # The shipped delta80 scenario's slot-3 export, pinned byte for byte.
        out = tmp_path / "snap"
        assert parse_and_dispatch(["export-snapshot", "--config",
                                   str(SCENARIOS / "walker_delta_80.cfg"),
                                   "--slot", "3", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "snapshot_slot3.csv").read_bytes()).hexdigest()
        assert digest == "4d4165dc8ede4ae7fefee2e1aa56b5864106d19e3f0c0805e2c0531b0337e70f"

    def test_export_snapshot_matches_simulated_round(self, tmp_path, cfg_file,
                                                     monkeypatch):
        built = []
        build_snapshot = topology.build_snapshot

        def record(*args, **kwargs):
            built.append(build_snapshot(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(topology, "build_snapshot", record)
        sim.run_scenario(cfgmod.build_scenario(cfgmod.read_config(cfg_file)))
        monkeypatch.undo()
        out = tmp_path / "snap"
        assert parse_and_dispatch(["export-snapshot", "--config", cfg_file,
                                   "--slot", "1", "--out", str(out)]) == 0
        with open(out / "snapshot_slot1.csv", newline="") as fh:
            exported = [row["weight_j"] for row in csv.DictReader(fh)]
        assert exported == [repr(float(w)) for w in built[1].weights_j.ravel()]

    def test_link_sweep(self, tmp_path, cfg_file):
        out = tmp_path / "sweep"
        assert parse_and_dispatch(["link-sweep", "--config", cfg_file,
                                   "--out", str(out)]) == 0
        assert (out / "link_sweep.csv").exists()

    def test_unread_flags_rejected(self, cfg_file, capsys):
        # Only the routing commands read --rho and --algorithms.
        assert parse_and_dispatch(["link-sweep", "--config", cfg_file,
                                   "--rho", "0.3"]) == 2
        assert "--rho" in capsys.readouterr().err

    def test_train(self, tmp_path, cfg_file):
        out = tmp_path / "train"
        code = parse_and_dispatch(["train", "--config", cfg_file,
                                   "--out", str(out)])
        assert code == 0
        lines = (out / "loss_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "round,global_loss,grad_norm,cumulative_energy_j"
        assert len(lines) == 1 + 5
        # losses headed downward and energy strictly accumulating
        first, last = lines[1].split(","), lines[-1].split(",")
        assert float(last[1]) < float(first[1])
        assert float(last[3]) > float(first[3])


def test_train_energy_is_run_scenario_energy(tmp_path):
    # train charges each training round with the routed round of the same
    # scenario: every scenario setting must reach it, not only the defaults.
    text = (SMALL_CFG.replace("rounds = 2", "rounds = 5")
            .replace("rho = 1.0", "rho = 0.1")
            .replace("seed = 11", "seed = 11\nmax_attempts = 1"))
    path = tmp_path / "train.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    # One attempt per transmission fails every round of this run, so both
    # commands write their outputs and exit 1.
    for command in ("run-scenario", "train"):
        assert parse_and_dispatch([command, "--config", str(path),
                                   "--out", str(out)]) == 1
    with open(out / "rounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["failed"] for row in rows] == ["1"] * 5
    totals = [float(row["total_energy_j"]) for row in rows]
    with open(out / "loss_trace.csv", newline="") as fh:
        cumulative = [float(row["cumulative_energy_j"]) for row in csv.DictReader(fh)]
    running, expected = 0.0, []
    for total in totals:
        running += total
        expected.append(running)
    assert len(totals) == 5
    assert cumulative == expected


ONE_ROUND_CFG = """
[constellation]
pattern = delta
altitude_km = 500
inclination_deg = 45

[algorithms]
names = taeer, d_merge, orbit_greedy
rho = 0.1

[run]
rounds = 1
seed = 42

[training]
rounds = 1
"""

# Runs a command and prints its exit code, then every module that it
# imported, one line each.
IMPORTS_DURING_COMMAND = """
import sys
from satagg.cli import parse_and_dispatch
before = set(sys.modules)
code = parse_and_dispatch(sys.argv[1:])
print(code)
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("command", ["compare-algorithms", "train"])
def test_command_imports_no_module_midway(tmp_path, command):
    # A module imported on first use costs every command its import time:
    # np.unique imports numpy.ma, 11-27 ms in a fresh process. Only
    # argparse's gettext may import locale (and _locale) during a command.
    # The shell has 80 satellites and 25 frames per slot, so the path plans
    # are swept (routing.path_plans), and rho < 1 runs outage sampling.
    path = tmp_path / "one_round.cfg"
    path.write_text(ONE_ROUND_CFG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    run = subprocess.run(
        [sys.executable, "-c", IMPORTS_DURING_COMMAND, command, "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    code, imported = run.stdout.splitlines()[-2:]
    assert code == "0", run.stderr
    assert set(imported.split()) <= {"locale", "_locale"}


ONE_SATELLITE_CFG = """
[constellation]
num_orbits = 1
sats_per_orbit = 1
phasing_factor = 0

[run]
rounds = 2
seed = 3

[training]
rounds = 2
"""


@pytest.mark.parametrize("command", ["export-snapshot", "compare-algorithms",
                                     "run-scenario", "train"])
def test_one_satellite_shell(tmp_path, command):
    # A 1 x 1 shell has no ISL: its one satellite serves every cluster and
    # sends straight to the relay, so each round routes on the uplink alone.
    path = tmp_path / "one.cfg"
    path.write_text(ONE_SATELLITE_CFG)
    out = tmp_path / "out"
    assert parse_and_dispatch([command, "--config", str(path), "--out", str(out)]) == 0
    if command == "export-snapshot":
        with open(out / "snapshot_slot0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert {(r["src_orbit"], r["dst_orbit"]) for r in rows} == {("0", "-1")}
    elif command == "compare-algorithms":
        data = json.loads((out / "comparison.json").read_text(),
                          parse_constant=reject_constant)
        assert sorted(data) == ["d_merge", "orbit_greedy", "taeer"]
        assert all(v["failed_rounds"] == 0 for v in data.values())
    else:
        name = "metrics.json" if command == "run-scenario" else "loss_trace.csv"
        assert (out / name).stat().st_size > 0


class TestUnusableLinks:
    """A round that needs a link the model cannot use is recorded as failed
    and the run goes on. Outputs are always written; a run exits 1, naming
    each algorithm on stderr, iff some algorithm failed every round."""

    SPARSE_CFG = """
[constellation]
pattern = star
num_orbits = 4
sats_per_orbit = 4

[algorithms]
names = taeer, d_merge, orbit_greedy
rho = 0.1

[run]
rounds = 3
"""
    # At 3.5 km altitude almost no inter-orbit link closes, so terminals in
    # other orbits cannot reach the root: every taeer and d_merge round
    # fails, while orbit_greedy routes within orbits.
    LOW_ALTITUDE_CFG = """
[constellation]
altitude_km = 3.5

[run]
rounds = 2
seed = 1

[training]
rounds = 2
"""

    @staticmethod
    def _run(tmp_path, capsys, command, text, *extra):
        """(exit code, algorithms named on stderr as failing every round)."""
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        code = parse_and_dispatch([command, "--config", str(path),
                                   "--out", str(tmp_path / "out"), *extra])
        err = capsys.readouterr().err
        named = {n for n in ("taeer", "d_merge", "orbit_greedy")
                 if f"rounds of {n} failed" in err}
        return code, named

    @classmethod
    def _compare(cls, tmp_path, capsys, text, *extra):
        code, named = cls._run(tmp_path, capsys, "compare-algorithms", text, *extra)
        out = tmp_path / "out"
        data = json.loads((out / "comparison.json").read_text(),
                          parse_constant=reject_constant)
        failed = {}
        for name in data:
            with open(out / f"rounds_{name}.csv", newline="") as fh:
                failed[name] = [row["failed"] for row in csv.DictReader(fh)]
        every = {n for n in data if set(failed[n]) == {"1"}}
        assert named == every
        assert code == (1 if every else 0)
        return data, failed

    @pytest.mark.parametrize("seed", [2, 6])
    def test_sparse_shell_ring_in_certain_outage(self, tmp_path, capsys, seed):
        # With 4 satellites per orbit some ring links are in certain
        # outage, and orbit_greedy must use its whole ring arc.
        data, failed = self._compare(tmp_path, capsys, self.SPARSE_CFG, "--seed", str(seed))
        assert failed["orbit_greedy"] == ["1", "1", "1"]
        assert data["orbit_greedy"]["failed_rounds"] == 3
        for name in ("taeer", "d_merge"):
            assert data[name]["failed_rounds"] == failed[name].count("1")

    def test_every_link_unusable(self, tmp_path, capsys):
        text = "[link]\nrx_telescope_diameter_m = 1e-7\n[run]\nrounds = 1\nseed = 1\n"
        data, failed = self._compare(tmp_path, capsys, text)
        assert set(data) == {"taeer", "d_merge", "orbit_greedy"}
        for name in data:
            assert failed[name] == ["1"]
            assert data[name]["failed_rounds"] == 1

    def test_path_routers_fail_every_round_at_low_altitude(self, tmp_path, capsys):
        data, failed = self._compare(tmp_path, capsys, self.LOW_ALTITUDE_CFG)
        for name in ("taeer", "d_merge"):
            assert failed[name] == ["1", "1"]
            assert data[name]["avg_energy_per_slot_j"] is None
        assert failed["orbit_greedy"] == ["0", "0"]

    @pytest.mark.parametrize("command, output", [("run-scenario", "metrics.json"),
                                                 ("train", "loss_trace.csv")])
    def test_single_algorithm_fails_every_round(self, tmp_path, capsys, command, output):
        code, named = self._run(tmp_path, capsys, command, self.LOW_ALTITUDE_CFG)
        assert (code, named) == (1, {"taeer"})
        path = tmp_path / "out" / output
        assert path.stat().st_size > 0
        if output == "metrics.json":
            data = json.loads(path.read_text(), parse_constant=reject_constant)
            assert data["avg_energy_per_slot_j"] is None
        else:   # no round's update reached the model
            with open(path, newline="") as fh:
                losses = [row["global_loss"] for row in csv.DictReader(fh)]
            assert len(losses) == 2 and len(set(losses)) == 1


def _readme_default(cell):
    cell = cell.strip()
    if cell in ("(beamwidth)", "(none)"):
        return ""
    try:
        return float(cell)
    except ValueError:
        return cell


def test_readme_table_names_every_config_key():
    # Each row names one or more keys and their defaults, "a / b" for two.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    header = "| section.key | default | meaning |\n|---|---|---|\n"
    table = readme.split(header, 1)[1].split("\n\n", 1)[0]
    named = {}
    for row in table.splitlines():
        cells = row.split("|")
        section, keys = cells[1].strip().split(".", 1)
        keys = [key.strip() for key in keys.split("/")]
        defaults = cells[2].split(" / ") if len(keys) > 1 else [cells[2]]
        assert len(defaults) == len(keys), row
        for key, default in zip(keys, defaults):
            named[f"{section}.{key}"] = _readme_default(default)
    expected = {f"{section}.{key}": _readme_default(value)
                for section, keys in cfgmod.DEFAULTS.items() for key, value in keys.items()}
    assert named == expected


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_scenarios_parse(path):
    values = cfgmod.read_config(str(path))
    label = cfgmod.build_scenario(values).constellation_label
    _, pattern, total = path.stem.split("_")
    assert label.startswith(f"{total}/") and label.endswith(f"walker-{pattern}")
    cfgmod.build_training(values)


# Keys that a case of test_every_error_names_its_key sets besides its own:
# the noise power is zero only when all three noise temperatures are, and a
# drawing key is unused only beside a clusters file (ONE_CLUSTER, written in
# the working directory), with the other drawing key at its default.
ONE_CLUSTER = "one_cluster.csv"
ALONGSIDE = {("link", "system_temp_k", "0"): {"solar_temp_k": "0", "cmb_temp_k": "0"},
             ("clusters", "count", "12"): {"file": ONE_CLUSTER},
             ("clusters", "lat_band_deg", "30"): {"file": ONE_CLUSTER, "count": "41"}}
# Words that a case's message must hold besides its key.
WORDS = {("constellation", "num_orbits", "four"): "expected an integer",
         ("link", "tx_power_max_w", "0.01"): "must be >= 0.0316"}


@pytest.mark.parametrize("section, key, value", [
    ("constellation", "num_orbits", "0"),
    ("constellation", "altitude_km", "nan"),
    ("time", "frames_per_slot", "0"),
    ("link", "rx_telescope_diameter_m", "-1"),
    ("link", "tx_power_min_w", "0"),
    ("algorithms", "root_rule", "bogus"),   # a removed key, rejected as unknown
    ("algorithms", "names", "taeer, d_merge, taeer"),
    ("run", "max_attempts", "0"),
    ("run", "seed", "-1"),
    ("training", "batch_size", "0"),
    ("training", "noise_std", "nan"),
    ("constellation", "altitude_km", "1e300"),
    ("time", "slot_len_s", "1e300"),
    ("time", "slot_len_s", "1e9"),
    ("link", "rx_telescope_diameter_m", "nan"),
    ("link", "rx_telescope_diameter_m", "1e300"),
    ("link", "carrier_freq_hz", "inf"),
    ("link", "carrier_freq_hz", "1e300"),
    ("link", "beamwidth_3db_rad", "nan"),
    ("link", "beamwidth_3db_rad", "1e300"),
    ("link", "tx_divergence_rad", "1e300"),
    ("link", "pointing_error_scale_rad", "1e-300"),
    ("link", "snr_threshold_db", "1e300"),
    ("link", "payload_bits", "inf"),
    ("link", "tx_power_max_w", "inf"),
    ("link", "system_temp_k", "0"),         # with ALONGSIDE's: zero noise power
    ("constellation", "pattern", "hex"),
    ("constellation", "num_orbits", "four"),
    ("training", "learning_rate", "0"),
    ("link", "tx_power_max_w", "0.01"),     # below tx_power_min_w's 0.0316
    ("clusters", "count", "0"),
    ("clusters", "lat_band_deg", "95"),
    ("clusters", "count", "12"),            # with ALONGSIDE's clusters file
    ("clusters", "lat_band_deg", "30"),     # with ALONGSIDE's clusters file
])
def test_every_error_names_its_key(tmp_path, capsys, monkeypatch, section, key, value):
    def routed(cfg):
        raise AssertionError("routed before the config was checked")

    monkeypatch.setattr(sim, "run_scenario", routed)
    monkeypatch.chdir(tmp_path)
    (tmp_path / ONE_CLUSTER).write_text(HEADER + "0,10.0,20.0,1.0\n")
    values = configparser.ConfigParser(interpolation=None)
    values.read_string(SMALL_CFG)
    if not values.has_section(section):
        values.add_section(section)
    values.set(section, key, value)
    for other, other_value in ALONGSIDE.get((section, key, value), {}).items():
        values.set(section, other, other_value)
    bad = tmp_path / "bad.cfg"
    with open(bad, "w") as fh:
        values.write(fh)
    assert parse_and_dispatch(["train", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{section}.{key}'" in err
    assert WORDS.get((section, key, value), "") in err


def test_malformed_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rounds = 2\n[run\n")   # a key before any section
    assert parse_and_dispatch(["train", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{bad}'" in err and "malformed config" in err


def test_unknown_section_names_the_section(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG + "\n[bogus]\nrounds = 2\n")
    assert parse_and_dispatch(["train", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config field 'bogus'" in err and "unknown section" in err


@pytest.mark.parametrize("text, column", [
    ("cluster_id,lat_deg,lon_deg\n0,10.0,20.0\n", "weight"),
    ("cluster_id,lat_deg,lon_deg,weight\n0,10.0,20.0,half\n", "weight"),
    ("cluster_id,lat_deg,lon_deg,weight\n0,north,20.0,1.0\n", "lat_deg"),
])
def test_clusters_csv_errors_name_the_column(tmp_path, capsys, text, column):
    clusters = tmp_path / "clusters.csv"
    clusters.write_text(text)
    cfg = tmp_path / "clusters.cfg"
    cfg.write_text(SMALL_CFG.replace("count = 8\n", f"file = {clusters}\n"))
    assert parse_and_dispatch(["run-scenario", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'clusters.file'" in err and f"'{column}'" in err


HEADER = "cluster_id,lat_deg,lon_deg,weight\n"


@pytest.mark.parametrize("rows, column, words", [
    ("0,200.0,20.0,0.5\n1,-5.0,40.0,0.5\n", "lat_deg", "[-90, 90]"),
    ("0,-90.5,20.0,0.5\n1,-5.0,40.0,0.5\n", "lat_deg", "[-90, 90]"),
    ("0,10.0,inf,0.5\n1,-5.0,40.0,0.5\n", "lon_deg", "finite"),
    ("0,10.0,nan,0.5\n1,-5.0,40.0,0.5\n", "lon_deg", "finite"),
    ("0,10.0,20.0,-0.5\n1,-5.0,40.0,1.5\n", "weight", "> 0"),
    ("0,10.0,20.0,0.0\n1,-5.0,40.0,1.0\n", "weight", "> 0"),
    ("0,10.0,20.0,nan\n1,-5.0,40.0,0.5\n", "weight", "finite"),
    ("0,10.0,20.0,0.5\n0,-5.0,40.0,0.5\n", "cluster_id", "repeats 0"),
    ("0,10.0,20.0,0.5\n1,-5.0,40.0,0.25\n", "weight", "sum to 1"),
], ids=["lat_above_90", "lat_below_-90", "lon_inf", "lon_nan", "weight_negative",
        "weight_zero", "weight_nan", "repeated_cluster_id", "weights_sum_not_1"])
def test_clusters_csv_values_checked(tmp_path, capsys, rows, column, words):
    clusters = tmp_path / "clusters.csv"
    clusters.write_text(HEADER + rows)
    cfg = tmp_path / "clusters.cfg"
    cfg.write_text(SMALL_CFG.replace("count = 8\n", f"file = {clusters}\n"))
    assert parse_and_dispatch(["run-scenario", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'clusters.file'" in err
    assert f"'{column}'" in err and words in err


def test_clusters_csv_roundtrip(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("cluster_id,lat_deg,lon_deg,weight\n"
                    "0,10.0,20.0,0.5\n1,-5.0,40.0,0.5\n")
    cfg = cfgmod.read_config(None)
    cfg["clusters"]["file"] = str(path)
    cfg["run"]["seed"] = "1"
    scenario = cfgmod.build_scenario(cfg)
    assert len(scenario.clusters) == 2
    assert scenario.clusters[0].lat_deg == 10.0


def test_train_weights_devices_by_cluster_weight(tmp_path, monkeypatch):
    # Each cluster's device aggregates with the cluster's weight from the
    # CSV, so unequal weights change the loss trace.
    made = []
    make_synthetic_tasks = hierfl.make_synthetic_tasks

    def record(*args, **kwargs):
        made.append(make_synthetic_tasks(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(hierfl, "make_synthetic_tasks", record)
    traces = {}
    for weights in ((0.9, 0.1), (0.5, 0.5)):
        clusters = tmp_path / f"clusters_{weights[0]}.csv"
        clusters.write_text(HEADER + f"0,10.0,20.0,{weights[0]}\n"
                                     f"1,-5.0,40.0,{weights[1]}\n")
        cfg = tmp_path / f"clusters_{weights[0]}.cfg"
        cfg.write_text(SMALL_CFG.replace("count = 8\n", f"file = {clusters}\n"))
        out = tmp_path / f"out_{weights[0]}"
        assert parse_and_dispatch(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert made[-1].weights.tolist() == list(weights)
        traces[weights] = (out / "loss_trace.csv").read_bytes()
    assert traces[0.9, 0.1] != traces[0.5, 0.5]
