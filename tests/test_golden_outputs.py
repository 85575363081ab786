"""Every output file of a set of short CLI commands, pinned by sha256.

A refactor that means to keep the outputs must keep these digests. They
were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64; another numpy
(or a libm with other rounding) may change the last bits of a float and
with them a digest, which this test then reports file by file.

The commands run on the shipped 80-satellite scenarios, cut to 2 routed
rounds and 3 training rounds: `compare-algorithms` at rho 1 (delta) and at
rho 0.1 (star, outage sampling on), `run-scenario`, `train`,
`export-snapshot` at a slot past the first period, `link-sweep` and
`generate-constellation`. `link-sweep` and `export-snapshot` run once more
on the star scenario with a narrower transmit beam and a stricter SNR
threshold than the defaults, so that settings the shipped scenarios leave
at their defaults reach the link budget. `train` runs once more on four
clusters with unequal weights (`clusters_unequal.csv`), and
`compare-algorithms` once more on the star scenario with a 53.3 s slot, a
length that a round trip through the period would not keep
(53.3 * 111 / 111 != 53.3). One routed round of 5 frames on the shipped
800-satellite star, the benchmark's star800 size, covers the large shell.
"""
import configparser
import hashlib
from pathlib import Path

from satagg.cli import parse_and_dispatch

SCENARIOS = Path(__file__).parent.parent / "scenarios"

# Non-default [link] settings for the *_link commands.
LINK = {"link": {"tx_divergence_rad": "0.05", "snr_threshold_db": "-100"}}
WEIGHTED = {"clusters": {"file": str(Path(__file__).parent / "clusters_unequal.csv")}}

# (name, scenario, {section: {key: value}} settings, extra arguments);
# outputs go to <tmp>/<name>/.
COMMANDS = (
    ("compare_rho1", "walker_delta_80.cfg", {}, ["compare-algorithms"]),
    ("compare_rho0.1", "walker_star_80.cfg", {}, ["compare-algorithms"]),
    ("run", "walker_star_80.cfg", {}, ["run-scenario", "--algorithms", "d_merge"]),
    ("train", "walker_delta_80.cfg", {}, ["train"]),
    ("snapshot", "walker_delta_80.cfg", {}, ["export-snapshot", "--slot", "30"]),
    ("sweep", "walker_delta_80.cfg", {}, ["link-sweep"]),
    ("ephemerides", "walker_delta_80.cfg", {}, ["generate-constellation"]),
    ("snapshot_link", "walker_star_80.cfg", LINK, ["export-snapshot", "--slot", "3"]),
    ("sweep_link", "walker_star_80.cfg", LINK, ["link-sweep"]),
    ("train_weighted", "walker_delta_80.cfg", WEIGHTED, ["train"]),
    ("compare_slot53.3", "walker_star_80.cfg", {"time": {"slot_len_s": "53.3"}},
     ["compare-algorithms"]),
    ("compare_star800", "walker_star_800.cfg",
     {"run": {"rounds": "1", "seed": "42"}, "time": {"frames_per_slot": "5"}},
     ["compare-algorithms"]),
)

DIGESTS = {
    "compare_rho1/comparison.json":
        "093f34b4925684a1cfdb06fab90bd33423a078dcd920b6e2c7cab06e492c07e8",
    "compare_rho1/rounds_d_merge.csv":
        "f018915f251e00d82f0f31680e517fc505fea35d59d23a68c3605c9327e2e491",
    "compare_rho1/rounds_orbit_greedy.csv":
        "826e29d7a3ae43b8e79c0ee9a19862b4c12abd6839444f21a501ba2846dd077c",
    "compare_rho1/rounds_taeer.csv":
        "11f628b7ec58ad90d0cb49650ed11cc3d7be9242f9d3535fc40c5bbe126a050a",
    "compare_rho0.1/comparison.json":
        "1f9a2eecc4cdfbb13cc62cfd964660145e455e499a9164013b49d6c083f5a897",
    "compare_rho0.1/rounds_d_merge.csv":
        "1ea3d873c2596ba72ed8d86aa24076d67c04d511234dbaf2a413008ce7af2ec7",
    "compare_rho0.1/rounds_orbit_greedy.csv":
        "12273ae04573bcea1401080f068654393493bc8b36658f975e66afa7bd816cc9",
    "compare_rho0.1/rounds_taeer.csv":
        "19a613314e169b33662901d97ce251283ad84e300432e398199273baaed3ca6b",
    "run/metrics.json":
        "3db0825d58ac1db95c2c59fe4bfd0c08c339e72dc3dc6aac595b76aec186e81f",
    "run/rounds.csv":
        "1ea3d873c2596ba72ed8d86aa24076d67c04d511234dbaf2a413008ce7af2ec7",
    "train/loss_trace.csv":
        "406f9ae45fc42dbe01dd2a7756fe414990f9d58e02a675119676c5a308dd35a6",
    "snapshot/snapshot_slot30.csv":
        "d6e060e97d802df47a5c4dc423de3c46fdde696aad67c9b03ac10e3cd3eda035",
    "sweep/link_sweep.csv":
        "7390dc92d6db65070cab49ed13a98128fbd6471fcd92209da5dc8175ed51914f",
    "ephemerides/ephemerides.csv":
        "836c706bbee22ade3cc61b6ad59eed6d4144593b9a663e5f1a3fd60c9a311f4b",
    "snapshot_link/snapshot_slot3.csv":
        "a2bb7a7fd487d9cbeab5f4538de37bb36d0443e4837e72d388170eeeb5257da5",
    "sweep_link/link_sweep.csv":
        "d72cef1ebd4720e3ac13010ea948173c464921eb191aeb714e58dd98f4549cac",
    "train_weighted/loss_trace.csv":
        "a53e5e9433a995db3ef6232b58ee8970bafaee79a93c60907ff2f57b2186f593",
    "compare_slot53.3/comparison.json":
        "0daf260aaa761a8d9d9a4e5ce9d957f9dbb5162b58d068b8beb02d9213fc740d",
    "compare_slot53.3/rounds_d_merge.csv":
        "ccbdcad1925d8d6a9ec0bd88c306c440ff0f6f0b3575308ce8829810f10cd503",
    "compare_slot53.3/rounds_orbit_greedy.csv":
        "86023e7e2a7a9bcd52e58dcf4c40f2bef6c1af09204702386d4fa30595fed3cc",
    "compare_slot53.3/rounds_taeer.csv":
        "58309c1386801c92836bcef06cf8700ce70c2825fa8403d66334dc09269410f5",
    "compare_star800/comparison.json":
        "ca7887a3dd1b3b839605291b330bc06b61f91064c22e5fc4901c70d6ff9c642f",
    "compare_star800/rounds_d_merge.csv":
        "09185ddd2dbcaad837251d3d3269379ab10a3550e38be0d8ebc4f5a8b11e8306",
    "compare_star800/rounds_taeer.csv":
        "84b8ba672cab57f2764c6ea7fe86ad5dbe2786dc44e701dc94b7d2642d870eb9",
}


def short_config(tmp_path, name, scenario, settings):
    """The shipped scenario with 2 routed rounds, 3 training rounds and the
    given settings."""
    values = configparser.ConfigParser(interpolation=None)
    values.read(SCENARIOS / scenario)
    values["run"]["rounds"] = "2"
    values["training"] = {"rounds": "3"}
    for section, keys in settings.items():
        values[section] = keys
    path = tmp_path / f"{name}.cfg"
    with open(path, "w") as fh:
        values.write(fh)
    return path


def output_digests(tmp_path):
    """{"name/file": sha256} of every file the commands write."""
    digests = {}
    for name, scenario, settings, argv in COMMANDS:
        out = tmp_path / name
        config = short_config(tmp_path, name, scenario, settings)
        code = parse_and_dispatch(argv + ["--config", str(config), "--out", str(out)])
        assert code == 0, name
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_pinned_digests(tmp_path):
    got = output_digests(tmp_path)
    changed = sorted(k for k in got.keys() & DIGESTS.keys() if got[k] != DIGESTS[k])
    missing = sorted(DIGESTS.keys() - got.keys())
    new = sorted(got.keys() - DIGESTS.keys())
    assert not (changed or missing or new), \
        f"changed: {changed}; missing: {missing}; new: {new}"
