"""Workload table and scenario-config generation for the pipeline benchmark.

Each workload is one `satagg` CLI command on a config generated from a
shipped `scenarios/*.cfg`. Only the run length (rounds, and frames per slot
for the 800-satellite shell), the seed and the cluster layout (the one the
scenarios draw at their own seed) are rewritten, so one command takes a few
seconds and a run can repeat it several times.
"""
import configparser
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
DEFAULT_SEED = 42  # the seed the shipped scenario files carry; outputs are pinned for it
# The 41 ground clusters that every shipped scenario draws at DEFAULT_SEED
# (clusters.count = 41, lat_band_deg = 60), written by pin_expected.py. The
# layout sets the terminal count and with it the path-search work, which
# varies by about 30% between seeds; holding it fixed lets the seed vary the
# power draws and random streams without varying the amount of work.
CLUSTERS = Path(__file__).resolve().parent / "clusters.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    command: str            # "compare-algorithms" or "train"
    rounds: int
    why: str
    overrides: dict = field(default_factory=dict)   # {(section, key): value}


WORKLOADS = {w.name: w for w in (
    Workload("delta80", "walker_delta_80.cfg", "compare-algorithms", rounds=4,
             why="80-sat delta at rho=1: path search twice per frame, "
                 "no outage sampling; control for the outage layers"),
    Workload("star80_outage", "walker_star_80.cfg", "compare-algorithms", rounds=3,
             why="80-sat star at rho=0.1: the only workload running robust_weights "
                 "and per-edge outage sampling"),
    Workload("star800", "walker_star_800.cfg", "compare-algorithms", rounds=1,
             overrides={("time", "frames_per_slot"): 5},
             why="800-sat star, taeer and d_merge: per-frame latency at scale and "
                 "per-slot ISL-pair and snapshot work"),
    Workload("train80", "walker_delta_80.cfg", "train", rounds=8,
             why="train on the 80-sat delta: the only workload running hierfl and "
                 "the single-algorithm run_scenario path"),
)}


def scenario(workload: Workload, seed: int = DEFAULT_SEED,
             rounds: int | None = None) -> configparser.ConfigParser:
    """The workload's shipped scenario with the benchmark's settings applied."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(SCENARIOS / workload.scenario) as fh:
        cp.read_file(fh)
    settings = {("run", "seed"): seed, _rounds_key(workload): rounds or workload.rounds,
                ("clusters", "file"): CLUSTERS, **workload.overrides}
    for (section, key), value in settings.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, str(value))
    return cp


def _rounds_key(workload: Workload) -> tuple:
    return ("training", "rounds") if workload.command == "train" else ("run", "rounds")


def write_config(workload: Workload, seed: int, path: Path,
                 rounds: int | None = None) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        scenario(workload, seed, rounds).write(fh)
    return path


@dataclass(frozen=True)
class Size:
    """Work done by one command, as the generated config defines it."""

    rounds: int
    frames: int
    satellites: int
    orbits: int
    algorithms: tuple
    rho: float

    @property
    def operations(self) -> int:
        """Operations checked per command: one per (algorithm, round)."""
        return len(self.algorithms) * self.rounds

    @property
    def frame_solves(self) -> int:
        return len(self.algorithms) * self.rounds * self.frames


def size_of(workload: Workload, rounds: int | None = None) -> Size:
    """Workload size read from the same settings the CLI will read.

    Missing keys fall back to the simulator's documented defaults (25 frames
    per slot, rho 1). `train` routes with the first configured algorithm only.
    """
    cp = scenario(workload, rounds=rounds)
    names = tuple(a.strip() for a in cp.get("algorithms", "names").split(",") if a.strip())
    if workload.command == "train":
        names = names[:1]
    orbits = cp.getint("constellation", "num_orbits")
    return Size(rounds=cp.getint(*_rounds_key(workload)),
                frames=cp.getint("time", "frames_per_slot", fallback=25),
                satellites=orbits * cp.getint("constellation", "sats_per_orbit"),
                orbits=orbits, algorithms=names,
                rho=cp.getfloat("algorithms", "rho", fallback=1.0))


def command_argv(workload: Workload, config_path: Path, out_dir: Path) -> list:
    return [workload.command, "--config", str(config_path), "--out", str(out_dir)]


def output_files(workload: Workload, size: Size) -> list:
    if workload.command == "train":
        return ["loss_trace.csv"]
    return ["comparison.json"] + [f"rounds_{a}.csv" for a in sorted(size.algorithms)]
