"""Regenerate `clusters.csv` and `expected.json`, the benchmark's fixed
cluster layout and the default-seed outputs that `verify.py` pins.

Usage (from the repository root): python3 perfbench/pin_expected.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run at the default seed is checked against what it writes.
"""
import csv
import json
import sys

from run import Run
from verify import EXPECTED, PATH_ALGORITHMS
from workloads import CLUSTERS, DEFAULT_SEED, ROOT, SCENARIOS, WORKLOADS, command_argv


def pin(name: str) -> dict:
    bench = Run(name, DEFAULT_SEED)
    out = bench.dir / "pin"
    result = bench.spawn(command_argv(bench.workload, bench.config, out), trace=True)
    if result["exit_code"] != 0 or result["errors"]:
        raise SystemExit(f"{name}: exit code {result['exit_code']}, errors {result['errors']}")
    entry = {"rounds": bench.size.rounds,
             "rows": {a: [r[1:4] for r in recs]
                      for a, recs in result["records"].items() if a in PATH_ALGORITHMS}}
    if bench.workload.command == "train":
        with open(out / "loss_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        entry["loss"] = [float(r["global_loss"]) for r in rows]
        entry["cumulative_energy_j"] = [float(r["cumulative_energy_j"]) for r in rows]
    elif bench.size.rho == 1.0:
        with open(out / "comparison.json") as fh:
            summary = json.load(fh)
        entry["avg_energy_per_slot_j"] = {a: m["avg_energy_per_slot_j"]
                                          for a, m in summary.items()}
    return entry


def write_clusters() -> None:
    """The cluster layout the shipped scenarios draw at the default seed."""
    sys.path.insert(0, str(ROOT / "src"))
    from satagg import config

    values = config.read_config(str(SCENARIOS / WORKLOADS["delta80"].scenario))
    with open(CLUSTERS, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["cluster_id", "lat_deg", "lon_deg", "weight"])
        for c in config.build_clusters(values, DEFAULT_SEED):
            out.writerow([c.cluster_id, repr(c.lat_deg), repr(c.lon_deg),
                          repr(c.device_weights[0])])


def main() -> int:
    write_clusters()
    pins = {"seed": DEFAULT_SEED, "workloads": {name: pin(name) for name in WORKLOADS}}
    with open(EXPECTED, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
