"""Output checks for the benchmark's CLI commands.

An operation is one (algorithm, round); every failed check marks the
operations it concerns as failed. Outputs that do not depend on the random
streams are pinned for the default seed in `expected.json` (produced by
`pin_expected.py` at the commit that introduced the benchmark):

- per-round root, terminal count and tree energy of `taeer` and `d_merge`;
- the average energy per slot of every algorithm at rho = 1;
- the `train` loss trace and its cumulative energy.

Everything that depends on the random streams (retransmissions, outage
percentages) is checked against invariants only, so an intended change of
stream still passes. Other seeds are checked by the invariants only.
"""
import csv
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, Size, Workload

EXPECTED = Path(__file__).resolve().parent / "expected.json"
REL_ENERGY = 1e-9     # pinned energies: equal up to floating-point association
REL_LOSS = 1e-6       # pinned loss trace: tree vs flat aggregation may reassociate sums
PATH_ALGORITHMS = ("taeer", "d_merge")


class Failures:
    """Failed operations of one command, with a message per failed check."""

    def __init__(self, size: Size):
        self.size = size
        self.ops = set()
        self.messages = []

    def add(self, algorithm, round_index, message):
        self.ops.add((algorithm, round_index))
        self.messages.append(f"{algorithm} round {round_index}: {message}")

    def add_all(self, message, algorithms=None):
        for a in algorithms or self.size.algorithms:
            for r in range(self.size.rounds):
                self.ops.add((a, r))
        self.messages.append(message)


def load_expected(workload: Workload, seed: int):
    """Pins for this workload, or None when the seed is not the default one."""
    if seed != DEFAULT_SEED or not EXPECTED.exists():
        return None
    with open(EXPECTED) as fh:
        return json.load(fh)["workloads"].get(workload.name)


def _close(a, b, rel):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_outputs(workload: Workload, size: Size, out_dir: Path, seed: int,
                  fails: Failures) -> None:
    pins = load_expected(workload, seed)
    if workload.command == "train":
        _check_train(size, out_dir, pins, fails)
    else:
        _check_compare(size, out_dir, seed, pins, fails)


def _read_rounds(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{
        "round": int(r["round"]),
        "algorithm": r["algorithm"],
        "root": int(r["root"]) if r["root"] != "" else None,
        "terminals": int(r["num_terminals"]),
        "tree": float(r["tree_energy_j"]),
        "retrans": float(r["retrans_energy_j"]),
        "geo": float(r["geo_energy_j"]),
        "total": float(r["total_energy_j"]),
        "attempts": int(r["attempts"]),
        "failures": int(r["failures"]),
        "failed": r["failed"] == "1",
    } for r in rows]


def _check_compare(size, out_dir, seed, pins, fails):
    try:
        with open(out_dir / "comparison.json") as fh:
            summary = json.load(fh)
        rows = {a: _read_rounds(out_dir / f"rounds_{a}.csv") for a in size.algorithms}
    except (OSError, ValueError, KeyError) as exc:
        fails.add_all(f"unreadable outputs: {exc!r}")
        return
    outages = size.rho < 1.0
    if sorted(summary) != sorted(size.algorithms):
        fails.add_all(f"comparison.json holds {sorted(summary)}")
        return
    for a in size.algorithms:
        if ([r["round"] for r in rows[a]] != list(range(size.rounds))
                or any(r["algorithm"] != a for r in rows[a])):
            fails.add_all(f"rounds_{a}.csv does not hold rounds 0..{size.rounds - 1}", [a])
            del rows[a]
    for a, recs in rows.items():
        head = summary[a]
        if (head.get("algorithm") != a or head.get("rounds") != size.rounds
                or head.get("seed") != seed or head.get("rho") != size.rho):
            fails.add_all(f"{a}: comparison.json header {head}", [a])
        for r in recs:
            _check_round(a, r, size, outages, fails)
        failed = [r for r in recs if r["failed"]]
        if head.get("failed_rounds") != len(failed):
            fails.add_all(f"{a}: failed_rounds {head.get('failed_rounds')} != "
                          f"{len(failed)} failed records", [a])
        good = [r["total"] for r in recs if not r["failed"]]
        avg = head.get("avg_energy_per_slot_j")
        if good and not (isinstance(avg, float) and _close(avg, sum(good) / len(good), 1e-9)):
            fails.add_all(f"{a}: avg_energy_per_slot_j {avg} is not the mean of good rounds", [a])
        out_pct, analytic = head.get("avg_outage_pct"), head.get("analytic_outage_pct")
        attempts = sum(r["attempts"] for r in recs)
        if outages:
            ok = (isinstance(out_pct, float) and 0.0 <= out_pct <= 100.0 and attempts > 0
                  and _close(out_pct, 100.0 * sum(r["failures"] for r in recs) / attempts, 1e-9))
        else:
            ok = out_pct is None
        if not ok or not (isinstance(analytic, float) and 0.0 <= analytic <= 100.0):
            fails.add_all(f"{a}: outage figures {out_pct}, {analytic} out of range", [a])
        if pins and size.rho == 1.0 and size.rounds == pins["rounds"]:
            want = pins["avg_energy_per_slot_j"][a]
            if not (isinstance(avg, float) and _close(avg, want, REL_ENERGY)):
                fails.add_all(f"{a}: avg_energy_per_slot_j {avg!r} != pinned {want!r}", [a])
    for t in range(size.rounds):
        per = {a: recs[t] for a, recs in rows.items()}
        if len({r["terminals"] for r in per.values()}) != 1:
            for a in size.algorithms:
                fails.add(a, t, "algorithms saw different terminal counts")
        if all(a in per for a in PATH_ALGORITHMS):
            ta, dm = per["taeer"], per["d_merge"]
            if ta["root"] != dm["root"]:
                fails.add("taeer", t, f"root {ta['root']} differs from d_merge's {dm['root']}")
            if not outages and ta["tree"] > dm["tree"] * (1.0 + 1e-12):
                fails.add("taeer", t, f"tree energy {ta['tree']} > d_merge {dm['tree']}")
    if pins:
        for a in PATH_ALGORITHMS:
            if a in rows:
                check_pinned_rows(a, [(r["round"], r["root"], r["terminals"], r["tree"])
                                      for r in rows[a]], pins, fails)


def _check_round(a, r, size, outages, fails):
    t = r["round"]
    energies = (r["tree"], r["retrans"], r["geo"], r["total"])
    if not all(math.isfinite(e) and e >= 0.0 for e in energies):
        fails.add(a, t, f"energies {energies} not finite and non-negative")
        return
    if not _close(r["total"], r["tree"] + r["retrans"] + r["geo"], 1e-12):
        fails.add(a, t, "total energy is not tree + retransmission + GEO")
    if (a in PATH_ALGORITHMS) != (r["root"] is not None) or r["terminals"] < 1:
        fails.add(a, t, f"root {r['root']} / terminals {r['terminals']} malformed")
    if not 0 <= r["failures"] <= r["attempts"]:
        fails.add(a, t, f"failures {r['failures']} outside [0, attempts={r['attempts']}]")
    if not outages and (r["failures"] or r["retrans"]):
        fails.add(a, t, "retransmissions or failures without outage sampling")
    if r["failed"]:
        return
    # Every terminal but the root transmits in every frame (orbit_greedy:
    # every terminal but one per occupied orbit), so edge-frames, and with
    # them attempts, have this floor.
    spare = 1 if a in PATH_ALGORITHMS else size.orbits
    floor = max(0, r["terminals"] - spare) * size.frames
    if r["attempts"] < floor:
        fails.add(a, t, f"attempts {r['attempts']} below the {floor} edge-frames "
                        f"that the terminals need")
    if r["geo"] <= 0.0 or (floor and r["tree"] <= 0.0):
        fails.add(a, t, f"zero tree ({r['tree']}) or GEO ({r['geo']}) energy")


def check_pinned_rows(algorithm, rows, pins, fails):
    """rows: (round, root, terminals, tree energy) of one algorithm."""
    want = pins.get("rows", {}).get(algorithm, [])
    for rnd, root, terminals, tree in rows:
        if rnd >= len(want):
            continue
        w_root, w_terms, w_tree = want[rnd]
        if root != w_root or terminals != w_terms or not _close(tree, w_tree, REL_ENERGY):
            fails.add(algorithm, rnd, f"(root, terminals, tree energy) = "
                                      f"({root}, {terminals}, {tree!r}); pinned "
                                      f"({w_root}, {w_terms}, {w_tree!r})")


def check_records(records, pins, fails):
    """Checks on the simulator's in-memory round records (traced runs only)."""
    for a, recs in records.items():
        for rnd, _root, _terms, _tree, attempts, edge_frames, _failed in recs:
            if attempts < edge_frames:
                fails.add(a, rnd, f"attempts {attempts} < edge-frames {edge_frames}")
        if pins and a in PATH_ALGORITHMS:
            check_pinned_rows(a, [r[:4] for r in recs], pins, fails)


def _check_train(size, out_dir, pins, fails):
    algorithm = size.algorithms[0]
    try:
        with open(out_dir / "loss_trace.csv", newline="") as fh:
            rows = [(int(r["round"]), float(r["global_loss"]), float(r["grad_norm"]),
                     float(r["cumulative_energy_j"])) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        fails.add_all(f"unreadable loss trace: {exc!r}")
        return
    if [r[0] for r in rows] != list(range(size.rounds)):
        fails.add_all(f"loss trace does not hold rounds 0..{size.rounds - 1}")
        return
    previous = 0.0
    for t, loss, grad, energy in rows:
        if not (math.isfinite(loss) and loss > 0 and math.isfinite(grad) and grad >= 0
                and math.isfinite(energy) and energy > previous):
            fails.add(algorithm, t, f"loss {loss}, grad {grad}, cumulative energy {energy} "
                                    f"(previous {previous}) violate the trace invariants")
        previous = energy
    if size.rounds > 1 and not rows[-1][1] < rows[0][1]:
        fails.add_all(f"loss did not decrease: {rows[0][1]} -> {rows[-1][1]}")
    if pins:
        for t, loss, _grad, energy in rows:
            if t >= len(pins["loss"]):
                continue
            if not (_close(loss, pins["loss"][t], REL_LOSS)
                    and _close(energy, pins["cumulative_energy_j"][t], REL_ENERGY)):
                fails.add(algorithm, t, f"loss {loss!r} / cumulative energy {energy!r} differ "
                                        f"from pinned {pins['loss'][t]!r} / "
                                        f"{pins['cumulative_energy_j'][t]!r}")
