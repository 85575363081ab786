"""Command-line entry point.

Subcommands: generate-constellation, export-snapshot, run-scenario,
compare-algorithms, link-sweep, train. All outputs are deterministic for a
fixed (config, seed) pair. Exit codes: 0 success, 2 usage/validation errors,
1 runtime failures, such as an algorithm failing every round of a run.
"""
import argparse
import dataclasses
import os
import sys

import numpy as np

from . import config as cfgmod
from . import geometry, hierfl, sim, topology


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="satagg",
        description="Constellation aggregation-routing simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None,
                        help="scenario config file (INI); defaults used if omitted")
        sp.add_argument("--seed", type=int, default=None, help="seed override (u64)")
        sp.add_argument("--out", default=".", help="output directory")
        return sp

    def routed(sp, algorithms="comma list override, e.g. taeer,d_merge"):
        common(sp)
        sp.add_argument("--rho", type=float, default=None,
                        help="energy/outage mixing override in [0, 1]")
        sp.add_argument("--algorithms", default=None, help=algorithms)

    first_only = "comma list override; only the first algorithm named is run"
    routed(sub.add_parser("run-scenario", help="run one algorithm, write metrics"),
           first_only)
    routed(sub.add_parser("compare-algorithms",
                          help="run all configured algorithms side by side"))
    sp = common(sub.add_parser("generate-constellation", help="export ephemerides CSV"))
    sp.add_argument("--t", type=float, default=None,
                    help="single epoch in seconds (default: every slot start of one period)")
    sp = common(sub.add_parser("export-snapshot", help="export one slot's edge list CSV"))
    sp.add_argument("--slot", type=int, default=0, help="round/slot index")
    common(sub.add_parser("link-sweep", help="export link-budget sweep CSV"))
    routed(sub.add_parser("train", help="synthetic federated training trace"),
           first_only)
    return p


def _scenario(args, values):
    """The scenario of the config values, with the command's overrides
    written over them."""
    for section, key, value in (("run", "seed", args.seed),
                                ("algorithms", "rho", getattr(args, "rho", None)),
                                ("algorithms", "names", getattr(args, "algorithms", None))):
        if value is not None:
            values[section][key] = str(value)
    return cfgmod.build_scenario(values)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _every_round_failed(results) -> int:
    """Name on stderr each algorithm of {name: RunMetrics} whose every round
    failed, with its outputs written; 1 if there is one, else 0."""
    failed = [m for _, m in sorted(results.items()) if m.failed_rounds == m.rounds]
    for m in failed:
        print(f"error: all {m.rounds} rounds of {m.algorithm} failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_run_scenario(args) -> int:
    cfg = _scenario(args, cfgmod.read_config(args.config))
    metrics = sim.run_scenario(cfg)
    sim.write_metrics_json(_out_path(args, "metrics.json"), metrics)
    sim.write_rounds_csv(_out_path(args, "rounds.csv"), metrics)
    print(f"algorithm={metrics.algorithm} rho={metrics.rho} "
          f"avg_energy_per_slot_j={metrics.avg_energy_per_slot_j:.4f} "
          f"avg_outage_pct={metrics.avg_outage_per_isl_pct}")
    return _every_round_failed({metrics.algorithm: metrics})


def _cmd_compare(args) -> int:
    cfg = _scenario(args, cfgmod.read_config(args.config))
    results = sim.compare_algorithms(cfg)
    sim.write_metrics_json(_out_path(args, "comparison.json"), results)
    for name in sorted(results):
        sim.write_rounds_csv(_out_path(args, f"rounds_{name}.csv"), results[name])
    print(sim.comparison_table(results))
    return _every_round_failed(results)


def _cmd_generate_constellation(args) -> int:
    cfg = _scenario(args, cfgmod.read_config(args.config))
    if args.t is not None:
        count, times = 1, [args.t]
    else:   # every slot start of one period, generated as they are written
        count = cfg.times.slots_per_period
        times = (m * cfg.times.slot_len_s for m in range(count))
    path = _out_path(args, "ephemerides.csv")
    geometry.write_ephemeris_csv(path, cfg.spec, times)
    print(f"wrote {path} ({count} epochs x {cfg.spec.total_sats} satellites)")
    return 0


def _cmd_export_snapshot(args) -> int:
    if args.slot < 0:
        raise cfgmod.ConfigError("slot", f"must be >= 0, got {args.slot}")
    cfg = _scenario(args, cfgmod.read_config(args.config))
    try:
        t_abs = args.slot * cfg.times.slot_len_s
    except OverflowError:   # a slot past the float range
        t_abs = np.inf
    if not np.isfinite(t_abs):
        raise cfgmod.ConfigError("slot", "gives a slot start time beyond the float range")
    try:
        g = topology.build_snapshot(cfg.spec, cfg.params, cfg.times, t_abs,
                                    sim.scenario_tx_power(cfg))
    except cfgmod.ConfigError as exc:   # an epoch that `positions` rejects
        if exc.field != "t":
            raise
        raise cfgmod.ConfigError("slot", f"gives a slot start time that {exc.message}") from None
    path = _out_path(args, f"snapshot_slot{args.slot}.csv")
    topology.write_snapshot_csv(path, g, cfg.params)
    print(f"wrote {path} ({g.num_edges} directed edges x {g.frame_count} frames)")
    return 0


def _cmd_link_sweep(args) -> int:
    cfg = _scenario(args, cfgmod.read_config(args.config))
    distances = np.geomspace(100.0, 45000.0, 60)
    powers = [cfg.tx_power_min_w, 0.1, 0.5, 1.0, 2.5, cfg.tx_power_max_w]
    path = _out_path(args, "link_sweep.csv")
    sim.write_link_sweep_csv(path, cfg.params, cfg.times.frames_per_slot,
                             distances, powers)
    print(f"wrote {path}")
    return 0


def _cmd_train(args) -> int:
    values = cfgmod.read_config(args.config)
    train = cfgmod.build_training(values)
    cfg = _scenario(args, values)
    task_rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(4,)))
    devices = hierfl.make_synthetic_tasks([w for c in cfg.clusters for w in c.device_weights],
                                          train, task_rng)
    hierfl.check_learning_rate(devices, train)

    metrics = sim.run_scenario(dataclasses.replace(cfg, rounds=train.rounds))
    energy_per_round = [r.total_energy_j for r in metrics.records]

    sgd_rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(5,)))
    trace = hierfl.run_training(devices, [r.failed for r in metrics.records], train, sgd_rng)
    path = _out_path(args, "loss_trace.csv")
    hierfl.write_loss_trace_csv(path, trace, energy_per_round)
    print(f"wrote {path} (final loss {trace[-1][1]:.6g}, "
          f"avg energy/round {metrics.avg_energy_per_slot_j:.4f} J)")
    return _every_round_failed({metrics.algorithm: metrics})


_COMMANDS = {
    "run-scenario": _cmd_run_scenario,
    "compare-algorithms": _cmd_compare,
    "generate-constellation": _cmd_generate_constellation,
    "export-snapshot": _cmd_export_snapshot,
    "link-sweep": _cmd_link_sweep,
    "train": _cmd_train,
}


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, cfgmod.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:   # TrainingDivergedError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
