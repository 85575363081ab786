"""Scenario configuration: INI files with one section per subsystem.

Every key has a default (the reference system settings), so an empty file is
a valid scenario; unknown sections or keys are rejected to catch typos.
Validation failures raise ConfigError naming the offending field.
"""
import configparser
import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams
from .geometry import ConstellationSpec, GroundCluster
from .sim import ALGORITHMS, ScenarioConfig, check_device_weights, random_clusters
from .topology import TimeStructure

DEFAULTS = {
    "constellation": {
        "pattern": "star",
        "num_orbits": "4",
        "sats_per_orbit": "20",
        "altitude_km": "700",
        "inclination_deg": "99.5",
        "phasing_factor": "1",
    },
    "time": {
        "slot_len_s": "250",
        "frames_per_slot": "25",
    },
    "link": {
        "carrier_freq_hz": "193e12",
        "bandwidth_fraction": "0.02",
        "optical_efficiency": "0.8",
        "rx_telescope_diameter_m": "0.006",
        "pointing_error_rad": "0.01",
        "beamwidth_3db_rad": "0.1",
        "tx_divergence_rad": "",          # empty: use beamwidth_3db_rad
        "boltzmann_j_per_k": "1.38e-23",
        "solar_temp_k": "6000",
        "system_temp_k": "1000",
        "cmb_temp_k": "2.725",
        "pointing_error_scale_rad": "0.05",
        "snr_threshold_db": "-110",
        "payload_bits": "1e6",
        "tx_power_min_w": "0.0316",
        "tx_power_max_w": "5.0",
    },
    "clusters": {
        "count": "41",
        "lat_band_deg": "60",
        "file": "",
    },
    "algorithms": {
        "names": "taeer, d_merge, orbit_greedy",
        "rho": "1.0",
        "root_rule": "min_uplink",
    },
    "run": {
        "rounds": "300",
        "seed": "0",
        "max_attempts": "100",
    },
    "training": {
        "rounds": "300",
        "local_steps": "5",
        "batch_size": "32",
        "learning_rate": "0.001",
        "dim": "20",
        "samples_per_device": "64",
        "heterogeneity": "0.0",
        "noise_std": "0.1",
    },
}


class ConfigError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


@dataclass(frozen=True)
class TrainingSettings:
    rounds: int
    local_steps: int
    batch_size: int
    learning_rate: float
    dim: int
    samples_per_device: int
    heterogeneity: float
    noise_std: float


def read_config(path: str | None) -> dict:
    """Merge the file at `path` (optional) over the defaults; returns
    {section: {key: raw string}}."""
    merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is None:
        return merged
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(path, f"malformed config: {exc}") from None
    for section in parser.sections():
        if section not in merged:
            raise ConfigError(section, f"unknown section (expected one of {sorted(merged)})")
        for key, value in parser.items(section):
            if key not in merged[section]:
                raise ConfigError(f"{section}.{key}",
                                  f"unknown key (expected one of {sorted(merged[section])})")
            merged[section][key] = value
    return merged


def _float(cfg, section, key):
    raw = cfg[section][key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"expected a number, got {raw!r}") from None


def _int(cfg, section, key):
    raw = cfg[section][key]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"expected an integer, got {raw!r}") from None


def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


def build_link_params(cfg: dict) -> LinkParams:
    beam = _float(cfg, "link", "beamwidth_3db_rad")
    div = cfg["link"]["tx_divergence_rad"].strip()
    try:
        return LinkParams(
            eta_s=_float(cfg, "link", "optical_efficiency"),
            theta_t_rad=float(div) if div else beam,
            d_r_m=_float(cfg, "link", "rx_telescope_diameter_m"),
            theta_0_rad=_float(cfg, "link", "pointing_error_rad"),
            theta_3db_rad=beam,
            f_c_hz=_float(cfg, "link", "carrier_freq_hz"),
            bandwidth_fraction=_float(cfg, "link", "bandwidth_fraction"),
            t_solar_k=_float(cfg, "link", "solar_temp_k"),
            t_system_k=_float(cfg, "link", "system_temp_k"),
            t_cmb_k=_float(cfg, "link", "cmb_temp_k"),
            k_b=_float(cfg, "link", "boltzmann_j_per_k"),
            sigma_p_rad=_float(cfg, "link", "pointing_error_scale_rad"),
            snr_th_db=_float(cfg, "link", "snr_threshold_db"),
            payload_bits=_float(cfg, "link", "payload_bits"),
        )
    except ValueError as exc:
        raise ConfigError("link", str(exc)) from None


def build_constellation(cfg: dict) -> ConstellationSpec:
    pattern = cfg["constellation"]["pattern"].strip().lower()
    _require(pattern in ("star", "delta"), "constellation.pattern",
             f"must be 'star' or 'delta', got {pattern!r}")
    try:
        return ConstellationSpec(
            num_orbits=_int(cfg, "constellation", "num_orbits"),
            sats_per_orbit=_int(cfg, "constellation", "sats_per_orbit"),
            altitude_km=_float(cfg, "constellation", "altitude_km"),
            inclination_deg=_float(cfg, "constellation", "inclination_deg"),
            phasing_factor=_int(cfg, "constellation", "phasing_factor"),
            pattern=pattern,
        )
    except ValueError as exc:
        raise ConfigError("constellation", str(exc)) from None


def load_clusters_csv(path: str) -> tuple:
    """Clusters from a CSV with columns cluster_id, lat_deg, lon_deg, weight.

    A missing column, a malformed or out-of-range value, a repeated
    cluster_id or weights that do not sum to 1 raise ConfigError naming
    clusters.file and the offending column."""
    columns = (("cluster_id", int), ("lat_deg", float), ("lon_deg", float),
               ("weight", float))
    bounds = (("lat_deg", lambda v: -90.0 <= v <= 90.0, "lie in [-90, 90]"),
              ("lon_deg", math.isfinite, "be finite"),
              ("weight", lambda v: math.isfinite(v) and v > 0, "be finite and > 0"))
    clusters = []
    first_line = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        absent = [name for name, _ in columns if name not in (reader.fieldnames or ())]
        if absent:
            raise ConfigError("clusters.file", f"{path}: missing column(s) {absent}")
        for row in reader:
            where = f"{path} line {reader.line_num}: column"
            values = {}
            for name, kind in columns:
                try:
                    values[name] = kind(row[name])
                except (TypeError, ValueError):
                    raise ConfigError("clusters.file",
                                      f"{where} '{name}' expects {kind.__name__}, "
                                      f"got {row[name]!r}") from None
            for name, ok, rule in bounds:
                if not ok(values[name]):
                    raise ConfigError("clusters.file", f"{where} '{name}' must {rule}, "
                                                       f"got {values[name]!r}")
            cid = values["cluster_id"]
            if cid in first_line:
                raise ConfigError("clusters.file", f"{where} 'cluster_id' repeats {cid} "
                                                   f"from line {first_line[cid]}")
            first_line[cid] = reader.line_num
            clusters.append(GroundCluster(
                cluster_id=cid, lat_deg=values["lat_deg"],
                lon_deg=values["lon_deg"], device_weights=(values["weight"],)))
    try:
        check_device_weights(clusters)
    except ValueError as exc:
        raise ConfigError("clusters.file", f"{path}: column 'weight': {exc}") from None
    return tuple(clusters)


def build_clusters(cfg: dict, seed: int) -> tuple:
    path = cfg["clusters"]["file"].strip()
    if path:
        return load_clusters_csv(path)
    count = _int(cfg, "clusters", "count")
    _require(count >= 1, "clusters.count", f"must be >= 1, got {count}")
    band = _float(cfg, "clusters", "lat_band_deg")
    _require(0 < band <= 90, "clusters.lat_band_deg", f"must lie in (0, 90], got {band}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    return random_clusters(count, rng, band)


def build_scenario(cfg: dict, seed: int | None = None, rho: float | None = None,
                   algorithms: tuple | None = None) -> ScenarioConfig:
    """Assemble a validated ScenarioConfig; CLI overrides win over the file."""
    if seed is None:
        seed = _int(cfg, "run", "seed")
    _require(0 <= seed < 2 ** 64, "run.seed", "must be an unsigned 64-bit value")
    if rho is None:
        rho = _float(cfg, "algorithms", "rho")
    _require(0.0 <= rho <= 1.0, "algorithms.rho",
             f"value {rho} outside the [0, 1] bound")
    if algorithms is None:
        algorithms = tuple(a.strip() for a in cfg["algorithms"]["names"].split(",")
                           if a.strip())
    for a in algorithms:
        _require(a in ALGORITHMS, "algorithms.names",
                 f"unknown algorithm {a!r} (choose from {sorted(ALGORITHMS)})")
    _require(len(algorithms) >= 1, "algorithms.names", "need at least one algorithm")
    root_rule = cfg["algorithms"]["root_rule"].strip()
    _require(root_rule in ("min_uplink", "random"), "algorithms.root_rule",
             f"must be 'min_uplink' or 'random', got {root_rule!r}")

    spec = build_constellation(cfg)
    params = build_link_params(cfg)
    try:
        times = TimeStructure.for_constellation(
            spec, slot_len_s=_float(cfg, "time", "slot_len_s"),
            frames_per_slot=_int(cfg, "time", "frames_per_slot"))
    except ValueError as exc:
        raise ConfigError("time", str(exc)) from None
    rounds = _int(cfg, "run", "rounds")
    _require(rounds >= 1, "run.rounds", f"must be >= 1, got {rounds}")
    max_attempts = _int(cfg, "run", "max_attempts")
    _require(max_attempts >= 1, "run.max_attempts", f"must be >= 1, got {max_attempts}")

    try:
        return ScenarioConfig(
            spec=spec, params=params, times=times,
            clusters=build_clusters(cfg, seed), algorithms=tuple(algorithms),
            rho=rho, rounds=rounds, rng_seed=seed,
            tx_power_min_w=_float(cfg, "link", "tx_power_min_w"),
            tx_power_max_w=_float(cfg, "link", "tx_power_max_w"),
            max_attempts=max_attempts,
            root_rule=root_rule)
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from None


def build_training(cfg: dict) -> TrainingSettings:
    out = TrainingSettings(
        rounds=_int(cfg, "training", "rounds"),
        local_steps=_int(cfg, "training", "local_steps"),
        batch_size=_int(cfg, "training", "batch_size"),
        learning_rate=_float(cfg, "training", "learning_rate"),
        dim=_int(cfg, "training", "dim"),
        samples_per_device=_int(cfg, "training", "samples_per_device"),
        heterogeneity=_float(cfg, "training", "heterogeneity"),
        noise_std=_float(cfg, "training", "noise_std"),
    )
    _require(out.rounds >= 1, "training.rounds", "must be >= 1")
    _require(out.local_steps >= 1, "training.local_steps", "must be >= 1")
    _require(out.learning_rate > 0, "training.learning_rate", "must be > 0")
    _require(out.dim >= 1, "training.dim", "must be >= 1")
    _require(out.samples_per_device >= 1, "training.samples_per_device", "must be >= 1")
    _require(math.isfinite(out.heterogeneity) and out.heterogeneity >= 0,
             "training.heterogeneity", "must be >= 0")
    return out
