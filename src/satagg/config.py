"""Scenario configuration: INI files with one section per subsystem.

Each key is one parameter of the class or function that uses it (FIELDS).
That parameter's default is the key's default, so an empty file is a valid
scenario, and that class or function checks the value's bounds: this module
only parses the text and translates names. A value that cannot be parsed or
is out of bounds raises ConfigError naming its section.key; unknown sections
or keys are rejected to catch typos.
"""
import configparser
import csv
import dataclasses
import inspect
import math
import os

import numpy as np

from .channel import LinkParams
from .geometry import ConfigError, ConstellationSpec, GroundCluster
from .hierfl import TrainingSettings
from .sim import ScenarioConfig, check_device_weights, random_clusters
from .topology import TimeStructure

_TIME = TimeStructure.for_constellation

# (section, key) -> (owner, parameter) of the class or function that takes
# the value; clusters.file is a path that this module reads itself.
FIELDS = {
    **{("constellation", f.name): (ConstellationSpec, f.name)
       for f in dataclasses.fields(ConstellationSpec)},
    **{("time", name): (_TIME, name) for name in ("slot_len_s", "frames_per_slot")},
    **{("link", key): (LinkParams, name) for key, name in (
        ("carrier_freq_hz", "f_c_hz"), ("bandwidth_fraction", "bandwidth_fraction"),
        ("optical_efficiency", "eta_s"), ("rx_telescope_diameter_m", "d_r_m"),
        ("pointing_error_rad", "theta_0_rad"), ("beamwidth_3db_rad", "theta_3db_rad"),
        ("tx_divergence_rad", "theta_t_rad"), ("boltzmann_j_per_k", "k_b"),
        ("solar_temp_k", "t_solar_k"), ("system_temp_k", "t_system_k"),
        ("cmb_temp_k", "t_cmb_k"), ("pointing_error_scale_rad", "sigma_p_rad"),
        ("snr_threshold_db", "snr_th_db"), ("payload_bits", "payload_bits"))},
    **{("link", name): (ScenarioConfig, name) for name in ("tx_power_min_w", "tx_power_max_w")},
    **{("clusters", name): (random_clusters, name) for name in ("count", "lat_band_deg")},
    ("clusters", "file"): (None, "file"),
    ("algorithms", "names"): (ScenarioConfig, "algorithms"),
    ("algorithms", "rho"): (ScenarioConfig, "rho"),
    ("run", "rounds"): (ScenarioConfig, "rounds"),
    ("run", "seed"): (ScenarioConfig, "rng_seed"),
    ("run", "max_attempts"): (ScenarioConfig, "max_attempts"),
    **{("training", f.name): (TrainingSettings, f.name)
       for f in dataclasses.fields(TrainingSettings)},
}
_KEY = {field: f"{section}.{key}" for (section, key), field in FIELDS.items()}
_PARAMETERS = {owner: inspect.signature(owner).parameters
               for owner in {owner for owner, _ in FIELDS.values()} - {None}}
_DEFAULT = {item: "" if owner is None else _PARAMETERS[owner][name].default
            for item, (owner, name) in FIELDS.items()}

DEFAULTS = {}
for (_section, _key), _value in _DEFAULT.items():
    DEFAULTS.setdefault(_section, {})[_key] = (
        ", ".join(_value) if isinstance(_value, tuple) else str(_value))
DEFAULTS["link"]["tx_divergence_rad"] = ""   # empty: link.beamwidth_3db_rad


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


def _parse(cfg, section, key):
    """The key's text as its default's type: a comma list for a tuple."""
    raw, default = cfg[section][key], _DEFAULT[section, key]
    if isinstance(default, tuple):
        return tuple(a.strip() for a in raw.split(",") if a.strip())
    if isinstance(default, str):
        return raw.strip()
    try:
        return type(default)(raw)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{section}.{key}", f"expected {kind}, got {raw!r}") from None


def _call(owner, cfg: dict, **given):
    """owner called on its config values, with given ones taking their place;
    a bound it rejects is reported as its section.key."""
    values = {name: _parse(cfg, *item) for item, (o, name) in FIELDS.items()
              if o is owner and name not in given}
    try:
        return owner(**values, **given)
    except ConfigError as exc:
        raise ConfigError(_KEY.get((owner, exc.field), exc.field), exc.message) from None


def build_link_params(cfg: dict) -> LinkParams:
    if cfg["link"]["tx_divergence_rad"].strip():
        return _call(LinkParams, cfg)
    return _call(LinkParams, cfg, theta_t_rad=_parse(cfg, "link", "beamwidth_3db_rad"))


def build_constellation(cfg: dict) -> ConstellationSpec:
    return _call(ConstellationSpec, cfg,
                 pattern=_parse(cfg, "constellation", "pattern").lower())


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
    except ConfigError as exc:
        raise ConfigError("clusters.file", f"{path}: column 'weight': {exc.message}") from None
    return tuple(clusters)


def build_clusters(cfg: dict, seed: int) -> tuple:
    path = cfg["clusters"]["file"].strip()
    if path:
        return load_clusters_csv(path)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    return _call(random_clusters, cfg, rng=rng)


def build_scenario(cfg: dict, seed: int | None = None, rho: float | None = None,
                   algorithms: tuple | None = None) -> ScenarioConfig:
    """Assemble a validated ScenarioConfig; CLI overrides win over the file."""
    given = {name: value for name, value in (("rho", rho), ("algorithms", algorithms))
             if value is not None}
    if seed is None:
        seed = _parse(cfg, "run", "seed")
    spec = build_constellation(cfg)
    # No clusters can be drawn from a negative seed; ScenarioConfig rejects
    # the seed before it looks at the clusters.
    return _call(ScenarioConfig, cfg, spec=spec, params=build_link_params(cfg),
                 times=_call(_TIME, cfg, spec=spec),
                 clusters=build_clusters(cfg, seed) if seed >= 0 else (),
                 rng_seed=seed, **given)


def build_training(cfg: dict) -> TrainingSettings:
    return _call(TrainingSettings, cfg)
