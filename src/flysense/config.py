"""Run configuration.

A run is described by one JSON document with up to six sections::

    {
      "seed": 7,
      "scenario":  { ... world geometry, demand, protocol, energy ... },
      "channel":   { ... sub-channels, bandwidth, powers ... },
      "formation": { ... relay policy and thresholds ... },
      "gp":        { ... surrogate kernel and candidate grid ... },
      "training":  { ... episodes, horizon, learning rates ... }
    }

Every key is optional; an empty file means "all defaults".  Unknown keys
are rejected with their dotted path so typos do not silently fall back to
defaults.  Transmit powers and the noise floor can be given in dBm via
the ``*_dbm`` aliases; values are stored and re-serialized in watts.

The config dataclasses are the schema: each field's type hint says how
its value is read, and its metadata holds its bound and any dBm alias
(README, "Configuration").  Rules that span fields are in ``_check``.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Any

from .channel import ChannelParams
from .formation import FormationPolicy
from .gp import GpConfig
from .marl import DATA_UNIT, ENERGY_UNIT, TrainingConfig
from .nn import write_json
from .world import Scenario, coverage_radius_m, max_signal, max_slot_energy


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class RunConfig:
    seed: int = field(default=0, metadata={"min": 0})  # numpy seeds no generator below 0
    scenario: Scenario = field(default_factory=Scenario)
    channel: ChannelParams = field(default_factory=ChannelParams)
    formation: FormationPolicy = field(default_factory=FormationPolicy)
    gp: GpConfig = field(default_factory=GpConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)


# scalar type hint -> (JSON value types it accepts, what an error expects)
_SCALARS = {bool: ((bool,), "true/false"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (type hint, metadata) of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata) for f in dataclasses.fields(cls)}


def _finite(compute) -> float | None:
    """compute()'s value if it is a finite number, else None; float
    overflow and division by zero count as not finite."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        return None
    return value if math.isfinite(value) else None


def _broken_bound(value, meta) -> str | None:
    """The rule that value breaks, or None: a float must be finite, and
    every value must keep the bound in its field's metadata."""
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if "gt" in meta and not value > meta["gt"]:
        return "must be positive" if meta["gt"] == 0 else f"must exceed {meta['gt']}"
    if "min" in meta and not value >= meta["min"]:
        return "must not be negative" if meta["min"] == 0 else f"must be at least {meta['min']}"
    if "max" in meta and not value <= meta["max"]:
        return f"must be at most {meta['max']}"
    if "lt" in meta and not value < meta["lt"]:
        return f"must be below {meta['lt']}"
    return None


def _read(hint, raw: Any, path: str, meta):
    """raw read as the type hint says, checked against the field's bound;
    a tuple checks the bound on each entry."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        return None if raw is None else _read(args[0], raw, path, meta)
    if dataclasses.is_dataclass(hint):
        return _build(hint, raw, path)
    if typing.get_origin(hint) is tuple:
        fixed = args[-1] is not Ellipsis  # the schema's fixed tuples are [x, y] pairs
        if not isinstance(raw, (list, tuple)) or (fixed and len(raw) != len(args)):
            raise ConfigError(f"{path}: expected {'a pair [x, y]' if fixed else 'a list'}")
        return tuple(_read(args[i] if fixed else args[0], item, f"{path}[{i}]", meta)
                     for i, item in enumerate(raw))
    kinds, noun = _SCALARS[hint]
    if not isinstance(raw, kinds) or (isinstance(raw, bool) and hint is not bool):
        raise ConfigError(f"{path}: expected {noun}, got {type(raw).__name__}")
    try:
        value = float(raw) if hint is float else raw
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{path}: {raw} is too large for a number") from None
    rule = _broken_bound(value, meta)
    if rule is not None:
        raise ConfigError(f"{path}: {rule}, got {value}")
    return value


def _build(cls, data: Any, path: str):
    """Construct a config dataclass from a JSON object, rejecting unknown
    keys and reading each value by its field's type hint and bound."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object, got {type(data).__name__}")
    schema = _schema(cls)
    aliases = {meta["alias_dbm"]: name for name, (_, meta) in schema.items()
               if "alias_dbm" in meta}
    kwargs = {}
    for key, raw in data.items():
        where = f"{path}.{key}" if path else key
        if key in aliases:
            name = aliases[key]
            if name in data:
                raise ConfigError(f"{where}: conflicts with {path}.{name}")
            dbm = _read(float, raw, where, {})
            watts = _finite(lambda: dbm_to_watts(dbm))
            if watts is None:
                raise ConfigError(f"{where}: {dbm} dBm is not a finite power in watts")
            kwargs[name] = _read(float, watts, f"{path}.{name}", schema[name][1])
        elif key in schema:
            hint, meta = schema[key]
            kwargs[key] = _read(hint, raw, where, meta)
        else:
            raise ConfigError(f"unknown key {where}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check(cfg: RunConfig) -> None:
    """The rules that span fields.  Each would otherwise crash mid-run,
    build a different world than asked for, or simulate or train
    nothing."""
    scen, tc = cfg.scenario, cfg.training
    # Ranges square coordinate differences, which must not overflow.
    if _finite(lambda: sum(x * x for x in (2.0 * scen.half_width_m, scen.uav_alt_m,
                                              scen.bs_height_m))) is None:
        raise ConfigError("scenario.half_width_km: with uav_alt_m and bs_height_m the "
                          "field is too large for a finite squared range")
    # marl.reward's terms at their largest (an infinite slot energy fails
    # even at gamma_energy 0).  The critic regresses Q toward reward +
    # discount * Q', so |Q| tends to their sum over (1 - discount), which
    # its loss and Adam's moments square: allow a 1000-fold overshoot.
    w, bits, bound = tc.weights, scen.buffer_capacity_bits / DATA_UNIT, 0.0
    for where, term in (
            ("gamma_energy with scenario.energy and v_max_mps",
             lambda: abs(w.gamma_energy) * max_slot_energy(scen) / ENERGY_UNIT),
            ("gamma_data with scenario.buffer_capacity_bits", lambda: abs(w.gamma_data) * bits),
            ("gamma_sense with scenario.buffer_capacity_bits", lambda: abs(w.gamma_sense) * bits),
            ("mu with scenario.n_uavs", lambda: abs(w.mu) * (scen.n_uavs - 1))):
        bound = _finite(lambda: bound + term())
        if bound is None or _finite(lambda: (1e3 * bound / (1.0 - tc.discount)) ** 2) is None:
            raise ConfigError(f"training.weights.{where}: one slot's reward can be so large "
                              f"that the critic's squared return overflows")
    for key, count in (("uav_xy", "n_uavs"), ("gu_xy", "n_gus")):
        xy = getattr(scen, key)
        if xy is not None and len(xy) != getattr(scen, count):
            raise ConfigError(f"scenario.{key}: {len(xy)} positions, but scenario.{count} "
                              f"is {getattr(scen, count)}")
    # Rates take log2(1 + SNR); the SNR peaks at the 1 m path-loss floor.
    chan = cfg.channel
    if _finite(lambda: chan.p_uav * chan.beta_u / chan.noise) is None:
        raise ConfigError(f"channel.noise: {chan.noise} W with channel.p_uav and beta_u "
                          f"leaves no finite SNR")
    # The kernel divides by the squared length scale.
    if not _finite(lambda: cfg.gp.length_scale ** 2):
        raise ConfigError(f"gp.length_scale: must have a finite, nonzero square, "
                          f"got {cfg.gp.length_scale}")
    if not tc.hidden:
        raise ConfigError("training.hidden: needs at least one hidden layer")
    if tc.warmup_size < tc.batch_size:
        raise ConfigError(f"training.warmup: {tc.warmup} is below the batch size "
                          f"({tc.batch_size}), so the first update could not fill a batch")
    if tc.replay_capacity < tc.warmup_size:
        raise ConfigError(f"training.replay_capacity: {tc.replay_capacity} is below the "
                          f"warm-up ({tc.warmup_size}), so no update would run")
    # Every ground user is at least the altitude away from a UAV.
    radius = _finite(lambda: coverage_radius_m(scen, cfg.channel))
    if radius is None or radius <= 0.0 or radius < scen.uav_alt_m:
        raise ConfigError(f"scenario.coverage_snr_min_db: {scen.coverage_snr_min_db} dB leaves "
                          f"no positive, finite coverage radius of at least uav_alt_m "
                          f"({scen.uav_alt_m} m) with channel.q_gu, beta_s and alpha_s")
    # observe divides by the most energy a slot can burn and the largest signal.
    if not _finite(lambda: max_slot_energy(scen)):
        raise ConfigError("scenario.energy: c1, c2 and hover_w burn no energy in a slot "
                          "at any speed")
    if not _finite(lambda: max_signal(scen, cfg.channel)):
        raise ConfigError(f"channel.alpha_s: {cfg.channel.alpha_s} with q_gu, beta_s and "
                          f"scenario.uav_alt_m leaves no sensing signal even straight below a UAV")


def parse_config(data: Any) -> RunConfig:
    cfg = _build(RunConfig, data, "")
    _check(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over the digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Plain-JSON form of a config.  Powers stay in watts so that
    parse_config(config_to_dict(cfg)) reproduces cfg exactly."""
    return dataclasses.asdict(cfg)


def save_config(cfg: RunConfig, path: str) -> None:
    write_json(path, config_to_dict(cfg))
