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
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from .channel import ChannelParams
from .formation import FormationPolicy
from .gp import GpConfig
from .marl import RewardWeights, TrainingConfig
from .world import EnergyModel, ProtocolConfig, Scenario


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    import math

    return 10.0 * math.log10(watts * 1000.0)


# alias key in the channel section -> canonical watts field
_DBM_ALIASES = {
    "noise_dbm": "noise",
    "p_uav_dbm": "p_uav",
    "q_gu_dbm": "q_gu",
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    scenario: Scenario = field(default_factory=Scenario)
    channel: ChannelParams = field(default_factory=ChannelParams)
    formation: FormationPolicy = field(default_factory=FormationPolicy)
    gp: GpConfig = field(default_factory=GpConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)


# ---------------------------------------------------------------------------
# parsing helpers


def _expect_number(raw: Any, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(raw).__name__}")
    return float(raw)


def _expect_int(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}: expected an integer, got {type(raw).__name__}")
    return raw


def _expect_bool(raw: Any, path: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{path}: expected true/false, got {type(raw).__name__}")
    return raw


def _expect_str(raw: Any, path: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{path}: expected a string, got {type(raw).__name__}")
    return raw


def _opt(parser):
    def parse(raw: Any, path: str):
        if raw is None:
            return None
        return parser(raw, path)

    return parse


def _pair(raw: Any, path: str) -> tuple:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{path}: expected a pair [x, y]")
    return (_expect_number(raw[0], path), _expect_number(raw[1], path))


def _pairs(raw: Any, path: str) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of [x, y] pairs")
    return tuple(_pair(item, f"{path}[{i}]") for i, item in enumerate(raw))


def _int_tuple(raw: Any, path: str) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of integers")
    return tuple(_expect_int(item, f"{path}[{i}]") for i, item in enumerate(raw))


def _field_defaults(cls) -> dict:
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            out[f.name] = f.default_factory()  # type: ignore[misc]
    return out


def _build(cls, data: Any, path: str, special: dict | None = None):
    """Construct a config dataclass from a JSON object, rejecting unknown
    keys and coercing leaf values by the type of each field default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    special = special or {}
    defaults = _field_defaults(cls)
    kwargs = {}
    for key, raw in data.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {path}.{key}")
        where = f"{path}.{key}"
        if key in special:
            kwargs[key] = special[key](raw, where)
            continue
        ref = defaults[key]
        if isinstance(ref, bool):
            kwargs[key] = _expect_bool(raw, where)
        elif isinstance(ref, int):
            kwargs[key] = _expect_int(raw, where)
        elif isinstance(ref, float):
            kwargs[key] = _expect_number(raw, where)
        elif isinstance(ref, str):
            kwargs[key] = _expect_str(raw, where)
        else:
            raise ConfigError(f"{where}: unsupported value")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_channel(data: Any, path: str) -> ChannelParams:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    data = dict(data)
    for alias, target in _DBM_ALIASES.items():
        if alias in data:
            if target in data:
                raise ConfigError(f"{path}.{alias}: conflicts with {path}.{target}")
            data[target] = dbm_to_watts(_expect_number(data.pop(alias), f"{path}.{alias}"))
    return _build(ChannelParams, data, path)


def _parse_scenario(data: Any, path: str) -> Scenario:
    special = {
        "protocol": lambda raw, p: _build(ProtocolConfig, raw, p),
        "energy": lambda raw, p: _build(EnergyModel, raw, p),
        "bs_xy": _pair,
        "gu_xy": _opt(_pairs),
        "uav_xy": _opt(_pairs),
        "gu_seed": _opt(_expect_int),
    }
    return _build(Scenario, data, path, special)


def _parse_formation(data: Any, path: str) -> FormationPolicy:
    special = {"min_rate": _opt(_expect_number)}
    return _build(FormationPolicy, data, path, special)


def _parse_training(data: Any, path: str) -> TrainingConfig:
    special = {
        "weights": lambda raw, p: _build(RewardWeights, raw, p),
        "hidden": _int_tuple,
        "warmup": _opt(_expect_int),
    }
    tc = _build(TrainingConfig, data, path, special)
    # Each rule below would otherwise crash mid-run or train nothing.
    for key in ("batch_size", "update_stride", "bo_stride"):
        if getattr(tc, key) < 1:
            raise ConfigError(f"{path}.{key}: must be at least 1, got {getattr(tc, key)}")
    needed = max(tc.batch_size, tc.warmup_size)
    if tc.replay_capacity < needed:
        raise ConfigError(f"{path}.replay_capacity: {tc.replay_capacity} is below the "
                          f"batch size and warm-up ({needed}), so no update would run")
    return tc


_SECTIONS = {
    "scenario": _parse_scenario,
    "channel": _parse_channel,
    "formation": _parse_formation,
    "gp": lambda raw, p: _build(GpConfig, raw, p),
    "training": _parse_training,
}


def parse_config(data: Any) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"top level: expected an object, got {type(data).__name__}")
    kwargs: dict[str, Any] = {}
    for key, raw in data.items():
        if key == "seed":
            kwargs["seed"] = _expect_int(raw, "seed")
        elif key in _SECTIONS:
            kwargs[key] = _SECTIONS[key](raw, key)
        else:
            raise ConfigError(f"unknown key {key}")
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        return RunConfig()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Plain-JSON form of a config.  Powers stay in watts so that
    parse_config(config_to_dict(cfg)) reproduces cfg exactly."""
    return dataclasses.asdict(cfg)


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
