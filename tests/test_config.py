"""Config parsing: defaults, strict keys, unit aliases, round trips."""

import dataclasses
import json
import math
import re
import types
import typing

import numpy as np
import pytest

from flysense.config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    dbm_to_watts,
    load_config,
    parse_config,
    save_config,
)


class TestUnits:
    def test_dbm_to_watts_frozen(self):
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert dbm_to_watts(23.0) == pytest.approx(0.19952623149688797, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_inverse(self):
        for w in (1e-12, 0.2, 1.0, 40.0):
            assert dbm_to_watts(10.0 * math.log10(1000.0 * w)) == pytest.approx(w, rel=1e-12)


def _float_slots(hint) -> list:
    """(index suffix, bad -> JSON value) for the float slots of a type
    hint; in a tuple, its first entry holds the bad value and the rest 0."""
    if isinstance(hint, types.UnionType):  # X | None
        hint = typing.get_args(hint)[0]
    if hint is float:
        return [("", lambda bad: bad)]
    if typing.get_origin(hint) is not tuple:
        return []
    args = typing.get_args(hint)
    width = 1 if args[-1] is Ellipsis else len(args)
    return [(f"[0]{suffix}", lambda bad, make=make: [make(bad)] + [make(0.0)] * (width - 1))
            for suffix, make in _float_slots(args[0])]


def _float_fields(cls, path=""):
    """(dotted path, bad -> config document) for every float a config
    dataclass reads, walked from its type hints: nested sections, tuple
    entries and dBm aliases included."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(hints[f.name]):
            for leaf, make in _float_fields(hints[f.name], where):
                yield leaf, lambda bad, make=make, key=f.name: {key: make(bad)}
            continue
        for suffix, make in _float_slots(hints[f.name]):
            yield where + suffix, lambda bad, make=make, key=f.name: {key: make(bad)}
        if "alias_dbm" in f.metadata:
            alias = f.metadata["alias_dbm"]
            yield f"{path}.{alias}", lambda bad, key=alias: {key: bad}


class TestParse:
    def test_empty_object_is_defaults(self):
        assert parse_config({}) == RunConfig()

    def test_empty_file_is_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("\n")
        assert load_config(str(p)) == RunConfig()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json_raises(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))
        p.write_text('{"seed": ' + "1" * 5000 + "}")  # past the int digit limit
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key scenari"):
            parse_config({"scenari": {}})

    def test_unknown_nested_key_dotted_path(self):
        with pytest.raises(ConfigError, match=r"scenario\.n_uav"):
            parse_config({"scenario": {"n_uav": 3}})
        with pytest.raises(ConfigError, match=r"training\.weights\.gamma"):
            parse_config({"training": {"weights": {"gamma": 2.0}}})
        # Not settings: the slot is one second, and the GP proposes and the
        # learner updates in every slot.
        for data, path in (({"training": {"bo_stride": 1}}, r"training\.bo_stride"),
                           ({"training": {"update_stride": 1}}, r"training\.update_stride"),
                           ({"scenario": {"protocol": {"slot_len": 1.0}}},
                            r"scenario\.protocol\.slot_len")):
            with pytest.raises(ConfigError, match=rf"^unknown key {path}$"):
                parse_config(data)

    def test_sections_apply(self):
        cfg = parse_config({
            "seed": 42,
            "scenario": {"n_uavs": 4, "demand_bits": 5e6,
                         "protocol": {"t_f": 0.2, "t_s": 0.4, "t_o": 0.4}},
            "channel": {"n_channels": 2},
            "formation": {"kind": "dynamic_nf", "balance_threshold": 2.0},
            "gp": {"window": 25},
            "training": {"episodes": 7, "hidden": [32, 16],
                         "weights": {"mu": 5.0}},
        })
        assert cfg.seed == 42
        assert cfg.scenario.n_uavs == 4
        assert cfg.scenario.protocol.t_f == 0.2
        assert cfg.channel.n_channels == 2
        assert cfg.formation.kind == "dynamic_nf"
        assert cfg.gp.window == 25
        assert cfg.training.hidden == (32, 16)
        assert cfg.training.weights.mu == 5.0
        # untouched sections keep their defaults
        assert cfg.scenario.buffer_capacity_bits == RunConfig().scenario.buffer_capacity_bits

    def test_type_rejections(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True})
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config({"training": {"episodes": 2.5}})
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config({"scenario": {"demand_bits": "big"}})
        with pytest.raises(ConfigError, match="expected true/false"):
            parse_config({"training": {"bo_enabled": 1}})
        with pytest.raises(ConfigError, match="expected a string"):
            parse_config({"formation": {"kind": 3}})
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config({"scenario": [1, 2]})
        with pytest.raises(ConfigError, match="expected a pair"):
            parse_config({"scenario": {"bs_xy": [1.0]}})
        with pytest.raises(ConfigError, match=r"gu_xy\[1\]"):
            parse_config({"scenario": {"gu_xy": [[0.0, 0.0], [1.0]]}})

    def test_declared_bounds_reject_nan(self):
        """Every float the schema reads, tuple entries and dBm aliases
        included, rejects NaN and both infinities with its dotted path."""
        fields = dict(_float_fields(RunConfig))
        assert {"seed", "training.hidden[0]"}.isdisjoint(fields)
        assert {"scenario.demand_bits", "scenario.bs_xy[0]", "scenario.uav_xy[0][0]",
                "scenario.protocol.t_f", "formation.min_rate", "gp.signal_var",
                "channel.noise_dbm", "training.tau"} <= set(fields)
        for path, doc in fields.items():
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: must .*, got {bad}$"):
                    parse_config(doc(bad))

    def test_invalid_protocol_timing_reported_with_path(self):
        with pytest.raises(ConfigError, match="scenario.protocol: sub-slot durations must "
                                              "sum to the 1 s slot"):
            parse_config({"scenario": {"protocol": {"t_f": 0.5}}})

    def test_optional_fields(self):
        cfg = parse_config({
            "scenario": {"n_uavs": 1, "gu_seed": None, "gu_xy": None, "uav_xy": [[0.1, 0.2]]},
            "formation": {"min_rate": None},
            "training": {"warmup": None},
        })
        assert cfg.scenario.gu_seed is None
        assert cfg.scenario.gu_xy is None
        assert cfg.scenario.uav_xy == ((0.1, 0.2),)
        assert cfg.formation.min_rate is None
        assert cfg.training.warmup is None
        assert cfg.training.warmup_size == cfg.training.batch_size

    def test_gu_seed_value(self):
        cfg = parse_config({"scenario": {"gu_seed": 9}, "formation": {"min_rate": 1e5}})
        assert cfg.scenario.gu_seed == 9
        assert cfg.formation.min_rate == 1e5


class TestDbmAliases:
    def test_alias_converts(self):
        cfg = parse_config({"channel": {"noise_dbm": -90, "p_uav_dbm": 23,
                                        "q_gu_dbm": 23}})
        assert cfg.channel.noise == pytest.approx(1e-12, rel=1e-12)
        assert cfg.channel.p_uav == pytest.approx(0.19952623149688797, rel=1e-12)
        assert cfg.channel.q_gu == cfg.channel.p_uav

    def test_alias_conflicts_with_watts_key(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config({"channel": {"noise_dbm": -90, "noise": 1e-12}})

    def test_watts_keys_still_work(self):
        cfg = parse_config({"channel": {"p_uav": 0.5}})
        assert cfg.channel.p_uav == 0.5


class TestRoundTrip:
    def custom(self):
        return parse_config({
            "seed": 5,
            "scenario": {"n_uavs": 2, "n_gus": 4, "gu_seed": 77,
                         "gu_xy": [[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6], [0.0, 0.0]],
                         "uav_xy": [[0.0, 0.0], [0.5, 0.5]],
                         "demand_bits": 3e6,
                         "protocol": {"d_min": 25.0},
                         "energy": {"hover_w": 150.0}},
            "channel": {"n_channels": 2, "p_uav_dbm": 20},
            "formation": {"kind": "eda_nf", "min_rate": 2e5},
            "gp": {"length_scale": 0.4, "n_dir": 8},
            "training": {"episodes": 3, "hidden": [8], "batch_size": 8, "warmup": 12,
                         "weights": {"gamma_data": 2.0}},
        })

    def test_dict_round_trip_exact(self):
        cfg = self.custom()
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_file_round_trip_exact(self, tmp_path):
        cfg = self.custom()
        p = tmp_path / "cfg.json"
        save_config(cfg, str(p))
        assert load_config(str(p)) == cfg
        # powers serialize in watts, not dBm
        data = json.loads(p.read_text())
        assert data["channel"]["p_uav"] == pytest.approx(dbm_to_watts(20), rel=1e-15)
        assert "p_uav_dbm" not in data["channel"]

    def test_default_round_trip(self, tmp_path):
        p = tmp_path / "d.json"
        save_config(RunConfig(), str(p))
        assert load_config(str(p)) == RunConfig()
