"""Command-line entry point.

Subcommands
-----------
train        train the multi-agent policy and write run artifacts
eval         roll out a saved checkpoint without learning
compare      train once, then sweep formation policies and demand scales
oracle-check run the numeric self-checks against independent references

Exit codes: 0 success, 1 bad configuration, 2 self-check failure,
3 runtime error.
"""
from __future__ import annotations

import argparse
import sys

from . import harness
from .config import ConfigError, RunConfig, config_to_dict, load_config, parse_config


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration (default: all defaults)")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", default="runs/out", help="output directory")
    sub.add_argument("--episodes", type=int, help="override the episode budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flysense",
        description="Multi-UAV sense-and-offload simulator and trainer.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train and write run artifacts")
    _add_common(p_train)

    p_eval = subs.add_parser("eval", help="evaluate a saved checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint.json from a training run")

    p_cmp = subs.add_parser("compare", help="policy / demand-scale sweep")
    _add_common(p_cmp)
    p_cmp.add_argument("--eval-episodes", type=int,
                       help="evaluation episodes per policy/scale cell")

    p_orc = subs.add_parser("oracle-check", help="numeric self-checks")
    p_orc.add_argument("--seed", type=int, default=0)
    return parser


def _load(args) -> RunConfig:
    # compare --episodes 0: no training
    harness.require_count("--episodes", args.episodes, 0 if args.command == "compare" else 1)
    if args.command == "compare":
        harness.require_count("--eval-episodes", args.eval_episodes, 1)
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:  # parsed, so the seed meets its declared bound
        cfg = parse_config(dict(config_to_dict(cfg), seed=args.seed))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":  # numpy seeds no generator below 0
            harness.require_count("--seed", args.seed, 0)
            return 0 if all(r.ok for r in harness.run_oracle_checks(args.seed)) else 2
        cfg = _load(args)
        if args.command == "train":
            summary = harness.run_train(cfg, args.out, episodes=args.episodes)
            print(f"trained {summary['episodes_run']} episodes"
                  f" (early stop: {summary['early_stopped']});"
                  f" eval reward {summary['eval']['reward_mean']:.4f}")
        elif args.command == "eval":
            summary = harness.run_eval(cfg, args.out, args.checkpoint,
                                       episodes=args.episodes)
            print(f"evaluated {summary['episodes']} episodes;"
                  f" reward {summary['reward_mean']:.4f}")
        elif args.command == "compare":
            payload = harness.run_compare(cfg, args.out, episodes=args.episodes,
                                          eval_episodes=args.eval_episodes)
            for row in payload["rows"]:
                print(f"{row['policy']:>16} x{row['demand_scale']:g}:"
                      f" completion {row['completion_slot_mean']:.1f}"
                      f" ({row['completed']}/{row['episodes']} done),"
                      f" max buffer {row['max_buffer_mean']:.3g}")
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface a clean message, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
