"""Command-line entry point.

Subcommands: ``run`` (execute an experiment, writing ``trace.jsonl`` and
``summary.json``), ``compare`` (ratio report for two traces), ``kde``
(CF-usage density CSV from a trace, at the fixed bandwidth
``kdestats.KDE_BANDWIDTH``), ``print-config`` (effective configuration
reference). The CLI reads every trace file it is given with
``RunTrace.from_jsonl``. Exit codes: 0 success, 2 configuration error, 3
divergence abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, compare_runs, parse_config, run_experiment, serialize_config
from .kdestats import kde_csv
from .simworkers import DivergenceError, RunTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _split_overrides(pairs) -> dict[str, str]:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _effective_config(args):
    overrides = _split_overrides(getattr(args, "set", None))
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "iters", None) is not None:
        overrides["iters"] = str(args.iters)
    if getattr(args, "out", None):
        overrides["out"] = args.out
    return parse_config(args.config, overrides)


def _cmd_run(args) -> int:
    cfg = _effective_config(args)
    summary = run_experiment(cfg)
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_compare(args) -> int:
    report = compare_runs(RunTrace.from_jsonl(args.trace_a), RunTrace.from_jsonl(args.trace_b),
                          target=args.target)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_kde(args) -> int:
    text = kde_csv(RunTrace.from_jsonl(args.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_print_config(args) -> int:
    cfg = _effective_config(args)
    sys.stdout.write(serialize_config(cfg))
    return EXIT_OK


def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--mode", help="gravac | static-cf | dense")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--iters", type=int, help="training iterations")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gravac",
                                     description="adaptive gradient-compression simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run traces: time, volume and "
                           "final_loss_delta (A's final loss minus B's)")
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.add_argument("--target", type=float, default=None,
                       help="loss target for time-to-target ratios")
    p_cmp.set_defaults(func=_cmd_compare)

    p_kde = sub.add_parser("kde", help="CF-usage density CSV from a trace")
    p_kde.add_argument("--trace", required=True)
    p_kde.add_argument("--out", help="CSV path (stdout when omitted)")
    p_kde.set_defaults(func=_cmd_kde)

    p_cfg = sub.add_parser("print-config", help="print the effective configuration")
    _add_config_flags(p_cfg)
    p_cfg.set_defaults(func=_cmd_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
