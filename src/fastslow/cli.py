"""Command-line entry point.

Subcommands: linreg | dnn | rover (run a suite), calibrate (rover bloat
radius), report (merge summaries and regenerate charts). Exit codes:
0 success, 2 configuration error, 3 failed --check assertion.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    CheckFailure,
    ConfigError,
    POLICY_ORDER,
    calibrate,
    check_report,
    default_config,
    load_config,
    merge_reports,
    run_suite,
)


def _add_suite_parser(sub, name: str, help_text: str) -> None:
    sp = sub.add_parser(name, help=help_text)
    sp.add_argument("--config", type=Path, help="JSON config (defaults are built in)")
    sp.add_argument("--seed", type=int, help="override the top-level seed")
    sp.add_argument("--trials", type=int, help="override the trial count")
    sp.add_argument("--steps", type=int, help="override steps per trial")
    sp.add_argument("--out", type=Path, help="output directory")
    sp.add_argument("--check", action="store_true", help="assert policy ordering on the results (exit 3 on failure)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastslow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_suite_parser(sub, "linreg", "coreset linear-regression suite")
    _add_suite_parser(sub, "dnn", "bounded predictor-pair suite")
    _add_suite_parser(sub, "rover", "rover navigation suite")

    cal = sub.add_parser("calibrate", help="compute and store the rover bloat radius")
    cal.add_argument("--config", type=Path)
    cal.add_argument("--seed", type=int)
    cal.add_argument("--out", type=Path, required=True, help="calibration JSON path")

    rep = sub.add_parser("report", help="merge suite outputs and regenerate charts")
    rep.add_argument("paths", nargs="+", type=Path, help="suite output dirs or summary.json files")
    rep.add_argument("--out", type=Path, required=True, help="merged output directory")
    return parser


def _config(args, scenario: str, **overrides):
    """`--config` (or the built-in defaults) with the given command-line values as overrides."""
    overrides = {k: str(v) if isinstance(v, Path) else v for k, v in overrides.items() if v is not None}
    if args.config is None:
        return default_config(scenario, overrides=overrides)
    cfg = load_config(args.config, overrides=overrides)
    if cfg.scenario != scenario:
        raise ConfigError(f"scenario: config is for {cfg.scenario!r}, command needs {scenario!r}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("linreg", "dnn", "rover"):
            cfg = _config(args, args.command, seed=args.seed, trials=args.trials, n_steps=args.steps, out_dir=args.out)
            report = run_suite(cfg)
            for policy in POLICY_ORDER:
                if policy in report.aggregates:
                    m = report.aggregates[policy]["cumulative_reward"]
                    print(f"{policy:14s} mean cumulative reward {m['mean']:.6g} (std {m['std']:.3g})")
            print(f"outputs in {cfg.out_dir}")
            if args.check:
                try:
                    check_report(report)
                except CheckFailure as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    return 3
                print("check passed")
        elif args.command == "calibrate":
            artifacts = calibrate(_config(args, "rover", seed=args.seed), out_path=args.out)
            for art in artifacts:
                eps = art["epsilon"]
                eps_text = f"{eps:.6g}" if eps is not None else "n/a"
                print(f"{art['map']:20s} mu={art['mu']:.6g} epsilon={eps_text}")
        elif args.command == "report":
            merged = merge_reports(args.paths, out_dir=args.out)
            print(f"merged {len(args.paths)} summaries, {merged.trials} trials total -> {args.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
