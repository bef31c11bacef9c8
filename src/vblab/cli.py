"""Command-line entry points for the experiment harness.

Every subcommand reads a JSON ExperimentConfig, checks that its model is
one harness.MODELS assigns to the subcommand, produces the model's table
(or its rate-exponent fit with --fit, or the subcommand's report), and
writes the result to --out in CSV or JSON.  Exit codes: 0 on success,
2 on validation problems (bad config, bad inputs, or a run too large
for memory), 3 on numeric or optimization failures.
"""

import argparse
import dataclasses
import sys

from . import harness
from .errors import InputError, NumericError

_HELP = {
    "divcheck": "divergence chain and monotonicity audit over random pairs",
    "gsm-rate": "sequence-model risk over an n grid",
    "gsm-dim": "effective dimension of the sequence-model posterior",
    "gsm-lower": "sequence-model risk against the spike adversary",
    "trunc-curve": "exact rate-exponent curve for the truncated family",
    "pc-compare": "change-point risks (product or Markov-chain posterior)",
    "mix-fit": "mixture fit quality (squared Hellinger) over an n grid",
    "expfam-fit": "exponential-family fit quality over an n grid",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vblab", description="variational posterior rate experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table_commands = {s.command for s in harness.MODELS.values() if s.report is None}
    for name in dict.fromkeys(s.command for s in harness.MODELS.values()):
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", help="output path (falls back to the config's 'out')")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in table_commands:
            p.add_argument(
                "--fit", action="store_true", help="emit the rate-exponent fit instead of the table"
            )
            p.add_argument(
                "--loglog", action="store_true", help="include a log log n regressor in --fit"
            )
    return parser


def _produce(args, config: harness.ExperimentConfig):
    spec = harness.MODELS.get(config.model)
    if spec is None or spec.command != args.command:
        allowed = [m for m, s in harness.MODELS.items() if s.command == args.command]
        raise InputError(
            f"this subcommand expects model in {allowed}, config says {config.model!r}"
        )
    # harness functions are looked up on the module at call time, so a wrapper
    # installed there (as perfbench's tracer does) sees every call
    if spec.report is not None:
        return getattr(harness, spec.report)(config)
    table = harness.run_experiment(config)
    return harness.fit_rate_exponent(table, with_loglog=args.loglog) if args.fit else table


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, "r") as fh:
                config = harness.ExperimentConfig.from_json(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        out = args.out if args.out is not None else config.out
        if out is None:
            raise InputError("no output path: pass --out or set 'out' in the config")
        harness.emit(_produce(args, config), args.format, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a config too large for this machine, n_grid or replications
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
