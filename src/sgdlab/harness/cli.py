"""`lab` command line entry point.

    lab <experiment> --config PATH [--seed S] [--out DIR] [--threads N]

--seed S overrides the config's master_seed with any nonnegative integer
(there is no upper limit; every seed path takes it whole).

Prints one line per gate, ``name n T measured rhs slack_sigma satisfied``
(``-`` for a gate without n or T), after the CSV is written.

Exit codes: 0 every gate passed, 1 a gate failed, 2 config error (a bad
argument, and an output path that cannot be made a directory,
included) or a violated precondition of the requested bound, 3
resource limit exceeded, 4 any other error (an internal fault; one line on
stderr names it).  The LAB_THREADS environment variable overrides
--threads; both are accepted and checked but have no effect, as chunks of
replicates run one after another.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from ..errors import ConfigError, LabError, PreconditionViolation, ResourceLimitExceeded
from .config import EXPERIMENTS, load_config
from .experiments import GateLine, run_experiment

EXIT_PASS = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a config error, so it gets the one-line exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lab",
        description="stability/generalization experiments for projected SGD")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's master_seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        overrides = {"experiment": args.experiment}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["out_path"] = args.out
        threads = args.threads
        env_threads = os.environ.get("LAB_THREADS")
        if env_threads is not None:
            try:
                threads = int(env_threads)
            except ValueError:
                raise ConfigError(f"LAB_THREADS must be an integer, got {env_threads!r}")
        if threads is not None:
            overrides["threads"] = threads
        cfg = cfg._replace(**overrides)
        gates: List[GateLine] = []
        code = run_experiment(cfg, gates)
    except ResourceLimitExceeded as e:
        print(f"lab: resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except PreconditionViolation as e:
        print(f"lab: precondition violated: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ConfigError, LabError) as e:
        print(f"lab: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as e:  # the CLI boundary turns any other fault into one line
        print(f"lab: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    for line in gates:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
