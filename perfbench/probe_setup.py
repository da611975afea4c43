"""Set-up probe: a fresh interpreter builds one invocation's config and datasets.

Usage: python3 perfbench/probe_setup.py <prestopping CLI arguments>

Imports `prestopping.cli`, parses the arguments as the CLI would, runs
`build_config` and then `build_dataset` for every seed, and exits before the
first training step. The benchmark times the whole process as `setup_s`.
"""

import sys

from prestopping import cli


def config(argv):
    """The ExperimentConfig the CLI builds from argv."""
    args = cli.build_parser().parse_args(argv)
    overrides = {key: value for key in cli.CONVERTERS
                 if (value := getattr(args, key)) is not None}
    return cli.build_config(args.config, overrides)


def main(argv):
    cfg = config(argv)
    for seed in cfg.seeds:
        cli.build_dataset(cfg, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
