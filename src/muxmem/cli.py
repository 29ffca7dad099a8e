"""Command line entry point.

Usage::

    muxmem <scenario> [--config cfg.json] [--out DIR] [--seed N] [--trials N]

Writes ``<scenario>.csv`` (the swept table) and ``<scenario>_summary.json``
(headline numbers) into the output directory.  Exit codes: 0 success,
2 configuration error (undecodable JSON, an unknown key, a bad value or flag;
the message names it), 3 model or numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import RUN_SPECS, SCENARIOS, ConfigError, parse_config
from .scenarios import emit_csv, emit_json, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxmem",
        description="Multiplexed quantum memory design scenarios.")
    parser.add_argument("scenario", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides output_path)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override rng_seed")
    parser.add_argument("--trials", type=int, metavar="N",
                        help="override n_trials")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, "rb") as fh:
                text = fh.read()
        else:
            text = ""
        cfg = parse_config(text, scenario=args.scenario)
        for flag, key in (("--seed", "rng_seed"), ("--trials", "n_trials"),
                          ("--out", "output_path")):
            if (value := getattr(args, flag[2:])) is not None:
                name, parser = RUN_SPECS[key]
                cfg = replace(cfg, **{name: parser(flag, value)})

        result = run_scenario(cfg)

        out_dir = cfg.output_path
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{cfg.scenario}.csv")
        json_path = os.path.join(out_dir, f"{cfg.scenario}_summary.json")
        emit_csv(csv_path, result)
        emit_json(json_path, result)
    except ConfigError as exc:
        print(f"muxmem: config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"muxmem: model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"muxmem: i/o error: {exc}", file=sys.stderr)
        return 4

    print(csv_path)
    print(json_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
