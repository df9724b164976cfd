"""Command-line front end for the power sweep.

Usage:
    simulate --trials 200 --seed 1 --schemes coloring,rzf,csi,csidata \
             --power-dbw -15:15:5 --m 1 --out results.csv --format csv

Flags may also come from a flat key=value config file (--config); explicit
flags override file values.  Exit codes: 0 success, 1 configuration error,
2 I/O error.  The SATCOOP_WORKERS environment variable sets the worker
count when neither the flag nor the file provides one.  Allocation problems
that stop at the solver's iteration cap are counted on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .harness import (MAX_GRID_POINTS, SCHEME_NAMES, WORKERS_ENV_VAR,
                      SimConfig, export_report, run_sweep)


def parse_power_grid(text: str) -> tuple[float, ...]:
    """Accept 'start:stop:step' (inclusive) or a comma list of dBW values.

    A range must have finite bounds and is checked against MAX_GRID_POINTS
    before it is expanded; SimConfig.validate caps either form.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"power grid {text!r} is not start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"power grid {text!r} must have finite bounds")
        if step <= 0 or stop < start:
            raise ValueError(f"power grid {text!r} must ascend with step > 0")
        # counted as a float first: the span can overflow to inf
        span = (stop - start + 1e-9) / step
        if not span < MAX_GRID_POINTS:
            raise ValueError(f"power grid {text!r} has more than "
                             f"{MAX_GRID_POINTS} points")
        count = math.floor(span) + 1
        return tuple(round(start + i * step, 9) for i in range(count))
    return tuple(float(p) for p in text.split(","))


def parse_schemes(text: str) -> tuple[str, ...]:
    """Split a comma list; SimConfig.validate checks the names."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_flag(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"flag value {text!r} is not one of "
                     "1/0/true/false/yes/no")


# (config-file key = argparse dest, SimConfig field, converter for text values)
_CONFIG_TABLE = (
    ("trials", "trials", int),
    ("seed", "master_seed", int),
    ("schemes", "schemes", parse_schemes),
    ("power_dbw", "power_grid_dbw_per_beam", parse_power_grid),
    ("m", "m_per_neighbour", int),
    ("out", "out_path", str),
    ("format", "out_format", str),
    ("paper_literal_coloring", "paper_literal_coloring", _parse_flag),
    ("workers", "workers", int),
)
_CONFIG_KEYS = tuple(key for key, _, _ in _CONFIG_TABLE)


def load_config_file(path: str) -> dict:
    """Flat key=value file mirroring the CLI flags; '#' starts a comment."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte-Carlo per-beam throughput sweep comparing "
                    "multibeam transmission strategies.")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file; flags override it")
    parser.add_argument("--trials", type=int,
                        help="number of Monte-Carlo trials (default 200)")
    parser.add_argument("--seed", type=int,
                        help="master seed for the trial ladder (default 1)")
    parser.add_argument("--schemes",
                        help="comma list among: " + ",".join(SCHEME_NAMES)
                        + " (default all)")
    parser.add_argument("--power-dbw",
                        help="per-beam power grid, start:stop:step or comma "
                             "list in dBW, each point within -60..60 "
                             "(default -15:15:5)")
    parser.add_argument("--m", type=int, dest="m",
                        help="edge users selected per neighbouring cluster "
                             "(default 1)")
    parser.add_argument("--out",
                        help="output file path (default results.csv)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    parser.add_argument("--paper-literal-coloring", action="store_true",
                        default=None,
                        help="use the 4*W*N0 noise constant in the coloring "
                             "SINR instead of the W/4 sub-band noise")
    parser.add_argument("--workers", type=int,
                        help="parallel trial workers (default: "
                             f"${WORKERS_ENV_VAR} or CPU count)")
    return parser


def _merge_config(args: argparse.Namespace) -> SimConfig:
    """Explicit flags win over the config file, which wins over defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {}
    for key, field, convert in _CONFIG_TABLE:
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key)
        if value is not None:
            overrides[field] = convert(value) if isinstance(value, str) else value
    config = dataclasses.replace(SimConfig(), **overrides)
    config.validate()
    return config


def _glue_negative_values(argv: list) -> list:
    """Join `--power-dbw -15:15:5` into one token so argparse does not
    mistake the leading-dash value for an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--power-dbw":
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_negative_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that is a configuration error
        # here, and exit code 2 is reserved for I/O failures
        return 0 if not exc.code else 1
    try:
        config = _merge_config(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_sweep(config)
        export_report(report, config.out_path, config.out_format)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2

    print(f"wrote {config.out_path} ({config.trials} trials, "
          f"{len(config.power_grid_dbw_per_beam)} power points)")
    total = int(report.nonconverged.sum())
    if total:
        cells = ", ".join(
            f"{report.schemes[si]} at {report.power_grid_dbw[pi]:g} dBW "
            f"({report.nonconverged[si, pi]})"
            for si, pi in zip(*report.nonconverged.nonzero()))
        print(f"warning: {total} power allocation problems did not converge: "
              f"{cells}", file=sys.stderr)
    header = "power_dbw " + " ".join(f"{s:>12}" for s in report.schemes)
    print(header)
    for pi, dbw in enumerate(report.power_grid_dbw):
        cells = " ".join(f"{report.mean_mbps[si, pi]:12.3f}"
                         for si in range(len(report.schemes)))
        print(f"{dbw:9.1f} {cells}")
    if "coloring" in report.schemes:
        base = report.mean_mbps[report.schemes.index("coloring")]
        print("mean-throughput gain over the 4-colour baseline at each power:")
        for other, mean in zip(report.schemes, report.mean_mbps):
            if other != "coloring":
                gains = mean / base - 1.0
                print(f"  {other:>8}: "
                      + " ".join(f"{100 * g:+6.1f}%" for g in gains))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
