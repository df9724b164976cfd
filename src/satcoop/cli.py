"""Command-line front end for the power sweep.

Usage:
    simulate --trials 200 --seed 1 --schemes coloring,rzf,csi,csidata \
             --power-dbw -15:15:5 --m 1 --out results.csv --format csv

Each setting is declared once, in _CONFIG_TABLE, and may also come from a
flat key=value config file (--config); explicit flags override file values.
Flag and file text go through the same converter, so they fail alike.
Each flag has one spelling, its full name.  --paper-literal-coloring alone
means true.  Workers default to the CPU count.  Exit codes: 0 success, 1
configuration error (an abbreviated flag too), 2 I/O error (an --out that is
empty, a directory, in a missing directory or with a directory for its .dat
companion exits before the sweep).  Allocation problems that stop at the
solver's iteration cap are counted on stderr.  After the mean-throughput
table come the paired gains over coloring, and of csidata over rzf, each
with its standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .harness import (MAX_GRID_POINTS, MAX_TRIALS, SCHEME_NAMES, SimConfig,
                      companion_path, export_report, paired_gain, run_sweep)


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


# (config-file key, SimConfig field, converter, help); a key's flag is --key
# with dashes
_CONFIG_TABLE = (
    ("trials", "trials", int,
     f"number of Monte-Carlo trials (default 200, at most {MAX_TRIALS})"),
    ("seed", "master_seed", int,
     "master seed for the trial ladder (default 1)"),
    ("schemes", "schemes", parse_schemes,
     "comma list among: " + ",".join(SCHEME_NAMES) + " (default all)"),
    ("power_dbw", "power_grid_dbw_per_beam", parse_power_grid,
     "per-beam power grid, start:stop:step or comma list in dBW, each point "
     "within -60..60 (default -15:15:5)"),
    ("m", "m_per_neighbour", int,
     "edge users selected per neighbouring cluster (default 1)"),
    ("out", "out_path", str, "output file path (default results.csv)"),
    ("format", "out_format", str, "output format, csv or json (default csv)"),
    ("paper_literal_coloring", "paper_literal_coloring", _parse_flag,
     "use the 4*W*N0 noise constant in the coloring SINR instead of the W/4 "
     "sub-band noise: 1/0/true/false/yes/no, the bare flag means true"),
    ("workers", "workers", int,
     "parallel trial workers, at most one per trial and CPU (default CPUs)"),
)
_CONFIG_KEYS = tuple(row[0] for row in _CONFIG_TABLE)


def load_config_file(path: str) -> dict:
    """Flat key=value file mirroring the CLI flags; '#' starts a comment."""
    values: dict = {}
    lines: dict = {}   # key -> the line that set it
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
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already "
                                 f"set on line {lines[key]}")
            values[key], lines[key] = val.strip(), lineno
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate", allow_abbrev=False,
        description="Monte-Carlo per-beam throughput sweep comparing "
                    "multibeam transmission strategies.")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file; flags override it")
    for key, _, convert, help_text in _CONFIG_TABLE:
        # a yes/no setting given as a bare flag means true
        optional = (dict(nargs="?", const="true", metavar="BOOL")
                    if convert is _parse_flag else {})
        parser.add_argument("--" + key.replace("_", "-"), help=help_text,
                            **optional)
    return parser


def _merge_config(args: argparse.Namespace) -> SimConfig:
    """Explicit flags win over the config file, which wins over defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {}
    for key, field, convert, _ in _CONFIG_TABLE:
        text = getattr(args, key)
        if text is None:
            text = file_values.get(key)
        if text is not None:
            try:
                overrides[field] = convert(text)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
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
    # checked, with the .dat companion, before the sweep, which can run for
    # minutes before the write; an empty path names no file, like a directory
    out_dir = os.path.dirname(config.out_path) or os.curdir
    if (not os.path.isdir(out_dir) or os.path.isdir(config.out_path or ".")
            or os.path.isdir(companion_path(config.out_path))):
        print(f"I/O error: output path {config.out_path!r} or its companion "
              "is not a file name in an existing directory", file=sys.stderr)
        return 2

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
    pairs = [(a, "coloring") for a in report.schemes
             if a != "coloring" and "coloring" in report.schemes]
    if "csidata" in report.schemes and "rzf" in report.schemes:
        pairs.append(("csidata", "rzf"))
    if pairs:
        print("mean-throughput gain ± standard error over the paired trials "
              "at each power:")
    for a, b in pairs:
        gain, stderr = paired_gain(report, a, b)
        print(f"  {a + ' over ' + b:>21}: " + " ".join(
            f"{100 * g:+7.2f}±{100 * e:.2f}%" for g, e in zip(gain, stderr)))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
