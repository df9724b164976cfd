"""Launcher of the satcoop benchmark.

    python3 satbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It uses only the standard library: it
pins the environment (one BLAS/OpenMP thread, SATCOOP_WORKERS removed, the
checkout's src/ on PYTHONPATH) and starts one measuring process
(worker.py), whose last stdout line, the JSON result, it prints as its own.
It exits non-zero without a result when the checkout holds no satcoop
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 170.0


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("SATCOOP_WORKERS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main() -> int:
    start = monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "satcoop" / "__init__.py").is_file():
        print(f"no satcoop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own process group, so that a deadline also ends the set-up probes
    # it may be running
    worker = subprocess.Popen(cmd, env=pinned_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=DEADLINE_S - (monotonic() - start))
    except subprocess.TimeoutExpired:
        print("the measuring process overran its deadline", file=sys.stderr)
        return 3
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        return worker.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
