"""Compare the start-up cost of two checkouts: peak memory and wall time of
``import gnystrom`` and of ``gnystrom --help``.

Usage, from the repository root:

    python3 tools/import_cost.py --parent ../parent-checkout --change .

Each side is a directory holding a checkout (its ``src/gnystrom``). For
each of the two commands, ``python -c "import gnystrom"`` and
``python -m gnystrom --help``, every side runs ``--runs`` times (5 by
default) in fresh subprocesses with ``src/`` first on ``PYTHONPATH`` and
one BLAS thread, the sides alternating: odd runs start with the parent,
even runs with the change. A run's memory is the child's peak resident set
(``ru_maxrss`` from ``os.wait4``) and its time the wall time from spawn to
exit. Linux counts in a child's ``ru_maxrss`` the memory of the process it
was forked from, so this script imports nothing large, and its figures hold
only when it runs in a process of its own. It prints one JSON object: per
side and command, the median peak in MiB and the median wall seconds, with
every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = {"import": ["-c", "import gnystrom"], "help": ["-m", "gnystrom", "--help"]}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    for side in (args.parent, args.change):
        if not (side / "src" / "gnystrom").is_dir():
            parser.error(f"{side} holds no src/gnystrom")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    return args


def measure(checkout, command):
    """(peak MiB, wall seconds) of one run of ``command`` on ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src"),
           **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *COMMANDS[command]], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{command} on {checkout} exited with {proc.returncode}")
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10), wall


def main(argv=None):
    args = parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: {command: [] for command in COMMANDS} for side in sides}
    for i in range(args.runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for command in COMMANDS:
            for side in order:
                runs[side][command].append(measure(sides[side], command))
    result = {"runs": args.runs, "blas_threads": 1}
    for side, by_command in runs.items():
        result[side] = {
            command: {"maxrss_mib": statistics.median(mib for mib, _ in values),
                      "wall_s": statistics.median(wall for _, wall in values),
                      "runs": [{"maxrss_mib": mib, "wall_s": round(wall, 4)}
                               for mib, wall in values]}
            for command, values in by_command.items()}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
