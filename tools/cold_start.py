#!/usr/bin/env python3
"""Time fresh-process superfact runs on two git revisions.

    python3 tools/cold_start.py --parent 1c8217b --change HEAD \\
        --workdir /tmp/cold

Both revisions are exported with ``bench_pairs.export`` into fresh
directories under ``--workdir``.  In each of ``--rounds`` rounds,
alternating which side goes first, each side runs every case below once,
each in a new interpreter:

- ``import``: the benchmark's import probe (``IMPORT_PROBE`` of
  ``perfbench/run.py``); the time is the one it prints, as ``setup_s``
  reads it;
- ``verify``: TTW 3/2 (alpha 1.1, beta 0.7), 1000 points;
- ``integrate``: the README's euclidean orbit with ``--t-end 20``;
- ``trace``: the README's ``trace`` example;
- ``breach``: a sphere ``integrate`` that runs into the wall ``xi = pi/2``.

A command case is timed as the wall time of its process, interpreter start
included, and must exit as expected (3 for the breach, 0 otherwise), or the
script stops.  It prints each case's median and quartiles in seconds per
side and the change/parent ratio of the medians.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the imports below leave no caches in the tree
from bench_pairs import ROOT, SIDES, export, summary  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import IMPORT_PROBE  # noqa: E402

# (name, argv, expected exit code); ``None`` marks the import probe.
CASES = (
    ("import", None, 0),
    ("verify", ["verify", "--system", "ttw", "--gamma", "3/2", "--alpha", "1.1",
                "--beta", "0.7", "--samples", "1000"], 0),
    ("integrate", ["integrate", "--system", "euclidean", "--gamma", "2", "--q0", "1,0",
                   "--p0", "0,1", "--t-end", "20"], 0),
    ("trace", ["trace", "--system", "ttw", "--gamma", "2", "--alpha", "1.1",
               "--beta", "0.7", "--energy", "12", "--second", "4",
               "--symmetry", "X=1.5", "--plane", "xy"], 0),
    ("breach", ["integrate", "--system", "sphere", "--gamma", "1", "--q0", "0.3,0.2",
                "--p0", "45,0", "--t-end", "3"], 3),
)
# argv[1] is the side's source tree, the rest the command.
CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from superfact.cli import entry; entry()"


def run_case(tree: Path, outdir: Path, name: str, argv, code: int) -> float:
    """Seconds one fresh process takes for case ``name``."""
    if argv is None:
        cmd = [sys.executable, "-c", IMPORT_PROBE, str(tree / "src")]
    else:
        cmd = [sys.executable, "-c", CLI, str(tree / "src"), *argv, "--out", name]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=outdir, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != code:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{name} in {tree} exited {proc.returncode}, not {code}")
    return float(proc.stdout) if argv is None else seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="where the trees and outputs go")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)

    trees, outdirs = {}, {}
    for side in SIDES:
        sha, trees[side] = export(getattr(args, side), args.workdir, side)
        outdirs[side] = args.workdir / f"{side}-{sha[:12]}-cold"
        outdirs[side].mkdir()
        print(f"{side}: {sha}")
    seconds = {(side, name): [] for side in SIDES for name, _, _ in CASES}
    for r in range(args.rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            for name, case_argv, code in CASES:
                seconds[side, name].append(
                    run_case(trees[side], outdirs[side], name, case_argv, code))
    print(f"{args.rounds} rounds; seconds as median [q1, q3]")
    for name, _, _ in CASES:
        stats = {side: summary(seconds[side, name]) for side in SIDES}
        print(f"{name:10s}" + "".join(
            f"  {side} {s['median']:.3f} [{s['q1']:.3f}, {s['q3']:.3f}]"
            for side, s in stats.items())
            + f"  change/parent {stats['change']['median'] / stats['parent']['median']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
