#!/usr/bin/env python3
"""Apply hand-written mutants one at a time and report which the tests kill.

    python3 tools/mutants.py --rev HEAD --workdir /tmp/mutants

The revision is exported with ``bench_pairs.export`` into a fresh directory
under ``--workdir``.  Each entry of ``tools/mutants.json`` (beside this
script) names a ``path`` in that tree, an exact ``old`` text that must occur
there exactly once, the ``new`` text that replaces it, and a ``note``.  The unmutated tree runs tier-1 first and must pass.  Then, for
each entry, the script writes the mutated file, runs tier-1 with ``-x``
(``python -m pytest -x -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH``), and restores the file.  It prints one row per mutant:
killed or survived, the seconds the run took, the first failing test and
the note; an entry whose ``old`` text does not occur exactly once is
printed as stale and not run.  It exits 1 when any mutant survived or is
stale.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the import below leaves no caches in the tree
from bench_pairs import export  # noqa: E402

TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def run_tests(tree: Path) -> tuple[bool, str, float]:
    """Run tier-1 in ``tree`` with ``-x``: whether it passed, the first
    failing test (or the last line of the output) and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    failing = [line.split(" ", 1)[1].split(" - ")[0] for line in lines
               if line.startswith(("FAILED ", "ERROR "))]
    first = failing[0] if failing else (lines[-1] if lines else proc.stderr.strip()[-200:])
    return proc.returncode == 0, first, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to mutate")
    parser.add_argument("--workdir", type=Path, required=True, help="where the tree goes")
    args = parser.parse_args(argv)

    entries = json.loads(Path(__file__).with_name("mutants.json").read_text(encoding="utf-8"))
    _, tree = export(args.rev, args.workdir, "mutants")
    passed, first, seconds = run_tests(tree)
    print(f"unmutated tree: {'passed' if passed else 'FAILED'} in {seconds:.1f} s ({first})",
          flush=True)
    if not passed:
        return 2
    bad = 0
    for index, entry in enumerate(entries):
        path = tree / entry["path"]
        original = path.read_text(encoding="utf-8")
        count = original.count(entry["old"])
        if count != 1:
            print(f"{index:3d} stale     {'':>7}  old text found {count} times  {entry['note']}")
            bad += 1
            continue
        path.write_text(original.replace(entry["old"], entry["new"]), encoding="utf-8")
        try:
            passed, first, seconds = run_tests(tree)
        finally:
            path.write_text(original, encoding="utf-8")
        verdict = "survived" if passed else "killed"
        bad += passed
        print(f"{index:3d} {verdict:9s} {seconds:6.1f} s  {first if not passed else '-'}  "
              f"{entry['path']}: {entry['note']}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
