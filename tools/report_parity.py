#!/usr/bin/env python3
"""Check that two git revisions write byte-identical reports and CSVs.

    python3 tools/report_parity.py --parent 5ce56f1 --change HEAD \\
        --workdir /tmp/parity

Both revisions are exported with ``bench_pairs.export`` into fresh
directories under ``--workdir``.  Each side then runs the same ``superfact``
commands in one process, writing into its own output directory under
``--workdir``:

- ``verify`` on every spec of the benchmark's ``certify`` workload
  (``perfbench/workloads.py``) at seeds 1-3, 1000 points each;
- ``verify`` on sphere and TTW at gamma 141/100, seed 7, whose high-order
  products overflow at some points;
- the ``integrate`` and ``trace`` examples of the README;
- the first round of the benchmark's ``trace`` workload at seeds 1-3: per
  spec, one request on reachable levels and two below the energy floor.

Every output file but the manifests (they carry wall-clock timestamps) is
compared byte for byte, and so are the exit codes; each request below the
floor must also exit 5 on both sides.  The script prints each file that
differs or exists on one side only, and each such request that did not exit
5, and exits 1 if there is any; it exits 0 when all match.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # the imports below leave no caches in the tree
from bench_pairs import ROOT, SIDES, export  # noqa: E402

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import workloads  # noqa: E402
from superfact.cli import EXIT_NO_SOLUTION  # noqa: E402

SEEDS = (1, 2, 3)
HIGH_ORDER = (("sphere", "141/100", 7), ("ttw", "141/100", 7))
README_EXAMPLES = (
    ("orbit", ["integrate", "--system", "euclidean", "--gamma", "2", "--q0", "1,0",
               "--p0", "0,1", "--t-end", "25", "--closure-eps", "1e-4"]),
    ("level", ["trace", "--system", "ttw", "--gamma", "2", "--alpha", "1.1",
               "--beta", "0.7", "--energy", "12", "--second", "4",
               "--symmetry", "X=1.5", "--plane", "xy"]),
)
EXIT_CODES = "exit_codes.json"

# Runs in a fresh interpreter per side: argv[1] is the side's source tree,
# the commands come on stdin, and the outputs go to the working directory.
DRIVER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from superfact import cli
codes = {out: cli.main([*argv, "--out", out]) for out, argv in json.load(sys.stdin)}
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(codes, fh, indent=1)
"""


def _trace_requests() -> list[tuple[str, str, list[str]]]:
    """``(output prefix, kind, argv)`` of round 0 of the ``trace`` workload
    at each seed, as ``perfbench/run.py`` builds it."""
    out = []
    for seed in SEEDS:
        for index in range(workloads.groups_per_round("trace")):
            for k, cmd in enumerate(workloads.group("trace", seed, 0, index)):
                out.append((f"trace-s{seed}-g{index}-{k}", cmd.kind, list(cmd.argv)))
    return out


def commands() -> list[tuple[str, list[str]]]:
    """``(output prefix, argv)`` of every command both sides run."""
    runs = [(family, gamma, seed) for family, gamma in workloads.specs_for("certify")
            for seed in SEEDS]
    out = []
    for family, gamma, seed in [*runs, *HIGH_ORDER]:
        argv = ["verify", *workloads.spec_argv(family, gamma),
                "--samples", str(workloads.VERIFY_SAMPLES), "--seed", str(seed)]
        out.append((f"verify-{family}-{gamma.replace('/', '_')}-s{seed}", argv))
    out += [(prefix, argv) for prefix, argv in README_EXAMPLES]
    return out + [(prefix, argv) for prefix, _, argv in _trace_requests()]


def unrefused(outdir: Path) -> list[str]:
    """The requests below the energy floor that did not exit 5."""
    codes = json.loads((outdir / EXIT_CODES).read_text(encoding="utf-8"))
    return [prefix for prefix, kind, _ in _trace_requests()
            if kind == "unreachable" and codes[prefix] != EXIT_NO_SOLUTION]


def run_side(tree: Path, outdir: Path, cmds) -> None:
    outdir.mkdir(parents=True, exist_ok=False)
    # The refused requests print their errors; show them only on a crash.
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(tree / "src"), EXIT_CODES],
        input=json.dumps(cmds), text=True, cwd=outdir,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        proc.check_returncode()


def differences(parent: Path, change: Path) -> tuple[int, list[str]]:
    """How many files were compared, and the names of those that differ or
    exist on one side only."""
    names = [{p.name for p in d.iterdir() if not p.name.endswith(".manifest.json")}
             for d in (parent, change)]
    out = sorted(names[0] ^ names[1])
    for name in sorted(names[0] & names[1]):
        if not filecmp.cmp(parent / name, change / name, shallow=False):
            out.append(name)
    return len(names[0] | names[1]), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="where the trees and outputs go")
    args = parser.parse_args(argv)

    cmds = commands()
    outdirs = {}
    for side in SIDES:
        sha, tree = export(getattr(args, side), args.workdir, side)
        outdirs[side] = args.workdir / f"{side}-{sha[:12]}-out"
        run_side(tree, outdirs[side], cmds)
    compared, diff = differences(outdirs["parent"], outdirs["change"])
    for name in diff:
        print(f"differs: {name}")
    bad = [(side, prefix) for side in SIDES for prefix in unrefused(outdirs[side])]
    for side, prefix in bad:
        print(f"not exit 5 on the {side} side: {prefix}")
    print(f"{len(cmds)} commands; {len(diff)} of {compared} files differ "
          f"({outdirs['parent']} vs {outdirs['change']})")
    return 1 if diff or bad else 0


if __name__ == "__main__":
    sys.exit(main())
