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
- the first round of the benchmark's ``flow`` workload at seeds 1-3: per
  spec, two ``integrate`` commands from energy-stratified starts;
- round 281 of the ``flow`` workload at seeds 1-10, the round a fast
  30-second run reaches (300 ``integrate`` commands); it holds the seed-6
  group-11 TTW 3/2 start whose ``Y`` drift exceeds the benchmark's check;
- the first round of the benchmark's ``trace`` workload at seeds 1-3: per
  spec, one request on reachable levels and two below the energy floor;
- ``trace`` on levels above the ceiling, per family at gamma 2, 3/2 and
  7/5: ``H`` and ``I2`` of an in-domain point, and ``X`` ten times ``|X+|``
  there;
- one reachable ``trace --plane rtheta`` per family: the README's TTW
  levels, and ``H``, ``I2`` and ``X`` of the euclidean point above at
  gamma 2 and of the sphere point at gamma 3/2;
- one ``integrate`` per wall that runs into it within ``t = 3`` (the
  sphere's ``xi``, ``y`` and the TTW ``theta = pi/2``, ``theta = 0``,
  ``r = 0``), and one TTW ``integrate --external-angle``.

Every output file but the manifests (they carry wall-clock timestamps) is
compared byte for byte, and so are the exit codes; each request below the
floor or above the ceiling must also exit 5 on both sides, each run into a
wall exit 3, and each request above the ceiling be refused on the change
side before any split of the level search (its manifest message names the
ceiling, and ``level_search.splits`` is 0).  The script prints every file
that differs or exists on one side only.  Two kinds of file may differ.  A
report may differ in its ``closure`` object alone, and the script prints
each closure verdict (closed, stationary, open or undetermined) that
changes.  A ``trace`` output may differ otherwise too, since a ``trace`` may
find another point on the same levels; for it the script prints the change
side's ``level_residual``, which must be at most ``LEVEL_TOL``.  It prints
each request that did not exit or refuse as expected, and exits 1 if there
is any such request, any differing exit code or other file, or a residual
above ``LEVEL_TOL``; else it exits 0.

A differing file is marked "numbers only" when just its floating-point
numbers moved: a report keeps its keys, verdicts, strings and integers (the
independence rank counts, say), a CSV keeps its header and row count, and
its command exits as on the other side.  Any other difference is
"structure".  Each differing file that exists on both sides is printed
with the largest difference between its numbers, and the last line counts
both kinds.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # the imports below leave no caches in the tree
from bench_pairs import ROOT, SIDES, export  # noqa: E402

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import superfact as sf  # noqa: E402
import workloads  # noqa: E402
from superfact.cli import EXIT_BREACH, EXIT_NO_SOLUTION  # noqa: E402
from workloads import LEVEL_TOL  # noqa: E402

SEEDS = (1, 2, 3)
FAST_FLOW_ROUND = 281
FAST_FLOW_SEEDS = tuple(range(1, 11))
HIGH_ORDER = (("sphere", "141/100", 7), ("ttw", "141/100", 7))
README_EXAMPLES = (
    ("orbit", ["integrate", "--system", "euclidean", "--gamma", "2", "--q0", "1,0",
               "--p0", "0,1", "--t-end", "25", "--closure-eps", "1e-4"]),
    ("level", ["trace", "--system", "ttw", "--gamma", "2", "--alpha", "1.1",
               "--beta", "0.7", "--energy", "12", "--second", "4",
               "--symmetry", "X=1.5", "--plane", "xy"]),
)
# In-domain points whose H and I2, with X = 10 |X+|, lie below the ceiling.
CEILING_POINTS = {
    "euclidean": (0.5, -0.3, 0.4, 0.7),
    "sphere": (0.4, -0.3, 0.5, 0.2),
    "ttw": (1.2, 0.7, 0.3, -0.4),
}
CEILING_GAMMAS = ("2", "3/2", "7/5")
# Specs whose ceiling point, on its own X level, is traced in polar.
PROJECTION_SPECS = (("euclidean", "2"), ("sphere", "3/2"))
# One run into each wall (its label in the prefix), and the TTW external angle.
SPHERE_1 = ["--system", "sphere", "--gamma", "1"]


def _ttw_argv(gamma: str, barrier: str) -> list[str]:
    return ["--system", "ttw", "--gamma", gamma, "--alpha", barrier, "--beta", barrier]


BREACH_RUNS = (
    ("breach-sphere-xi", [*SPHERE_1, "--q0", "0,0", "--p0", "45,0"]),
    ("breach-sphere-y", [*SPHERE_1, "--q0", "0,0", "--p0", "0,45"]),
    ("breach-ttw-theta-pi_2", [*_ttw_argv("1", "0.05"), "--q0", "1.0,0.7", "--p0", "0,3"]),
    ("breach-ttw-theta-0", [*_ttw_argv("2", "0.05"), "--q0", "1.0,0.7", "--p0", "0,-3"]),
    ("breach-ttw-r", [*_ttw_argv("1", "0.01"), "--q0", "1.0,0.7", "--p0=-4,0"]),
)
EXTERNAL_ANGLE = ("phi-ttw-3_2", [*workloads.spec_argv("ttw", "3/2"), "--q0", "1.2,0.8",
                                  "--p0=-0.4,0.6", "--external-angle"])
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


def _round(workload: str, rnd: int = 0, seeds=SEEDS) -> list[tuple[str, str, list[str]]]:
    """``(output prefix, kind, argv)`` of round ``rnd`` of ``workload`` at
    each seed, as ``perfbench/run.py`` builds it."""
    out = []
    for seed in seeds:
        for index in range(workloads.groups_per_round(workload)):
            for k, cmd in enumerate(workloads.group(workload, seed, rnd, index)):
                out.append((f"{workload}-r{rnd}-s{seed}-g{index}-{k}", cmd.kind,
                            list(cmd.argv)))
    return out


def _point_trace(family: str, gamma: str, plane: str, reachable: bool) -> list[str]:
    """``trace`` argv on ``H`` and ``I2`` of ``CEILING_POINTS[family]``
    and on its own ``X`` when ``reachable``, else ``X`` ten times ``|X+|``."""
    spec = workloads.make_spec(family, gamma)
    point = sf.PhasePoint(*CEILING_POINTS[family])
    h, i2 = sf.hamiltonian(spec, point), sf.second_integral(spec, point)
    x_plus, _, x_real, _ = sf.higher_integral_observables(spec)
    x = x_real(point).real if reachable else 10 * abs(x_plus(point))
    return ["trace", *workloads.spec_argv(family, gamma), f"--energy={h!r}",
            f"--second={i2!r}", f"--symmetry=X={x!r}", "--plane", plane]


def above_ceiling() -> list[tuple[str, list[str]]]:
    """``(output prefix, argv)`` of the ``trace`` requests above the
    ceiling ``|X+|``."""
    return [(f"ceiling-{family}-{gamma.replace('/', '_')}",
             _point_trace(family, gamma, "xy", reachable=False))
            for gamma in CEILING_GAMMAS for family in CEILING_POINTS]


def projections() -> list[tuple[str, list[str]]]:
    """``(output prefix, argv)`` of one reachable ``trace --plane rtheta``
    per family: the README's TTW levels, and the levels of the euclidean and
    sphere ceiling points with their own ``X``."""
    level = dict(README_EXAMPLES)["level"]
    out = [("rtheta-ttw-2", [*level[:-1], "rtheta"])]
    for family, gamma in PROJECTION_SPECS:
        out.append((f"rtheta-{family}-{gamma.replace('/', '_')}",
                    _point_trace(family, gamma, "rtheta", reachable=True)))
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
    out += [(prefix, argv) for workload in ("flow", "trace")
            for prefix, _, argv in _round(workload)]
    out += [(prefix, argv) for prefix, _, argv in
            _round("flow", FAST_FLOW_ROUND, FAST_FLOW_SEEDS)]
    out += above_ceiling() + projections()
    return out + [(prefix, ["integrate", *argv, "--t-end", "3"])
                  for prefix, argv in (*BREACH_RUNS, EXTERNAL_ANGLE)]


def expected_exits() -> dict[str, int]:
    """The exit code of each command whose code is known in advance: 5 for
    the requests below the energy floor and above the ceiling, 3 for the
    runs into a wall."""
    out = {prefix: EXIT_NO_SOLUTION for prefix, kind, _ in _round("trace")
           if kind == "unreachable"}
    out.update((prefix, EXIT_NO_SOLUTION) for prefix, _ in above_ceiling())
    out.update((prefix, EXIT_BREACH) for prefix, _ in BREACH_RUNS)
    return out


def unexpected(codes: dict) -> list[tuple[str, int]]:
    """``(prefix, expected code)`` of each command in :func:`expected_exits`
    that exited otherwise, given one side's exit codes."""
    return [(prefix, code) for prefix, code in expected_exits().items()
            if codes[prefix] != code]


def _manifest(outdir: Path, prefix: str) -> dict:
    path = outdir / f"{prefix}.manifest.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def unrefused(outdir: Path) -> list[str]:
    """The requests above the ceiling that were not refused before any
    split, with a message that names the ceiling."""
    out = []
    for prefix, _ in above_ceiling():
        manifest = _manifest(outdir, prefix)
        if ("is above the ceiling |X+|" not in manifest.get("message", "")
                or manifest.get("level_search", {}).get("splits") != 0):
            out.append(prefix)
    return out


def _verdict(closure: dict | None) -> str:
    if closure is None:
        return "none"
    if closure["closed"] is None:
        return "undetermined"
    if closure["closed"]:
        return "stationary" if closure["period"] is None else "closed"
    return "open"


def closure_verdicts(parent: Path, change: Path) -> tuple[str, str] | None:
    """The closure verdicts of two reports that differ in their ``closure``
    object alone, else ``None``."""
    if not (parent.name.endswith(".report.json") and parent.exists() and change.exists()):
        return None
    reports = [json.loads(p.read_text(encoding="utf-8")) for p in (parent, change)]
    closures = [report.pop("closure", None) for report in reports]
    if json.dumps(reports[0]) != json.dumps(reports[1]):
        return None
    return _verdict(closures[0]), _verdict(closures[1])


def level_residual(outdir: Path, prefix: str) -> float:
    """The ``level_residual`` of a ``trace`` report, NaN without one."""
    path = outdir / f"{prefix}.report.json"
    if not path.exists():
        return math.nan
    return json.loads(path.read_text(encoding="utf-8"))["solution"]["level_residual"]


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


def _numbers(path: Path) -> list[float]:
    """The numbers of a CSV or JSON output, in file order."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".json":
        values = []
        for cell in text.replace("\n", ",").split(","):
            try:
                values.append(float(cell))
            except ValueError:
                pass
        return values
    values = []

    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            values.append(float(node))

    walk(json.loads(text))
    return values


def _skeleton(path: Path):
    """What must not move for a difference to count as numbers only: a
    report with each float blanked, or a CSV's header and row count."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        lines = text.splitlines()
        return lines[:1], len(lines)

    def blank(node):
        if isinstance(node, dict):
            return {k: blank(v) for k, v in node.items()}
        if isinstance(node, list):
            return [blank(v) for v in node]
        return None if isinstance(node, float) else node

    return blank(json.loads(text))


def numbers_only(parent: Path, change: Path, codes: list[dict]) -> bool:
    """Whether two versions of an output differ only in their floats."""
    prefix = parent.name.partition(".")[0]
    return (parent.exists() and change.exists() and parent.name != EXIT_CODES
            and parent.suffix in (".csv", ".json")
            and codes[0].get(prefix) == codes[1].get(prefix)
            and _skeleton(parent) == _skeleton(change))


def _gap(x: float, y: float) -> tuple[float, float]:
    """``|x - y|`` and that over ``1 + |x|``; NaN against a number is infinite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    gap = abs(x - y)
    if math.isnan(gap) or not math.isfinite(x):
        return math.inf, math.inf
    return gap, gap / (1.0 + abs(x))


def largest_difference(parent: Path, change: Path) -> str:
    """How far apart the numbers of two versions of an output lie."""
    a, b = _numbers(parent), _numbers(change)
    if len(a) != len(b):
        return f"{len(a)} vs {len(b)} numbers"
    gaps = [_gap(x, y) for x, y in zip(a, b)] or [(0.0, 0.0)]
    worst = max(g for g, _ in gaps)
    relative = max(r for _, r in gaps)
    return (f"largest difference {worst:.3g}, "
            f"{relative:.3g} relative to 1 + |parent value|")


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
    codes = [json.loads((outdirs[side] / EXIT_CODES).read_text(encoding="utf-8"))
             for side in SIDES]
    traces = {prefix for prefix, argv in cmds if argv[0] == "trace"}
    kinds = {"numbers only": 0, "structure": 0}
    others, far, turned = [], [], []
    closures = 0
    for name in diff:
        paths = [outdirs[side] / name for side in SIDES]
        kind = "numbers only" if numbers_only(*paths, codes) else "structure"
        kinds[kind] += 1
        detail = f" ({largest_difference(*paths)})" if all(p.exists() for p in paths) else ""
        prefix = name.partition(".")[0]
        verdicts = closure_verdicts(*paths)
        if verdicts:
            closures += 1
            detail += f", closure only ({verdicts[0]} -> {verdicts[1]})"
            if verdicts[0] != verdicts[1]:
                turned.append(f"{name}: {verdicts[0]} -> {verdicts[1]}")
        elif prefix in traces:
            residual = level_residual(outdirs["change"], prefix)
            detail += f", level_residual {residual:.3g}"
            if not residual <= LEVEL_TOL:
                far.append(name)
        else:
            others.append(name)
        print(f"differs: {name} [{kind}]{detail}")
    for line in turned:
        print(f"closure verdict differs: {line}")
    moved = sorted(prefix for prefix in codes[0] if codes[0][prefix] != codes[1].get(prefix))
    for prefix in moved:
        print(f"exit code differs: {prefix} ({codes[0][prefix]} -> {codes[1].get(prefix)})")
    bad = [(side, prefix, code) for side, side_codes in zip(SIDES, codes)
           for prefix, code in unexpected(side_codes)]
    for side, prefix, code in bad:
        print(f"not exit {code} on the {side} side: {prefix}")
    refusals = unrefused(outdirs["change"])
    for prefix in refusals:
        print(f"not refused by the ceiling on the change side: {prefix}")
    for name in far:
        print(f"level_residual above {LEVEL_TOL:g}: {name}")
    print(f"{len(cmds)} commands; {len(diff)} of {compared} files differ "
          f"({outdirs['parent']} vs {outdirs['change']}): "
          f"{kinds['numbers only']} numbers only, {kinds['structure']} structure; "
          f"{closures} in their closure only, "
          f"{len(diff) - len(others) - closures} other trace outputs, {len(others)} other files")
    return 1 if others or moved or bad or refusals or far else 0


if __name__ == "__main__":
    sys.exit(main())
