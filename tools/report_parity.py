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
- ``trace`` on levels of real points on which every start gives up (the
  give-ups of ``tools/level_survey.py`` and one of the plane, all at
  gamma 7/5);
- one reachable ``trace --plane rtheta`` per family: the README's TTW
  levels, and ``H``, ``I2`` and ``X`` of the euclidean point above at
  gamma 2 and of the sphere point at gamma 3/2;
- one ``integrate`` per wall that runs into it within ``t = 3`` (the
  sphere's ``xi``, ``y`` and the TTW ``theta = pi/2``, ``theta = 0``,
  ``r = 0``), and one TTW ``integrate --external-angle``.

Every output file but the manifests (they carry wall-clock timestamps) is
compared byte for byte, and so are the exit codes; each request below the
floor, above the ceiling or on the give-up levels must also exit 5 on both
sides, each run into a wall exit 3, each request above the ceiling be
refused on the change side before any search (its manifest message names
the ceiling, and no start is tried), and a give-up's manifest ``message``
(it gives the best residual) must match byte for byte.  Every ``trace``
that finds a point on both sides from the same grid start must find it
within ``POINT_GAP`` of the other side's in each coordinate.  The script
prints each file or message that differs, each file that exists on one
side only, each such request that did not exit or refuse as expected and
each point farther apart, and exits 1 if there is any; it exits 0 when all
match.  It also prints how many points were found from the same start,
the largest gap between them, and each ``trace`` whose winning start
moved.

For information it also times the give-ups: in each of ``TIMING_ROUNDS``
rounds, alternating which side goes first, each side runs every give-up
once to compile its observables and once more timed, in a fresh
interpreter.  It prints each side's median ``level_search`` seconds, their
ratio and the iterations.

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
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # the imports below leave no caches in the tree
from bench_pairs import ROOT, SIDES, export  # noqa: E402

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import superfact as sf  # noqa: E402
import workloads  # noqa: E402
from superfact.cli import EXIT_BREACH, EXIT_NO_SOLUTION  # noqa: E402

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
# Levels of real points on which every start gives up: (family, symmetry,
# H, I2, level), all at gamma 7/5.
GIVE_UPS = (
    ("euclidean", "X", 62.5527565137618, 23.88436570108292, 42400190.89001757),
    ("sphere", "X", 138.21881396497304, 4.422081754914755, -886758304.8930755),
    ("sphere", "X", 236.1178783360999, 96.63828242930445, 60735372048.71429),
    ("sphere", "X", 638.4812486574702, 11.851716899782504, 2642828977263.6616),
    ("sphere", "Y", 236.1178783360999, 96.63828242930445, -25626702055.239025),
    ("sphere", "Y", 638.4812486574702, 11.851716899782504, 232850004390.98062),
    ("ttw", "X", 491.3070229482648, 59.492009964912086, 1.514156547117554e+23),
    ("ttw", "Y", 491.3070229482648, 59.492009964912086, -5.700301499492839e+22),
)
GIVE_UP_GAMMA = "7/5"
# Largest coordinate gap between points found from the same start.
POINT_GAP = 1e-10
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
TIMING_ROUNDS = 5
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


def give_ups() -> list[tuple[str, list[str]]]:
    """``(output prefix, argv)`` of the ``trace`` requests whose level
    search runs every start and gives up."""
    return [(f"give-up-{k}-{family}-{sym}",
             ["trace", *workloads.spec_argv(family, GIVE_UP_GAMMA), f"--energy={h!r}",
              f"--second={i2!r}", f"--symmetry={sym}={level!r}", "--plane", "xy"])
            for k, (family, sym, h, i2, level) in enumerate(GIVE_UPS)]


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
    out += above_ceiling() + give_ups() + projections()
    return out + [(prefix, ["integrate", *argv, "--t-end", "3"])
                  for prefix, argv in (*BREACH_RUNS, EXTERNAL_ANGLE)]


def expected_exits() -> dict[str, int]:
    """The exit code of each command whose code is known in advance: 5 for
    the requests below the energy floor, above the ceiling and on the
    give-up levels, 3 for the runs into a wall."""
    out = {prefix: EXIT_NO_SOLUTION for prefix, kind, _ in _round("trace")
           if kind == "unreachable"}
    out.update((prefix, EXIT_NO_SOLUTION) for prefix, _ in above_ceiling() + give_ups())
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


def differing_messages(outdirs: dict) -> list[str]:
    """The give-ups whose manifest messages differ between the sides."""
    return [prefix for prefix, _ in give_ups()
            if _manifest(outdirs["parent"], prefix).get("message")
            != _manifest(outdirs["change"], prefix).get("message")]


def unrefused(outdir: Path) -> list[str]:
    """The requests above the ceiling that were not refused before any
    search, with a message that names the ceiling."""
    out = []
    for prefix, _ in above_ceiling():
        manifest = _manifest(outdir, prefix)
        if ("is above the ceiling |X+|" not in manifest.get("message", "")
                or manifest.get("level_search", {}).get("valid_starts") != 0):
            out.append(prefix)
    return out


def start_points(outdirs: dict, prefixes) -> tuple[int, float, list[str], list[str]]:
    """Compare the points of the ``trace`` commands ``prefixes`` that found
    one on both sides: how many came from the same start, the largest
    coordinate gap between those, the prefixes whose gap exceeds
    ``POINT_GAP`` and those whose winning start moved."""
    same, gap, far, moved = 0, 0.0, [], []
    for prefix in prefixes:
        found = [_manifest(outdirs[side], prefix) for side in SIDES]
        points = [m.get("args", {}).get("solution_point") for m in found]
        if None in points:
            continue
        starts = [m["level_search"]["winning_start"] for m in found]
        if starts[0] != starts[1]:
            moved.append(f"{prefix} ({starts[0]} -> {starts[1]})")
            continue
        same += 1
        point_gap = max(abs(a - b) for a, b in zip(*points))
        gap = max(gap, point_gap)
        if point_gap > POINT_GAP:
            far.append(prefix)
    return same, gap, far, moved


def time_give_ups(trees: dict, workdir: Path) -> None:
    """Print each side's median level-search seconds and the iterations of
    every give-up, over ``TIMING_ROUNDS`` alternating rounds."""
    searches = give_ups()
    cmds = [(f"warm-{prefix}", argv) for prefix, argv in searches] + searches
    seconds = {(side, prefix): [] for side in SIDES for prefix, _ in searches}
    iterations = {}
    for r in range(TIMING_ROUNDS):
        for side in SIDES[::1 if r % 2 == 0 else -1]:
            outdir = workdir / f"{side}-timing-{r}"
            run_side(trees[side], outdir, cmds)
            for prefix, _ in searches:
                search = _manifest(outdir, prefix).get("level_search", {})
                seconds[side, prefix].append(search.get("seconds", math.nan))
                iterations[side, prefix] = search.get("iterations")
    for prefix, _ in searches:
        ms = [statistics.median(seconds[side, prefix]) * 1e3 for side in SIDES]
        print(f"give-up {prefix}: parent {ms[0]:.1f} ms, change {ms[1]:.1f} ms "
              f"(x{ms[1] / ms[0]:.2f}), iterations {iterations['parent', prefix]} "
              f"vs {iterations['change', prefix]}")


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
    outdirs, trees = {}, {}
    for side in SIDES:
        sha, trees[side] = export(getattr(args, side), args.workdir, side)
        outdirs[side] = args.workdir / f"{side}-{sha[:12]}-out"
        run_side(trees[side], outdirs[side], cmds)
    compared, diff = differences(outdirs["parent"], outdirs["change"])
    codes = [json.loads((outdirs[side] / EXIT_CODES).read_text(encoding="utf-8"))
             for side in SIDES]
    kinds = {"numbers only": 0, "structure": 0}
    for name in diff:
        paths = [outdirs[side] / name for side in SIDES]
        kind = "numbers only" if numbers_only(*paths, codes) else "structure"
        kinds[kind] += 1
        detail = f" ({largest_difference(*paths)})" if all(p.exists() for p in paths) else ""
        print(f"differs: {name} [{kind}]{detail}")
    bad = [(side, prefix, code) for side, side_codes in zip(SIDES, codes)
           for prefix, code in unexpected(side_codes)]
    for side, prefix, code in bad:
        print(f"not exit {code} on the {side} side: {prefix}")
    messages = differing_messages(outdirs)
    for prefix in messages:
        print(f"manifest message differs: {prefix}")
    refusals = unrefused(outdirs["change"])
    for prefix in refusals:
        print(f"not refused by the ceiling on the change side: {prefix}")
    traces = [prefix for prefix, argv in cmds if argv[0] == "trace"]
    same, gap, far, moved = start_points(outdirs, traces)
    for prefix in moved:
        print(f"winning start moved: {prefix}")
    for prefix in far:
        print(f"point from the same start more than {POINT_GAP:g} away: {prefix}")
    print(f"{same} trace points found from the same start on both sides, "
          f"largest coordinate gap {gap:.3g}")
    time_give_ups(trees, args.workdir)
    print(f"{len(cmds)} commands; {len(diff)} of {compared} files differ "
          f"({outdirs['parent']} vs {outdirs['change']}): "
          f"{kinds['numbers only']} numbers only, {kinds['structure']} structure")
    return 1 if diff or bad or messages or refusals or far else 0


if __name__ == "__main__":
    sys.exit(main())
