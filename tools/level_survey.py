#!/usr/bin/env python3
"""Run the level search on levels that real points attain, and count give-ups.

    python3 tools/level_survey.py [--src DIR] [--json PATH] [--against PATH]

For each family (euclidean; sphere; TTW with alpha 1.1, beta 0.7), each
gamma in 1, 2, 1/2, 3/2, 2/3 and 7/5 and each symmetry ``X`` and ``Y``, it
reads ``H``, ``I2`` and the symmetry off the 30 points of
``sample_points(spec, default_box(spec), 30, 11)`` and calls
``superfact.levels.solve_levels`` on those levels: 1080 calls, all at
omega 1, in one process.  A real point attains every one of these levels,
so each ``NoSolution`` is a give-up (the search found no point) or a
refusal (a floor or the ceiling ruled the request out before any search;
that would be a fault).

``--src`` is the ``src`` directory of the tree to run (by default this
repository's).  The script prints, per (family, gamma, symmetry), the
give-ups and refusals, how often each grid start won, and the median
seconds of a call; then the totals.  ``--json`` writes every call's record
(levels, outcome, winning start, iterations, point, seconds).  ``--against``
reads such a file from another tree and prints each request whose outcome
differs, each whose winning start moved, and the largest distance between
the two trees' points where the winning start is the same.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("euclidean", "sphere", "ttw")
GAMMAS = ("1", "2", "1/2", "3/2", "2/3", "7/5")
SYMMETRIES = ("X", "Y")
POINTS, SEED = 30, 11
TTW_ALPHA, TTW_BETA = 1.1, 0.7


def _spec(sf, family: str, gamma: str):
    ratio = sf.RationalGamma.parse(gamma)
    if family == "ttw":
        return sf.SystemSpec(sf.Family.TTW, 1.0, ratio, alpha=TTW_ALPHA, beta=TTW_BETA)
    return sf.SystemSpec(sf.Family(family), 1.0, ratio)


def survey(sf, solve_levels) -> list[dict]:
    """One record per call, in family, gamma, symmetry and point order."""
    records = []
    for family in FAMILIES:
        for gamma in GAMMAS:
            spec = _spec(sf, family, gamma)
            batch = sf.sample_points(spec, sf.default_box(spec), POINTS, SEED)
            h = sf.eval_batch(sf.hamiltonian_observable(spec), batch).real
            i2 = sf.eval_batch(sf.second_integral_observable(spec), batch).real
            _, _, x_real, y_real = sf.higher_integral_observables(spec)
            for sym, obs in zip(SYMMETRIES, (x_real, y_real)):
                level = sf.eval_batch(obs, batch).real
                for k in range(POINTS):
                    targets = [float(h[k]), float(i2[k]), float(level[k])]
                    started = time.perf_counter()
                    try:
                        z, _, search = solve_levels(spec, sym, targets)
                        outcome, point = "found", [float(v) for v in z]
                    except sf.NoSolution as exc:
                        search, point = exc.search, None
                        outcome = "gave up" if search.valid_starts else "refused"
                    records.append({
                        "family": family, "gamma": gamma, "symmetry": sym, "point": k,
                        "levels": targets, "outcome": outcome,
                        "winning_start": search.winning_start,
                        "iterations": search.iterations, "z": point,
                        "seconds": time.perf_counter() - started,
                    })
    return records


def _key(record: dict) -> tuple:
    return record["family"], record["gamma"], record["symmetry"], record["point"]


def summarize(records: list[dict]) -> None:
    groups = collections.defaultdict(list)
    for record in records:
        groups[_key(record)[:3]].append(record)
    for (family, gamma, sym), group in groups.items():
        outcomes = collections.Counter(r["outcome"] for r in group)
        starts = collections.Counter(r["winning_start"] for r in group
                                     if r["outcome"] == "found")
        median = statistics.median(r["seconds"] for r in group) * 1e3
        print(f"{family:9s} {gamma:4s} {sym}: {outcomes['gave up']:2d} give-ups, "
              f"{outcomes['refused']} refused, median {median:6.2f} ms, "
              f"winning starts {dict(sorted(starts.items()))}")
    seconds = [r["seconds"] for r in records]
    outcomes = collections.Counter(r["outcome"] for r in records)
    print(f"{len(records)} calls: {outcomes['gave up']} give-ups, "
          f"{outcomes['refused']} refused; {sum(seconds):.2f} s in all, "
          f"median {statistics.median(seconds) * 1e3:.2f} ms")
    for r in records:
        if r["outcome"] != "found":
            print(f"  {r['outcome']}: {' '.join(map(str, _key(r)))} "
                  f"levels {tuple(r['levels'])!r}")


def compare(records: list[dict], others: list[dict]) -> None:
    """Print how this tree's records differ from another tree's."""
    theirs = {_key(r): r for r in others}
    same_start, gap = 0, 0.0
    for mine in records:
        other = theirs.get(_key(mine))
        name = " ".join(map(str, _key(mine)))
        if other is None:
            print(f"only here: {name}")
        elif mine["outcome"] != other["outcome"]:
            print(f"outcome {other['outcome']} there, {mine['outcome']} here: {name}")
        elif mine["winning_start"] != other["winning_start"]:
            print(f"winning start {other['winning_start']} there, "
                  f"{mine['winning_start']} here: {name}")
        elif mine["z"] is not None:
            same_start += 1
            gap = max(gap, max(abs(a - b) for a, b in zip(mine["z"], other["z"])))
    total = sum(r["seconds"] for r in records), sum(r["seconds"] for r in others)
    print(f"{same_start} points found from the same start, largest coordinate gap "
          f"{gap:.3g}; {total[0]:.2f} s here against {total[1]:.2f} s there")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the tree to run")
    parser.add_argument("--json", type=Path, help="write every call's record here")
    parser.add_argument("--against", type=Path,
                        help="records of another tree to compare with")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no caches in the tree
    sys.path.insert(0, str(args.src.resolve()))
    import superfact as sf
    from superfact.levels import solve_levels

    records = survey(sf, solve_levels)
    summarize(records)
    if args.json:
        args.json.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    if args.against:
        compare(records, json.loads(args.against.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
