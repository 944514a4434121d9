#!/usr/bin/env python3
"""Run the benchmark as alternating parent/change pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent 2740cf5 --change HEAD \\
        --workloads certify flow trace --seeds 1-10 --workdir /tmp/pairs

Both sides are git revisions of this repository, each exported with
``git archive`` into a fresh directory under ``--workdir``.  For every
workload and seed the script runs ``python3 perfbench/run.py --trace 0`` once
on each side, alternating which side runs first, one run at a time.  It then
writes ``BENCH_<date>_<change commit, 12 hex digits>.json`` at the repository
root, and refuses to start if that file exists, so a checked-in record is
never overwritten.  The file holds, per workload and
end-to-end metric of ``BENCHMARK.json``: each side's runs, median, quartiles
and IQR/median, the pairs the change won, and whether the change's median is
within the metric's regression bound.  Every run lasts the benchmark's
``run_seconds``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export(rev: str, workdir: Path, side: str) -> tuple[str, Path]:
    """Full commit id of ``rev`` and a fresh copy of its tree."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    target = workdir / f"{side}-{sha[:12]}"
    target.mkdir(parents=True, exist_ok=False)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha, target


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its run record and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    record = next(json.loads(line[4:]) for line in lines if line.startswith("run {"))
    return {"record": record, "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "runs": values}


def compare(metric: dict, runs: dict) -> dict:
    """Both sides of one metric over the pairs, judged by ``metric``."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    values = {side: [r["result"]["metrics"][metric["name"]]["value"] for r in runs[side]]
              for side in SIDES}
    parent, change = summary(values["parent"]), summary(values["change"])
    won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    gain = sign * (change["median"] - parent["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "change_over_parent": change["median"] / parent["median"],
        "pairs": len(values["parent"]),
        "pairs_won": won,
        "gain_beyond_parent_iqr": won >= 0.9 * len(values["parent"])
        and gain > parent["q3"] - parent["q1"],
        "within_bound": -gain <= metric["bound"] * parent["median"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workdir", type=Path, required=True, help="where the trees go")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    commits, trees = {}, {}
    for side in SIDES:
        commits[side], trees[side] = export(getattr(args, side), args.workdir, side)
    today = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    out = ROOT / f"BENCH_{today}_{commits['change'][:12]}.json"
    if out.exists():
        parser.error(f"{out.name} exists; a BENCH file is never overwritten")

    workloads = {}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(trees[side], workload, seed, seconds)
                runs[side].append(run)
                print(f"{workload} seed {seed} {side}: {json.dumps(run['result'])}",
                      file=sys.stderr, flush=True)
        workloads[workload] = {
            "seeds": args.seeds,
            "failed": {side: [r["result"]["failed"] for r in runs[side]] for side in SIDES},
            "source_sha256": {side: runs[side][0]["record"]["source_sha256"] for side in SIDES},
            "metrics": {m["name"]: compare(m, runs) for m in bench["end_to_end"]},
        }
        host = runs["parent"][0]["record"]

    payload = {
        "command": "python3 tools/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "date": today,
        "run_seconds": seconds,
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "commits": commits,
        "host": {key: host[key] for key in ("python", "numpy", "scipy", "nproc",
                                            "cpus_usable", "blas_threads", "platform")},
        "cpu": cpu_model(),
        "workloads": workloads,
    }
    with out.open("x", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
