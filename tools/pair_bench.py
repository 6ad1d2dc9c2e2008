"""Parent/change benchmark pairs: is any end-to-end metric worse than its bound?

    python3 tools/pair_bench.py REF

Exports REF with digest_gate.py's `git archive` export, and takes the run
length, the workloads and each end-to-end metric's direction and bound from
BENCHMARK.json.  For seeds 1 to 10 and each workload it runs

    bench/run.py --workload W --seed S --seconds RUN_SECONDS --trace 0

once in that copy and once in the working tree, one run at a time, the
copy first at odd seeds and the working tree first at even ones.  Per
workload and metric it prints both sides' medians with their quartiles, the
change's relative move and the pairs it won, ties counting for neither.  It
flags a metric whose median is worse than REF's by more than its bound, a
metric left unresolved because REF's own quartiles lie further apart than
the bound (unless every run of the change beats every run of REF), and a
run that exited nonzero, failed an operation or read incorrect; any of
these makes it exit 1.

Under each workload's gated setup_s it also prints, per side, the median of
the raw set-up probes and of the speed factor that scales them, both read
from the record file each run leaves in its tree's .bench_out/.  They show
whether a setup_s move comes from the probes or from the factor, which is
calibrated later in the run; they decide nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from digest_gate import TREE, exported, final_record

PAIRS = 10  # the fewest pairs that can show a change no worse than its parent


def verdict(parent, change, better: str, bound: float) -> dict:
    """Compare one metric's runs, pair i of parent with pair i of change.

    Returns both medians and quartiles, the change's relative move of the
    median (positive is better), its wins, whether the median is worse than
    the parent's by more than bound, a fraction of the parent's median, and
    whether the parent's quartiles lie further apart than bound, which
    leaves the metric unresolved unless every change run beats every parent
    run.
    """
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    p, c = float(np.median(parent)), float(np.median(change))
    scale = abs(p) or 1.0  # a zero median is compared absolutely
    gain = sign * (c - p) / scale
    low, high = np.percentile(parent, [25, 75]).tolist()
    return {"parent": (p, low, high),
            "change": (c, *np.percentile(change, [25, 75]).tolist()),
            "gain": gain, "wins": int(np.sum(sign * (change - parent) > 0)),
            "worse": gain < -bound,
            "unresolved": ((high - low) / scale > bound
                           and np.min(sign * change) <= np.max(sign * parent))}


def spread(stats) -> str:
    median, low, high = stats
    return f"{median:.4g} [{low:.4g}, {high:.4g}]"


def bench_run(root: Path, command: list[str], workload: str, seed: int, seconds) -> dict | None:
    """The final record of one untraced bench run, or None if it exited nonzero."""
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        return None
    return final_record(done.stdout)


def run_record(root: Path, workload: str, seed: int) -> dict:
    """The record file of an untraced bench run in root, as bench/run.py writes it."""
    path = root / ".bench_out" / f"record-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def setup_line(workload: str, parent: list[dict], change: list[dict]) -> str:
    """Each side's median raw set-up probe and speed factor, from run records."""
    def medians(records):
        return (float(np.median([s for r in records for s in r["setup_s"]])),
                float(np.median([r["speed_factor"] for r in records])))

    (p_setup, p_factor), (c_setup, c_factor) = medians(parent), medians(change)
    return (f"{workload:16} {'':12} raw probes {p_setup:.4g} -> {c_setup:.4g} s, "
            f"speed factor {p_factor:.4g} -> {c_factor:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("ref", help="git ref to compare the working tree against")
    args = parser.parse_args(argv)
    config = json.loads((TREE / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]
    ok = True
    # runs[side][workload] holds one final JSON record per seed.
    runs = {side: {w: [] for w in workloads} for side in ("parent", "change")}
    # records[side][workload] holds the record file of each run that finished.
    records = {side: {w: [] for w in workloads} for side in ("parent", "change")}
    with exported(args.ref) as ref_tree:
        sides = [("parent", ref_tree), ("change", TREE)]
        for seed in range(1, PAIRS + 1):
            for workload in workloads:
                for side, root in sides if seed % 2 else sides[::-1]:
                    record = bench_run(root, config["command"], workload, seed,
                                       config["run_seconds"])
                    print(f"seed {seed} {workload} {side}: "
                          f"{'exited nonzero' if record is None else record['failed']} failed",
                          file=sys.stderr, flush=True)
                    if record is None or record["failed"] or not record["correct"]:
                        print(f"FAILED RUN: {side} {workload} seed {seed}")
                        ok = False
                    else:
                        records[side][workload].append(run_record(root, workload, seed))
                    runs[side][workload].append(record)
    print(f"{PAIRS} pairs against {args.ref}: median [quartiles], parent -> change")
    for workload in workloads:
        pairs = [(p, c) for p, c in zip(runs["parent"][workload], runs["change"][workload])
                 if p is not None and c is not None]
        if not pairs:
            continue
        for metric in metrics:
            name = metric["name"]
            v = verdict([p["metrics"][name]["value"] for p, _ in pairs],
                        [c["metrics"][name]["value"] for _, c in pairs],
                        metric["better"], metric["bound"])
            ok = ok and not (v["worse"] or v["unresolved"])
            flag = (f"  WORSE THAN ITS {metric['bound']:.0%} BOUND" if v["worse"] else
                    f"  UNRESOLVED: SPREAD WIDER THAN ITS {metric['bound']:.0%} BOUND"
                    if v["unresolved"] else "")
            print(f"{workload:16} {name:12} {spread(v['parent'])} -> {spread(v['change'])}"
                  f"  {v['gain']:+.1%} better, wins {v['wins']}/{len(pairs)}{flag}")
            if name == "setup_s" and all(records[side][workload] for side in records):
                print(setup_line(workload, records["parent"][workload],
                                 records["change"][workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
