"""One-off comparison of ORBIT_LOCALIZE_THREADS=2 against unset on eval-lowrank.

    python3 perfbench/threads_note.py

Runs the eval-lowrank mix of seed 1 in 5 alternating pairs of worker
processes (unset first on even pairs, threaded first on odd ones), 4
seconds each, and prints the median wall time of each command on both
sides, their ratio, and whether the outputs matched byte for byte.  This is a note, not a
workload: the benchmark itself always runs with the variable unset.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from run import Bench

SEED = 1
PAIRS = 5


def main() -> int:
    bench = Bench(Path.cwd(), "eval-lowrank", SEED, 0)
    sides = {"unset": bench.env,
             "threads=2": dict(bench.env, ORBIT_LOCALIZE_THREADS="2")}
    walls = {(c.name, s): [] for c in bench.commands for s in sides}
    digests = {c.name: set() for c in bench.commands}
    try:
        bench.prepare()
        for k in range(PAIRS):
            for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
                records, _, _ = bench.run_worker("w", 4, env=sides[side])
                for cmd in bench.commands:
                    for rec in records[cmd.name]:
                        if rec["code"] != 0:
                            raise SystemExit(f"{cmd.name} ({side}) exited {rec['code']}")
                        walls[cmd.name, side].append(rec["wall_s"])
                        digests[cmd.name].add(rec["digest"])
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    report = {"seed": SEED, "pairs": PAIRS,
              "nproc": len(os.sched_getaffinity(0)), "commands": {}}
    for cmd in bench.commands:
        base = statistics.median(walls[cmd.name, "unset"])
        thr = statistics.median(walls[cmd.name, "threads=2"])
        report["commands"][cmd.name] = {
            "unset_s": round(base, 4), "threads2_s": round(thr, 4),
            "ratio": round(thr / base, 3),
            "identical_output": len(digests[cmd.name]) == 1,
        }
    total_u = sum(v["unset_s"] for v in report["commands"].values())
    total_t = sum(v["threads2_s"] for v in report["commands"].values())
    report["mix_ratio"] = round(total_t / total_u, 3)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
