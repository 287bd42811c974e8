#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json N times, each with another seed, and
print for each end-to-end metric its median and the distance between its
first and third quartile as a share of the median, next to the metric's
bound. This is the steadiness check the benchmark was accepted on; rerun it
after any change to bench/. Run from the repository root:

    python3 bench/spread.py [N] [first-seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys

n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
bench = json.load(open("BENCHMARK.json"))
only = sys.argv[3:] or [w["name"] for w in bench["workloads"]]
bad = 0
for name in only:
    runs = []
    for seed in range(first, first + n):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"{name} seed {seed}: incorrect run")
        runs.append(res["metrics"])
    print(f"{name}: {n} runs, seeds {first}..{first + n - 1}")
    for m in bench["end_to_end"]:
        vals = [r[m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s":
            if spread > m["bound"]:
                flag, bad = "  OVER THE BOUND", bad + 1
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
        print(f"  {m['name']:<22} median {med:>14.4f} {m['unit']:<10} "
              f"spread {spread * 100:6.2f}%  bound {m['bound'] * 100:4.0f}%{flag}", flush=True)
sys.exit(1 if bad else 0)
