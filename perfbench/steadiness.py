"""Run-to-run spread of the benchmark's metrics, recorded as steadiness evidence.

    python3 perfbench/steadiness.py --label set1 --seeds 1-10
    python3 perfbench/steadiness.py --label traced --seeds 7 --trace

Runs ``run.py`` on every workload of BENCHMARK.json, one invocation at a
time, with its ``run_seconds``. Untraced, it records for every end-to-end
metric its median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the distance between the quartiles as a share of the median, beside
the metric's bound.
With ``--trace`` it runs each seed twice and records whether the per-layer
counts repeat exactly. Results are merged under ``--label`` into
``perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT = HERE / "steadiness.json"
REPEATED_COUNTS = ("solver.steps", "kinetic.points", "kinetic.omega_evals", "quadrature.gk_calls")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3.0, "values": values}


def bench(spec, workload, seed, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    took = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    run = {"seed": seed, "run_s": took, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"]}
    print(f"{workload} seed {seed}: {took:.1f} s, correct {result['correct']}, "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return run, values


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true", help="per-layer runs, each seed twice")
    args = parser.parse_args()

    report = json.loads(REPORT.read_text(encoding="utf-8")) if REPORT.exists() else {}
    section = report.setdefault(args.label, {"run_seconds": spec["run_seconds"]})
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        if args.trace:
            for seed in _seeds(args.seeds):
                (run_a, first), (run_b, second) = (bench(spec, workload, seed, True)
                                                   for _ in range(2))
                runs.append({"seed": seed, "runs": [run_a, run_b],
                             "counts_repeat": all(first[c] == second[c] for c in REPEATED_COUNTS),
                             "first": first, "second": second})
                print(f"  counts repeat: {runs[-1]['counts_repeat']}", flush=True)
            section[workload] = {"seeds": runs}
        else:
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in _seeds(args.seeds):
                run, got = bench(spec, workload, seed, False)
                runs.append(run)
                for name in values:
                    values[name].append(got[name])
            entry = {"runs": runs}
            for m in spec["end_to_end"]:
                entry[m["name"]] = summarize(values[m["name"]], m["bound"])
                print(f"  {m['name']:<14} median {entry[m['name']]['median']:.5g}  spread "
                      f"{entry[m['name']]['spread']:.4f}  bound {m['bound']}", flush=True)
            section[workload] = entry
        REPORT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
