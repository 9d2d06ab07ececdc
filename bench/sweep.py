"""Runs ``run.py`` over several seeds and summarises each metric's spread.

    python3 bench/sweep.py --seeds 1-10                       # every workload
    python3 bench/sweep.py --workloads mv-file-2w --seeds 1-5 --trace 1
    python3 bench/sweep.py --seeds 1-10 --save bench/baseline/name.json

Runs are sequential, each for ``run_seconds`` from BENCHMARK.json. For every
workload and metric it prints the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.
``--save`` writes the summaries, every run's record and the host facts to a
JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values),
            "values": values}


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"summary": summary, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    result = {"seconds": SPEC["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_one(workload, seed, args.trace)
            runs.append(run)
            s = run["summary"]
            print(f"{workload} seed {seed}: correct={s['correct']} "
                  f"attempted={s['attempted']} failed={s['failed']}", flush=True)
        names = runs[0]["summary"]["metrics"]
        metrics = {
            name: {"unit": names[name]["unit"],
                   **summarise([r["summary"]["metrics"][name]["value"] for r in runs])}
            for name in names
        }
        result["host"] = runs[0]["record"]["host"]
        result["workloads"][workload] = {
            "attempted": sum(r["summary"]["attempted"] for r in runs),
            "failed": sum(r["summary"]["failed"] for r in runs),
            "metrics": metrics,
            "runs": [r["record"] for r in runs],
        }
        print(f"\n{workload}: {len(runs)} runs")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = f"bound {bound:<5} " + ("ok" if m["spread"] < bound / 3 else "WIDE")
            print(f"  {name:42s} {m['median']:14.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.4f} {flag}")
        print(flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
