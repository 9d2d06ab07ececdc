"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 bench/run.py --workload compare-3target --seed 1 --seconds 10 --trace 0

Every operation's output is checked (see ``reference.py``); a failed check
counts in ``failed``. With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced operation.
A full record of the run, with host facts, goes to ``bench/out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails without printing a result.
"""

import os

# Single-threaded BLAS: no workload uses more threads than its own workers.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def import_pabeam():
    sys.path.insert(0, str(SRC))
    try:
        import pabeam
    except ImportError as exc:
        sys.exit(f"bench: cannot import pabeam from {SRC}: {exc}")
    if Path(pabeam.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: pabeam imported from {pabeam.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_pabeam()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        record = harness.measure(workload, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": harness.host_facts(), **record}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2))
    for f in record["failures"]:
        print(f"bench: failed check: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if args.trace else record["end_to_end"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
