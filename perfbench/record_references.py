"""Record reference digests for the benchmark's correctness check.

Run from the root of a checkout of a known-good commit::

    python3 perfbench/record_references.py --workload collectives \\
        --seeds 0-31,4242 --commit <git hash>

For every seed it sets the workload up, runs one pass, checks the
invariants and stores each simulation's digest under
``perfbench/references/<workload>.json`` (merged with the seeds already
there).  A pass with any failure records nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds or ranges, e.g. 0-31,4242")
    parser.add_argument("--commit", required=True,
                        help="the commit the references come from")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run, workloads

    run.pin_environment()
    path = run.REFERENCES / f"{args.workload}.json"
    document = {"workload": args.workload, "recorded_from": args.commit,
                "seeds": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        if document["recorded_from"] != args.commit:
            parser.error(f"{path} holds references from "
                         f"{document['recorded_from']}, not {args.commit}")
    for seed in parse_seeds(args.seeds):
        jobs = workloads.setup(args.workload, seed)
        _, outcomes = run.run_pass(jobs)
        digests, failures = run.verify(outcomes, None)
        if failures:
            for failure in failures:
                print(f"seed {seed}: {failure['job']}: {failure['error']}",
                      file=sys.stderr)
            return 1
        document["seeds"][str(seed)] = digests
        print(f"seed {seed}: {len(digests)} digests", flush=True)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
