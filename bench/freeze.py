"""Freeze the reference scalars the benchmark checks against.

Runs each workload on two seeds (the sweep on as many as it takes to cover
its whole lambda pool), requires the seed-independent scalars to agree,
and writes them into ``references.json``.  Run it only on a commit whose
outputs are known good; a change that moves a reference must say why.

    python3 bench/freeze.py --size full|toy [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import LAMBDA_POOL, WORKLOADS  # noqa: E402


def scalars_for_seed(workload: str, seed: int, size: str) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, size=size)
    work = HERE / "_work" / "freeze" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    _, res = run.spawn(args, work, False, False, time.monotonic() + 600)
    inputs = json.loads((work / "inputs.json").read_text())
    chk = checks.Checks()
    got = checks.scalars(workload, inputs, res, work / "out", chk)
    shutil.rmtree(work)
    if chk.failed:
        raise SystemExit(f"{workload} seed {seed}: invariant checks failed: {chk.failed}")
    return got


def freeze(workload: str, size: str) -> dict:
    refs: dict = {}
    seed = 0
    while True:
        for key, value in scalars_for_seed(workload, seed, size).items():
            if key in refs and refs[key] != value:
                raise SystemExit(f"{workload}: {key} differs across seeds "
                                 f"({refs[key]!r} vs {value!r})")
            refs[key] = value
        seed += 1
        if workload == "cap2d-lambda-sweep":
            lams = {float(k.split(".", 1)[0].split("=")[1]) for k in refs}
            if lams >= set(LAMBDA_POOL):
                return refs
        elif seed == 2:
            return refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=("full", "toy"), required=True)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    path = HERE / "references.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for w in args.workload:
        data.setdefault(args.size, {})[w] = freeze(w, args.size)
        print(f"{args.size} {w}: {len(data[args.size][w])} scalars")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
