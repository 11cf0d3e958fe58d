"""sphereflow benchmark: one workload per call, each repetition in a fresh
single-threaded process, closed loop (the next repetition starts when the
previous one has exited).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--size full|toy]

Repetitions run until their timed sections add up to ``--seconds`` (at
least two, so the outputs can be byte-compared).  With ``--trace 1`` they
alternate untraced and traced; the per-layer metrics come from the traced
ones and ``trace.overhead_frac`` compares the two kinds.  Set-up time is
the median of ``SETUP_SAMPLES`` processes that stop after set-up,
interleaved with the first repetitions.

Prints the environment record, every metric with its unit, the failed
checks, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``fail_frac`` is
``failed / attempted``.  Exits 2 without a result when the program is
missing or a repetition cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
SETUP_SAMPLES = 6
MAX_REPS = 40
DEADLINE_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def spawn(args, work: Path, traced: bool, setup_only: bool, deadline: float):
    """Run one worker; returns (setup seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--work", str(work)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker passed the {DEADLINE_S:.0f} s deadline")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode} ({' '.join(cmd)})")
    if setup_only:
        return setup, None
    with open(work / "result.json") as f:
        return setup, json.load(f)


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches": {},
            "thread_pinning": {"sphereflow --threads": 1, **SINGLE_THREAD}}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


def _kib(size: str | None) -> int | None:
    if not size:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def env_record(args, mach: dict, result: dict) -> dict:
    g = result["grid"]
    l2 = _kib(mach["caches"].get("L2"))
    return {"machine": mach, "versions": result["versions"],
            "workload": {"name": args.workload, "seed": args.seed, "size": args.size,
                         "interior_nodes": g["n_interior"],
                         "field_bytes": g["field_bytes"], "l2_bytes": l2,
                         "field_bytes_over_l2": g["field_bytes"] / l2 if l2 else None,
                         "steps_per_run": g["steps_per_run"]},
            # the diffusion substep gathers 2d neighbours plus the centre
            # value of every interior node and component, once per step
            "data_access_computed": {
                "label": "computed from array sizes, not measured",
                "diffusion_read_bytes_per_step":
                    g["n_interior"] * (2 * g["d"] + 1) * g["ncomp"] * 8}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sphereflow" / "__init__.py").is_file():
        print(f"no sphereflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "references.json") as f:
        refs = json.load(f)[args.size][args.workload]
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    base = HERE / "_work" / args.workload
    shutil.rmtree(base, ignore_errors=True)
    chk = checks.Checks()
    setups, walls, rss, traced_walls, layers = [], [], [], [], []
    digests0 = None
    first = None
    try:
        k = 0
        while k < MIN_REPS or (sum(walls) + sum(traced_walls) < args.seconds
                               and k < MAX_REPS):
            # set-up samples are spread over the first repetitions: CPU speed
            # on a shared host drifts over seconds, and one slow burst would
            # otherwise skew all of them
            for _ in range(min(SETUP_SAMPLES // MIN_REPS, SETUP_SAMPLES - len(setups))):
                work = base / "setup"
                setups.append(spawn(args, work, False, True, deadline)[0])
                shutil.rmtree(work)
            traced = bool(args.trace) and k % 2 == 1
            work = base / f"rep{k}"
            _, res = spawn(args, work, traced, False, deadline)
            first = first or res
            (traced_walls if traced else walls).append(res["wall_s"])
            if traced:
                layers.append(res["layers"])
                shutil.copy(work / "spans.json", base / "spans.json")
            else:
                rss.append(res["peak_rss_mb"])
            with open(work / "inputs.json") as f:
                inputs = json.load(f)
            out = work / "out"
            try:
                checks.check_rep(args.workload, inputs, res, out, refs, chk)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                chk.add(f"artifacts readable ({type(e).__name__}: {e})", False)
            digests = checks.output_digests(out) if out.is_dir() else {}
            if digests0 is None:
                digests0 = digests
            else:
                chk.add(f"outputs byte-identical to rep 0 ({len(digests)} files)",
                        digests and digests == digests0)
            shutil.rmtree(work)
            k += 1
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.trace:
        values = {name: statistics.median(lay[name] for lay in layers)
                  for name in layers[0]}
        values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    failed = chk.failed
    print("env " + json.dumps(env_record(args, machine(), first), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(walls)} untraced + {len(traced_walls)} "
          f"traced repetitions, {len(setups)} set-up samples")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac = {len(failed) / chk.attempted:.6g} "
          f"({len(failed)} of {chk.attempted} checks failed)")
    for name in failed:
        print(f"  FAILED {name}")
    print(json.dumps({"correct": not failed, "attempted": chk.attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
