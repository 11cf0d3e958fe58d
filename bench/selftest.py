"""Self-test of the benchmark at toy sizes (about two minutes).

For every workload, traced and untraced: the last line is the result
object, every metric BENCHMARK.json declares appears with its unit, and
every check passes.  Then, in a copy of the benchmark whose frozen
references are each perturbed by a relative 1e-6 in one scalar, every
workload must report ``correct: false``.  Finally, a tracer target that no
longer exists is counted in ``trace.missing`` instead of failing, a program
that raises gives ``correct: false`` instead of a crash, and a copy of the
benchmark without the program exits non-zero without a result.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work" / "selftest"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs  # noqa: E402

SEED = 7
FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                          else None)


def copy_bench(name: str) -> Path:
    """A copy of the benchmark under ``WORK/name``, without the program."""
    root = WORK / name
    shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def perturbed_copy() -> Path:
    """A copy of the benchmark whose toy references are each off by a
    relative 1e-6 in one scalar, run against this checkout's program."""
    root = copy_bench("perturbed")
    (root / "src").symlink_to(ROOT / "src")
    refs = json.loads((HERE / "references.json").read_text())
    for w in WORKLOADS:
        toy = refs["toy"][w]
        # the sweep checks only the rows of the lambda values the seed drew
        drawn = tuple(f"lambda={v:g}." for v in
                      make_inputs(w, SEED, "toy").get("values", []))
        key = next(k for k, v in sorted(toy.items())
                   if isinstance(v, float) and v != 0.0 and k.startswith(drawn or ""))
        toy[key] *= 1.0 + 1e-6
    (root / "bench" / "references.json").write_text(json.dumps(refs))
    return root


def check_missing_target():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    t = tracer.Tracer()
    t.install(tracer.TARGETS + [("sphereflow.flow:no_such_step", "flow.gone")])
    t.uninstall()
    expect(t.missing == ["sphereflow.flow:no_such_step"],
           "a tracer target that no longer exists is counted, not raised")


def check_program_exception():
    root = copy_bench("broken")
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / "src" / "sphereflow" / "cli.py", "a") as f:
        f.write("\n\ndef run_experiment(*args, **kwargs):\n"
                "    raise RuntimeError('broken on purpose')\n")
    code, result = bench(WORKLOADS[0], 0, cwd=root)
    expect(code == 0 and result is not None and not result["correct"]
           and result["failed"] > 0,
           "an exception out of the program is a failed check, not a crash")


def check_without_program():
    code, result = bench(WORKLOADS[0], 0, cwd=copy_bench("bare"))
    expect(code != 0 and result is None,
           "without the program: non-zero exit and no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    perturbed = perturbed_copy()
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(w, trace)
            ok = code == 0 and result is not None
            expect(ok and result["correct"] and result["failed"] == 0,
                   f"{w} trace {trace}: correct, 0 of "
                   f"{result['attempted'] if ok else '?'} checks failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()} if ok else {}
            expect(got == want, f"{w} trace {trace}: every {section} metric "
                   f"with its unit ({len(got)}/{len(want)})")
        code, result = bench(w, 0, cwd=perturbed)
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{w}: a perturbed reference fails the run "
               f"({result['failed'] if result else '?'} checks failed)")
    check_missing_target()
    check_program_exception()
    check_without_program()
    shutil.rmtree(WORK)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
