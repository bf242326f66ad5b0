"""udiscrim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload locked-drift --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is used from ``src``
without installing it.  Set-up time is the median over several fresh
interpreters of start-up plus ``import udiscrim.cli``.  The workload then
runs in one more fresh interpreter (``workloads.py``), which repeats whole
rounds for ``--seconds`` and checks every output against the closed-form
law.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics of a separate traced pass.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

# Fresh-interpreter set-up probes, half before and half after the
# workload, so that the median spans the run's host conditions.
SETUP_PROBES = 10
PROBE = "import udiscrim.cli, time, sys; sys.stdout.write(repr(time.monotonic()))"
# Hard limit for the workload process beyond its measuring time.
GRACE_S = 120.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Keep the process within two threads on a two-core box.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_samples(env: dict, count: int) -> list[float]:
    """Spawn-to-imported times of ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cannot import udiscrim.cli: {done.stderr.strip()}")
        samples.append(float(done.stdout) - start)
    return samples


def run_workload(args, env: dict) -> dict:
    run_dir = RUNS / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "result.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    with open(run_dir / "workload.log", "wb") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=args.seconds + GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"workload exceeded {args.seconds + GRACE_S:.0f} s") from None
    if code != 0 or not out.exists():
        tail = (run_dir / "workload.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"workload exited with {code}:\n{tail}")
    return json.loads(out.read_text())


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="udiscrim benchmark")
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "udiscrim").is_dir():
        print(f"udiscrim sources not found under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    try:
        # The first interpreter only warms the bytecode cache.
        setup_samples(env, 1)
        half = 0 if args.trace else SETUP_PROBES // 2
        setup = setup_samples(env, half)
        record = run_workload(args, env)
        setup += setup_samples(env, half)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(record["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {record['rounds']} rounds, "
          f"{record['attempted']} experiments attempted, {record['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
