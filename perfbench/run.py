"""ddlkit benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload {search,dual,roundtrip,emit} \
        --seed N --seconds T --trace {0,1}

Each workload runs in its own single-threaded worker process (worker.py)
against the code in `src/`.  Untraced, this script starts the worker
SETUP_SAMPLES times: the first ones only set up and exit, the last one
sets up and then measures.  `setup_s` is the median, over those starts,
of the time from starting the process to the end of its warm-up, scaled
to the reference speed (speed.py).  Traced, one worker reports per-layer
numbers from spans (see tracer.py).

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it records the run
environment and the figures that are not metrics.  Both are also written
to `.perfbench_out/`.  Metric units come from BENCHMARK.json; a run whose
metric names differ from the ones declared there fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "dual", "roundtrip", "emit")
SETUP_SAMPLES = 3
# the run must end within 180 s; workers get what is left of this
BUDGET_S = 170.0


class WorkerError(Exception):
    pass


def run_worker(args, deadline: float,
               setup_only: bool) -> tuple[float, float, dict]:
    """Start one worker, wait for it, and return its set-up time in wall
    seconds and at the reference speed, and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    wall = result.pop("ready_at") - started
    return wall, wall * result.pop("setup_scale"), result


def _commit() -> str | None:
    # the checkout need not be a git repository
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ddlkit").is_dir():
        print(f"no ddlkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": _commit(), "src_sha256": _src_digest(),
           "loadavg_before": os.getloadavg()}
    setups = []  # (wall, scaled) per start
    try:
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            wall, scaled, _ = run_worker(args, deadline, True)
            setups.append((wall, scaled))
        wall, scaled, result = run_worker(args, deadline, False)
    except WorkerError as e:
        print(f"{args.workload}: {e}", file=sys.stderr)
        return 1
    setups.append((wall, scaled))
    env["loadavg_after"] = os.getloadavg()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(s for _, s in setups)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {k: {"value": v, "unit": units[k]}
                         for k, v in sorted(metrics.items())}}
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "setup_wall_s": [w for w, _ in setups], **result["info"]}
    report = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report.parent.mkdir(exist_ok=True)
    report.write_text(json.dumps({"info": info, "result": final}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
