"""One workload in one single-threaded process.

run.py starts this; by hand it is

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                [--setup-only]

Set-up is the import of ddlkit from the checkout's `src/`, building the
workload's inputs from the seed, and warm-up.  A pass then sends every
input once, in a closed loop with one client.  Untraced, passes repeat,
each in a fresh order, until `--seconds` of request time has passed
and at least MIN_PASSES passes are complete.
Traced, untraced and traced passes alternate.  Each output is checked
outside the timed interval.

Each request's latency is scaled to the reference speed of speed.py,
from probes run between requests, and each input's latency is the
median over the run's passes.  The wall-clock figures are in `info`.

The last stdout line is one JSON object for run.py; `ready_at` is the
time.monotonic() reading at the end of set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

from speed import Speedometer, scale_now
from tracer import Tracer
from workloads import WORKLOADS, Search

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
TRACE_ROUNDS = 3
WALL_LIMIT_S = 140.0


def _geomean_ms(values) -> float:
    return 1000 * math.exp(statistics.fmean(math.log(v) for v in values))


class Runner:
    """Sends requests and counts the ones that raise or fail their check."""

    def __init__(self, wl):
        self.wl = wl
        self.failed = 0
        self.reported = 0

    def one(self, inp):
        t0 = time.perf_counter()
        try:
            out, error = self.wl.run(inp), None
        except Exception:
            out, error = None, traceback.format_exc()
        return time.perf_counter() - t0, out, error

    def checked(self, inp, out, error) -> None:
        ok = False
        if error is None:
            try:
                ok = self.wl.check(inp, out)
            except Exception:
                error = traceback.format_exc()
        if not ok:
            self.failed += 1
            if self.reported < 3:
                self.reported += 1
                print(f"failed request {inp!r:.200}: {error or 'bad output'}",
                      file=sys.stderr)

    def send(self, inputs, k, best=None, tracer=None) -> float:
        """Send input k, check its output, and keep its best latency."""
        if tracer is None:
            dt, out, error = self.one(inputs[k])
        else:
            tracer.active = True
            dt, out, error = tracer.request(self.one, inputs[k])
            tracer.active = False
        self.checked(inputs[k], out, error)
        if best is not None:
            best[k] = min(best[k], dt)
        return dt


def timed_run(wl, seconds: float, wall_start: float, seed: int) -> dict:
    """Passes in a fresh order each time, until `seconds` of request time
    and MIN_PASSES full passes; the last pass may stop part way."""
    runner = Runner(wl)
    inputs = wl.inputs
    order = list(range(len(inputs)))
    rng = random.Random(seed)
    speed = Speedometer()
    # compact, so the log adds little to the worker's peak RSS
    keys, starts, lat = array("l"), array("d"), array("d")
    timed = 0.0
    done = False
    while not done:
        rng.shuffle(order)
        for k in order:
            start = time.perf_counter()
            dt = runner.send(inputs, k)
            keys.append(k)
            starts.append(start)
            lat.append(dt)
            timed += dt
            speed.sample()
            done = len(lat) >= MIN_PASSES * len(inputs) and (
                timed >= seconds
                or time.monotonic() - wall_start > WALL_LIMIT_S)
            if done:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scales = [speed.scale(start, start + dt) for start, dt in zip(starts, lat)]
    wall = [[] for _ in inputs]
    scaled = [[] for _ in inputs]
    for k, dt, scale in zip(keys, lat, scales):
        wall[k].append(dt)
        scaled[k].append(dt * scale)
    wall = [statistics.median(v) for v in wall]
    scaled = [statistics.median(v) for v in scaled]
    info = {
        "inputs": len(inputs),
        "passes": len(lat) / len(inputs),
        "timed_s": timed,
        "failed_share": runner.failed / len(lat),
        "wall_ops_per_s": len(lat) / timed,
        "wall_latency_geomean_ms": _geomean_ms(wall),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_p90_ms": 1000 * statistics.quantiles(scaled, n=10)[8],
        "median_scale": statistics.median(scales),
    }
    if isinstance(wl, Search):
        for name, prefix in (("valid", "theorem"), ("refuted", "refuted")):
            info[f"{name}_verdict_ms"] = _geomean_ms(
                v for inp, v in zip(inputs, scaled) if inp[0].startswith(prefix))
    metrics = {
        "ops_per_s": len(inputs) / sum(scaled),
        "latency_geomean_ms": _geomean_ms(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"attempted": len(lat), "failed": runner.failed,
            "correct": runner.failed == 0, "metrics": metrics, "info": info}


COUNT_KEYS = ("hol.nf_nodes", "henkin.enumerate_domain.elements",
              "export.bytes", "model.enumerate_models.models",
              "model.random_model.distinct_share")


def _is_count(key: str) -> bool:
    return (key.endswith(".calls") or key in COUNT_KEYS
            or key.startswith(("search.models_n", "search.found_n")))


def traced_run(wl, ddlkit, out_path: Path) -> dict:
    """TRACE_ROUNDS rounds of one untraced and one traced pass.  Counts
    come from the first traced pass and must repeat in the others; times
    are the median over the traced passes."""
    runner = Runner(wl)
    tracer = Tracer()
    tracer.install(ddlkit)
    n = len(wl.inputs)
    untraced, traced = [math.inf] * n, [math.inf] * n
    passes, layers = [], []
    try:
        # alternating, so drift in machine speed hits both kinds alike
        for _ in range(TRACE_ROUNDS):
            for k in range(n):
                runner.send(wl.inputs, k, untraced)
            tracer.reset()
            for k in range(n):
                runner.send(wl.inputs, k, traced, tracer)
            passes.append(tracer.spans)
            layers.append(tracer.layer_metrics())
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.dump(out_path, passes)
    counts = [{k: v for k, v in layer.items() if _is_count(k)}
              for layer in layers]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        diff = {k: [c[k] for c in counts] for k in counts[0]
                if any(c[k] != counts[0][k] for c in counts)}
        print(f"count metrics differ between traced passes: {diff}",
              file=sys.stderr)
    metrics = {k: counts[0][k] if k in counts[0]
               else statistics.median(layer[k] for layer in layers)
               for k in layers[0]}
    metrics["trace.overhead_share"] = sum(traced) / sum(untraced) - 1
    return {"attempted": 2 * TRACE_ROUNDS * n, "failed": runner.failed,
            "correct": runner.failed == 0 and repeat, "metrics": metrics,
            "info": {"inputs": n, "counts_repeat": repeat,
                     "spans": [len(p) for p in passes],
                     "spans_file": out_path.relative_to(ROOT).as_posix()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wall_start = time.monotonic()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ddlkit
        import ddlkit.cli  # noqa: F401  (the CLI module is not in __init__)
    except ImportError as e:
        print(f"cannot import ddlkit from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(ddlkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ddlkit was imported from {ddlkit.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](ROOT, ddlkit)
    wl.build(args.seed)
    wl.warmup()
    ready_at = time.monotonic()
    setup_scale = scale_now()
    if args.setup_only:
        result = {}
    elif args.trace:
        out_path = (ROOT / ".perfbench_out"
                    / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        result = traced_run(wl, ddlkit, out_path)
    else:
        result = timed_run(wl, args.seconds, wall_start, args.seed)
    result["ready_at"] = ready_at
    result["setup_scale"] = setup_scale
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
