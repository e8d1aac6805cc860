"""One benchmark process for one workload; started by run.py.

Timeline: set-up (timed from before `import sfdsim`), warm-up ops (not
timed; their outputs make the digest and the computed counts), then the
timed closed loop. With --trace 1 the loop is split: the first half runs
untraced, then the tracer is installed and the set-up and the second half
are traced. Prints one JSON object as the last line of stdout.

    python3 bench/worker.py --workload plant_year --seed 0 --seconds 5 --trace 0

Speed reference. On a shared 2-vCPU host the CPU's speed drifts by up to 2x
within seconds, and that drift, not the program, dominates how a run's
median moves from run to run. So a fixed pure-Python loop is timed between
consecutive ops. Each op time is reported raw and also scaled by 1 ms /
(mean of the reference times on either side): the time the op would take
on a machine where the reference loop takes 1 ms. The scaled figures are
the benchmark's metrics; the raw ones are in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_SETUPS = 5
MAX_REPORTED_FAILURES = 20
REFERENCE_ITERATIONS = 8000  # about 1 ms on a 2-vCPU Xeon


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    table = {}
    x = 0.0
    for k in range(REFERENCE_ITERATIONS):
        x += math.sin(k)
        table[k & 63] = x
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    """This process's own peak resident memory. ru_maxrss would also count
    the parent's peak, which Linux carries over through fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentiles(samples: list[float]) -> dict:
    """Median and 90th percentile, with the sample counts behind them."""
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    beyond = sum(1 for s in samples if s > p90)
    return {"n": len(samples), "p50": statistics.median(samples), "p90": p90,
            "p90_beyond": beyond, "p90_valid": beyond >= 10}


class Loop:
    """Runs ops of one workload in a closed loop and records the results."""

    def __init__(self, workload):
        self.wl = workload
        self.failures: list[str] = []
        self.failed = 0

    def one(self, i: int, tracer=None):
        """Run op `i`; return (wall ms, input, output or None). Only the op
        is timed."""
        inp = self.wl.make_input(i)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception as err:  # an op that raises counts as failed
            out, problems = None, [f"raised {type(err).__name__}: {err}"]
        wall_ms = (time.perf_counter() - start) * 1e3
        if tracer is not None:
            tracer.op = None
        if out is not None:
            try:
                problems = self.wl.check(inp, out)
            except Exception as err:
                problems = [f"check raised {type(err).__name__}: {err}"]
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"op {i}: " + "; ".join(problems))
        return wall_ms, inp, out

    def timed(self, first: int, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Ops from index `first` for `seconds`: (wall ms, scaled ms) each."""
        walls: list[float] = []
        scaled: list[float] = []
        deadline = time.perf_counter() + seconds
        before = reference_ms()
        i = first
        while time.perf_counter() < deadline:
            wall = self.one(i, tracer)[0]
            after = reference_ms()
            walls.append(wall)
            scaled.append(wall * 2.0 / (before + after))
            before = after
            i += 1
        return walls, scaled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up in a fresh process and stop")
    parser.add_argument("--spans-out", help="gzipped CSV file for the traced spans")
    args = parser.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import sfdsim

    if not Path(sfdsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sfdsim was imported from {sfdsim.__file__}, not {ROOT / 'src'}")
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work_dir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(work_dir))
        wl.setup()
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, **measure(wl, args)}
    import numpy

    result["versions"] = {"sfdsim": sfdsim.__version__, "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


def measure(wl, args) -> dict:
    loop = Loop(wl)
    digest = hashlib.sha256()
    counts: dict[str, float] = {}
    for i in range(wl.warmup_ops):
        _wall, inp, out = loop.one(i)
        if out is None:
            continue
        for part in wl.digest_parts(out):
            data = part.encode()
            digest.update(len(data).to_bytes(8, "little") + data)
        for key, value in wl.counts(inp, out).items():
            counts[key] = counts.get(key, 0) + value
    counts = {key: total / wl.warmup_ops for key, total in counts.items()}
    warmup_failed = loop.failed
    loop.failed = 0

    result = {"digest": digest.hexdigest(), "warmup_ops": wl.warmup_ops,
              "warmup_failed": warmup_failed, "counts_per_op": counts}
    if not args.trace:
        walls, scaled = loop.timed(wl.warmup_ops, args.seconds)
        attempted = len(walls)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        from tracer import SETUP, Tracer

        walls, scaled = loop.timed(wl.warmup_ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = SETUP
            for _ in range(TRACED_SETUPS):
                wl.setup()
            tracer.op = None
            traced_walls, traced = loop.timed(wl.warmup_ops + len(walls), args.seconds / 2,
                                              tracer)
        finally:
            tracer.uninstall()
        attempted = len(walls) + len(traced)
        layers = tracer.layer_metrics(len(traced), sum(traced_walls), TRACED_SETUPS)
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(scaled) - 1.0, "ratio")
        result.update({"traced_op_ms": percentiles(traced), "layers": layers,
                       "absent": tracer.absent})
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    result.update({"op_ms": percentiles(scaled), "op_wall_ms": percentiles(walls),
                   "op_scaled_s": sum(scaled) / 1e3, "op_wall_s": sum(walls) / 1e3,
                   "attempted": attempted, "failed": loop.failed,
                   "failures": loop.failures})
    return result


if __name__ == "__main__":
    sys.exit(main())
