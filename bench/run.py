"""The sfdsim benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload plant_year --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; sfdsim is imported from ./src. With
--trace 0 it prints the end-to-end metrics, measured untraced; with
--trace 1 it prints the per-layer metrics of a traced run (see README.md).
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report, and the full report is also written under .bench_out/.

Each workload runs in its own worker process (bench/worker.py), so peak
memory does not carry over. Set-up time is the median over SETUP_SAMPLES
fresh processes that only set up. Times are scaled to a fixed speed
reference (see worker.py and `memory_reference_ms`); raw wall times are in
the report.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("plant_year", "policy_batch", "model_corpus")
SETUP_SAMPLES = 8
MEMORY_REFERENCE_BYTES = 32 << 20
MEMORY_REFERENCE_NOMINAL_MS = 50.0  # its typical time on the 2-vCPU Xeon host
DEADLINE_S = 170.0  # every run must end within 180 s



def environment() -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "cpu_model": "unknown", "git_sha": "unknown", "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(dirty.stdout.strip())
    return env


def memory_reference_ms() -> float:
    """Best of three timings of a fixed page-fault-bound task, in ms.

    Set-up is mostly mapping and loading numpy's extension modules. On a
    shared host its time follows the speed of page faults and memory, not
    of the interpreter. Over 247 fresh set-ups, scaling by this task cut
    the quartile spread of set-up time from 0.15 to 0.07; scaling by
    worker.reference_ms raised it, from 0.17 to 0.26 over 340 others.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        with mmap.mmap(-1, MEMORY_REFERENCE_BYTES) as buf:
            buf[::mmap.PAGESIZE] = b"\x01" * (MEMORY_REFERENCE_BYTES // mmap.PAGESIZE)
            bytes(buf)
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def worker(args: list[str], timeout: float) -> dict:
    """Run bench/worker.py to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "sfdsim" / "__init__.py").is_file():
        print(f"error: no sfdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "digests.json").read_text())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        worker(common + ["--setup-only"], timeout=60)  # writes bytecode caches; not kept
        for _ in range(SETUP_SAMPLES):
            before = memory_reference_ms()
            raw = worker(common + ["--setup-only"], timeout=60)["setup_s"]
            scale = 2.0 * MEMORY_REFERENCE_NOMINAL_MS / (before + memory_reference_ms())
            setups.append({"setup_s": raw, "setup_scaled_s": raw * scale})
    spans = out_dir / f"spans-{args.workload}.csv.gz"
    remaining = DEADLINE_S - (time.perf_counter() - started)
    res = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--spans-out", str(spans)], timeout=remaining)

    want = expected.get(args.workload, {}).get(str(args.seed))
    digest_ok = want is None or want == res["digest"]
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and res["warmup_failed"] == 0 and digest_ok
    op = res["op_ms"]
    produced: dict[str, tuple[float | None, str]] = {
        "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups)
                    if setups else None, "s"),
        "op_ms_p50": (op["p50"], "ms"),
        "op_ms_p90": (op["p90"], "ms"),
        "ops_per_s": (op["n"] / res["op_scaled_s"], "1/s"),
        "peak_rss_mb": (res.get("peak_rss_mb"), "MiB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    if args.trace:
        section = "per_layer"
        produced = {k: tuple(v) for k, v in res["layers"].items()}
        # Work counts of the warm-up ops: they repeat exactly for a seed.
        produced.update({k: (v, "1/op") for k, v in res["counts_per_op"].items()})
    else:
        section = "end_to_end"

    metrics, absent = {}, []
    for entry in declared[section]:
        value, unit = produced.get(entry["name"], (None, entry["unit"]))
        if unit != entry["unit"]:
            raise SystemExit(f"metric {entry['name']} is in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        if value is None:
            absent.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": value, "unit": unit}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": {**environment(), **res["versions"]},
        "setup_samples": setups, "op_ms": op, "op_wall_ms": res["op_wall_ms"],
        # A traced run has no set-up samples; its worker's own set-up stands in.
        "raw_wall": {"setup_s": statistics.median([s["setup_s"] for s in setups]
                                                  or [res["setup_s"]]),
                     "ops_per_s": op["n"] / res["op_wall_s"]},
        "traced_op_ms": res.get("traced_op_ms"),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "warmup_ops": res["warmup_ops"], "warmup_failed": res["warmup_failed"],
        "failures": res["failures"], "digest": res["digest"], "expected_digest": want,
        "absent": sorted(set(absent) | set(res.get("absent", ()))),
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in produced.items()},
    }
    path = out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"env: {json.dumps(report['env'])}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(fail_frac {failed / attempted:g}); op_ms n={op['n']}, "
          f"p90 has {op['p90_beyond']} beyond (valid: {op['p90_valid']})")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    verdict = "no recorded digest" if want is None else ("match" if digest_ok else
                                                         f"MISMATCH, expected {want}")
    print(f"digest of the {res['warmup_ops']} warm-up ops: {res['digest']} ({verdict})")
    for name, (value, unit) in sorted(produced.items()):
        print(f"  {name:48s} {'absent' if value is None else f'{value:.6g}'} {unit}")
    wall = res["op_wall_ms"]
    print(f"  raw wall time: setup_s {report['raw_wall']['setup_s']:.6g}, op_ms_p50 "
          f"{wall['p50']:.6g}, op_ms_p90 {wall['p90']:.6g}, "
          f"ops_per_s {report['raw_wall']['ops_per_s']:.6g}")
    print(f"full report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
