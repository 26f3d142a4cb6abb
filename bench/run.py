"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Steps, all inside the checkout (scratch files go to ``.bench_work/``):

1. A separate generator process writes the seeded op list.
2. ``--trace 0``: a few set-up-only worker processes, then whole cold-start
   passes (one fresh worker process each) until another pass would overrun
   ``--seconds``; at least one.  Prints the end-to-end metrics.
3. ``--trace 1``: one untraced and one traced pass; prints the layer
   metrics and the tracing overhead (traced minus untraced wall).

Every op's exact check must pass, every pass must give the same per-op
output digests, and those must equal the digests recorded in
``bench/digests.json`` for the seed when one is recorded.  The next-to-last
stdout line is a JSON context record (machine, seed, op counts, digest,
``src/`` line count); the last is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("kernel", "decompose", "oracle")
SETUP_PROBES = 7
DEADLINE_S = 170

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


class Runner:
    """Spawns the generator and worker processes under one deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def _run(self, argv):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next process")
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[0]} exceeded the {DEADLINE_S} s deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[0]} failed:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def generate(self, workload, seed, size, out):
        self._run([str(BENCH / "workloads.py"), "--workload", workload,
                   "--seed", str(seed), "--size", size, "--out", str(out)])

    def worker(self, inputs, *flags):
        """One worker process.  Adds its whole-process wall time and its
        set-up time: spawn to first timed op, less the worker's set-up
        calibration, scaled to nominal host speed (raw in ``raw_setup_s``)."""
        start = time.monotonic()
        stdout = self._run([str(BENCH / "worker.py"), str(inputs), *flags])
        res = json.loads(stdout.strip().splitlines()[-1])
        res["process_s"] = time.monotonic() - start
        res["raw_setup_s"] = res["ready"] - start - res["setup_calibration_s"]
        res["setup_s"] = res["raw_setup_s"] / res["setup_slowdown"]
        return res


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "invar").glob("*.py"))
    )


def recorded_digests(workload, size, seed):
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = table.get(workload, {}).get(size, {}).get(str(seed))
    return entry.split() if entry else None


def record_digests(workload, size, seed, per_op):
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table.setdefault(workload, {}).setdefault(size, {})[str(seed)] = " ".join(
        d[:12] for d in per_op
    )
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def failures(passes, recorded):
    """Ops whose check failed, or whose digest differs from the first pass
    or from the recorded digest."""
    reference = passes[0]["digests"]
    failed = 0
    for p in passes:
        for i, (ok, d) in enumerate(zip(p["ok"], p["digests"])):
            bad = not ok or d != reference[i]
            if recorded is not None:
                bad = bad or i >= len(recorded) or d[:12] != recorded[i]
            failed += bad
    return failed


def end_to_end(probes, passes, raw=False):
    """The timed phase is the ops back to back, so its wall time is the sum
    of op latencies.  ``raw`` picks unscaled times."""
    latencies = [t for p in passes for t in p["raw_latencies" if raw else "latencies"]]
    setups = [p["raw_setup_s" if raw else "setup_s"] for p in probes + passes]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's per-op digests in bench/digests.json")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "invar" / "__init__.py").is_file():
        sys.stderr.write(f"no invar package under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    # a terminated run raises here, and subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    started = time.monotonic()
    runner = Runner(started + DEADLINE_S)
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    inputs = WORK / f"inputs-{stem}.json"
    try:
        runner.generate(args.workload, args.seed, args.size, inputs)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.size}-{args.seed}.jsonl"
            untraced = runner.worker(inputs)
            traced = runner.worker(inputs, "--trace", str(spans))
            passes = [untraced, traced]
            metrics = dict(traced["layers"])
            walls = [sum(p["latencies"]) for p in passes]
            metrics["trace.overhead_s"] = walls[1] - walls[0]
            metrics["trace.overhead_ratio"] = (walls[1] - walls[0]) / walls[0]
        else:
            probes = [runner.worker(inputs, "--setup-only") for _ in range(SETUP_PROBES)]
            passes = []
            t0 = time.monotonic()
            while True:
                passes.append(runner.worker(inputs))
                longest = max(p["process_s"] for p in passes)
                if time.monotonic() - t0 + longest > args.seconds:
                    break
            metrics = end_to_end(probes, passes)
            raw = end_to_end(probes, passes, raw=True)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        inputs.unlink(missing_ok=True)

    per_op = passes[0]["digests"]
    pass_digests = [hashlib.sha256("".join(p["digests"]).encode()).hexdigest() for p in passes]
    recorded = recorded_digests(args.workload, args.size, args.seed)
    failed = failures(passes, recorded)
    attempted = sum(len(p["ok"]) for p in passes)
    if args.record and failed == 0:
        record_digests(args.workload, args.size, args.seed, per_op)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines(),
        "ops_per_pass": len(per_op),
        "passes": len(passes),
        "latency_samples": attempted,
        "fail_ratio": failed / attempted,
        "digest": pass_digests[0],
        "pass_digests": pass_digests,
        "digest_recorded": None if recorded is None else all(
            [d[:12] for d in p["digests"]] == recorded for p in passes
        ),
        "errors": [e for p in passes for e in p["errors"]][:5],
        "run_s": time.monotonic() - started,
    }
    if not args.trace:
        context["raw"] = {k: v for k, v in raw.items() if k != "peak_rss_mb"}
    else:
        context["trace_overhead_s"] = metrics["trace.overhead_s"]
        context["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps({"context": context}, sort_keys=True))
    units = END_TO_END if not args.trace else {name: unit_of(name) for name in metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def unit_of(layer_metric):
    """Layer metric units follow the name: *_s seconds, *_ratio ratios, else counts."""
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
