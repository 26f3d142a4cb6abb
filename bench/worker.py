"""One measured pass: a fresh process runs a workload's whole op list.

Usage: ``python3 bench/worker.py INPUTS [--setup-only] [--trace SPANS]``.

Set-up is everything before the first timed op: interpreter start, ``import
invar`` (through ``workloads``) and loading the generated inputs; it is
calibrated every 10 ms (see ``speed``).  The worker prints one JSON line:
the CLOCK_MONOTONIC instant set-up ended, the calibration time spent in
set-up and its mean slowdown, and (unless ``--setup-only``) each op's
latency, check result and output digest, peak RSS and, with ``--trace``,
the layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed

if __name__ == "__main__":
    # calibrate through set-up; the imports below are most of it
    SETUP_SPEED = speed.Speed()
    SETUP_SPEED.start_periodic()

import workloads  # noqa: E402
from invar import monomials, solver  # noqa: E402
from invar.rationals import GaussRat, format_fraction  # noqa: E402


def plain(x):
    """Canonical JSON-able form of an op output; dicts become sorted pairs."""
    if isinstance(x, GaussRat):
        return [format_fraction(x.re), format_fraction(x.im)]
    if isinstance(x, Fraction):
        return format_fraction(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, dict):
        pairs = [[plain(k), plain(v)] for k, v in x.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(output):
    text = json.dumps(plain(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(ops, tracer=None):
    """Run every op once.  Returns per-op latency scaled to nominal host
    speed (see ``speed``), raw latency, check result and digest.  Traced
    passes calibrate only between ops, so no calibration lands in a span."""
    calibration = speed.Speed()
    records, oks, digests, errors = [], [], [], []
    clock = time.perf_counter
    if tracer is None:
        calibration.start_periodic()
    try:
        for i, op in enumerate(ops):
            calibration.sample()
            if tracer is not None:
                tracer.begin_op(i)
            spent = calibration.spent
            start = clock()
            try:
                ok, output = workloads.run_op(op)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                ok, output = False, None
                errors.append(f"op {i} ({op['kind']}): {type(exc).__name__}: {exc}")
            end = clock()
            records.append((start, end, end - start - (calibration.spent - spent)))
            if tracer is not None:
                tracer.end_op()
            oks.append(bool(ok))
            digests.append(digest(output))
        calibration.sample()
    finally:
        if tracer is None:
            calibration.stop_periodic()
    raw = [r for _, _, r in records]
    return {
        "latencies": [r / calibration.factor(s, e) for s, e, r in records],
        "raw_latencies": raw,
        "ok": oks,
        "digests": digests,
        "errors": errors[:5],
    }


def caches_empty():
    return not monomials._CANONICAL_CACHE and not solver._SYSTEM_CACHE


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one measured pass")
    ap.add_argument("inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="write spans here and report layer metrics")
    args = ap.parse_args(argv)

    ops = workloads.load(json.loads(Path(args.inputs).read_text(encoding="utf-8")))
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.instrument(tracer)
    if not caches_empty():
        sys.stderr.write("canonical or column-space cache filled before timing\n")
        return 1
    ready = time.monotonic()
    SETUP_SPEED.stop_periodic()
    SETUP_SPEED.sample()
    setup = {
        "ready": ready,
        "setup_calibration_s": SETUP_SPEED.spent,
        "setup_slowdown": SETUP_SPEED.mean_factor(),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    result = run_pass(ops, tracer)
    result.update(setup)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
