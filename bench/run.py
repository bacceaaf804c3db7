"""stopwright benchmark: one workload, one seed, one timed run.

Run from the repository root:

    python3 bench/run.py --workload bushy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One process, one client, closed loop: each session starts when the
previous one ends (the ``cli`` workload runs one child process at a time).
The package is imported from ``src/`` of the checkout the script sits in
and only ever sees the inputs generated from ``--seed``.

Set-up (a child importing ``stopwright.cli``, input generation and
``build_space``) runs SETUP_REPEATS times before timing starts.  Sessions
then run until ``--seconds`` have passed; every session's results go
through the oracles and into the digest outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to
a reference host, because a shared host drifts in speed by up to 2x: a
fixed Fraction loop runs every 25 ms of a set-up or session, and the
phase's time is scaled by how long the loop took (see tracing.py).  The
run is pinned to one CPU, so the loop and the children of ``cli`` run
where the measured work runs.  The run record keeps the raw times and the
loop's times.

``--trace 1`` runs each session twice, traced and then untraced, prints
the per-layer metrics from the traced copies (raw times: traced phases
are not paced), reports the difference between the two as
``trace.overhead_pct`` and writes the spans to ``.bench_build/spans/``.
``--smoke`` runs every workload at a tiny size, with one set-up and a
fixed number of sessions, traced and untraced, and compares the digests
of seed 0 with ``digests.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment,
sizes, oracle outcomes, errors by type and the digest.  The exit code is
1 when an oracle or the digest fails and 2 when the package's sources or
``tests/fuzz.py`` (whose generators the benchmark shares) are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 11
SMOKE_SESSIONS = {"bushy": 12, "deep": 2, "cli": 9}
SMOKE_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("bushy", "deep", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, tiny, in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU (see the module docstring)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten sessions beyond it.

    With fewer than 20 sessions that percentile would fall below the
    median, so the median is reported instead, with percentile 50.
    """
    n = len(durations)
    if n < 20:
        return statistics.median(durations), 50.0
    return sorted(durations)[n - 11], 100 * (n - 10) / n


def peak_rss_mb(workload) -> float:
    """Peak resident memory of this process, or of its children when they do the work."""
    who = resource.RUSAGE_CHILDREN if workload.work_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def measure(workload, seed: int, seconds: float, traced: bool, smoke: bool):
    """Set up, then run sessions; returns the recorder and the set-up and session times.

    Times come as ``Timings``: raw seconds, seconds scaled to the reference
    host (see tracing.py) and the reference loop's times.
    """
    from tracing import Recorder
    from workloads import need

    rec = Recorder(traced)
    sessions = SMOKE_SESSIONS[workload.name] if smoke else None
    setup = Timings()
    for _ in range(1 if smoke else SETUP_REPEATS):
        with rec.phase("setup") as phase:
            need(rec.call("cli.import", workload.import_child))
            workload.setup(seed, rec)
        setup.add(phase)
    with rec.phase("check"):
        workload.check_setup(rec)

    plain, with_spans = Timings(), Timings()
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or (k < sessions if sessions else perf_counter() < deadline):
        copies = ((True, with_spans), (False, plain)) if traced else ((False, plain),)
        for spans_on, timings in copies:
            rec.traced = spans_on
            with rec.phase("session") as phase:
                results = workload.session(k, rec)
            timings.add(phase)
            with rec.phase("check"):
                workload.check(k, results, rec)
        k += 1
    rec.traced = traced
    return rec, setup, plain, with_spans


class Timings:
    """Durations of one kind of phase: raw and scaled seconds, and reference loop times."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.ref_ms: list[float] = []

    def add(self, phase) -> None:
        self.raw.append(phase.seconds)
        self.scaled.append(phase.scaled)
        if phase.pace:
            self.ref_ms.extend(1000 * r for r in phase.pace.refs)

    def __len__(self) -> int:
        return len(self.raw)


def end_to_end_metrics(workload, setup: Timings, plain: Timings) -> dict:
    """Every time is scaled to the reference host (see tracing.py)."""
    durations = plain.scaled
    tail_s, _ = tail(durations)
    values = {
        "sessions_per_s": (len(durations) / sum(durations), "1/s"),
        "session_p50_ms": (1000 * statistics.median(durations), "ms"),
        "session_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setup.scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(workload, rec, setup: Timings, plain: Timings, with_spans: Timings) -> dict:
    """Per-layer times are raw, as the spans measured them."""
    from workloads import CHECK_LAYERS, LAYERS, SETUP_LAYERS

    table = rec.self_ms()
    values = {}
    for layer in LAYERS:
        calls, self_ms, errors = table.get(layer, (0, 0.0, 0))
        values[f"{layer}.calls"] = (calls, "count")
        values[f"{layer}.self_ms"] = (self_ms, "ms")
        values[f"{layer}.errors"] = (errors, "count")
    for layer in SETUP_LAYERS:
        total_ms = table.get(f"setup.{layer}", (0, 0.0))[1]
        values[f"setup.{layer}.self_ms"] = (total_ms / len(setup), "ms")
    for layer in CHECK_LAYERS:
        values[f"check.{layer}.self_ms"] = (table.get(f"check.{layer}", (0, 0.0))[1], "ms")
    values["error_rate"] = (rec.failed / rec.attempted if rec.attempted else 0.0, "ratio")
    for name, size in workload.sizes().items():
        values[name] = (size, "bytes" if name == "size.stdout_bytes" else "count")
    values["bits.max_num"] = (rec.max_num_bits, "bits")
    values["bits.max_den"] = (rec.max_den_bits, "bits")
    traced_s, plain_s = sum(with_spans.raw), sum(plain.raw)
    values["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")
    values["trace.accounted_pct"] = (rec.accounted_pct(), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> tuple[dict, dict]:
    """One run of one workload: (result object, run record)."""
    import numpy
    from tracing import REF_MS
    from workloads import WORKLOADS

    workload = WORKLOADS[name](smoke, ROOT)
    try:
        rec, setup, plain, with_spans = measure(workload, seed, seconds, traced, smoke)
    finally:
        workload.close()
    if traced:
        metrics = per_layer_metrics(workload, rec, setup, plain, with_spans)
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        rec.write_spans(os.path.join(spans_dir, f"{name}-seed{seed}.json"))
    else:
        metrics = end_to_end_metrics(workload, setup, plain)
    checks = workload.checks
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "smoke": smoke,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "commit": commit(),
        },
        "sizes": workload.sizes(),
        "sessions": len(plain),
        "tail_percentile": tail(plain.raw)[1],
        "session_ms": [round(1000 * d, 3) for d in plain.raw],
        "session_scaled_ms": [round(1000 * d, 3) for d in plain.scaled],
        "setup_s": setup.raw,
        "setup_scaled_s": setup.scaled,
        "ref_ms": {
            "nominal": REF_MS,
            "median": statistics.median(plain.ref_ms) if plain.ref_ms else None,
            "samples": len(plain.ref_ms),
        },
        "errors_by_type": {f"{layer} {error}": n for (layer, error), n in sorted(rec.errors.items())},
        **checks.summary(),
    }
    result = {
        "correct": checks.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    return result, record


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; digests checked against digests.json."""
    with open(os.path.join(os.path.dirname(__file__), "digests.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SMOKE_SESSIONS:
        for traced in (False, True):
            result, record = run_one(name, SMOKE_SEED, 0, traced, smoke=True)
            if record["digest"] != expected[name]:
                record["digest_expected"] = expected[name]
                result["correct"] = False
            print(json.dumps(record, sort_keys=True))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src, tests = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")
    for path in (os.path.join(src, "stopwright", "__init__.py"), os.path.join(tests, "fuzz.py")):
        if not os.path.isfile(path):
            print(f"bench: {path} is missing", file=sys.stderr)
            return 2
    sys.path[:0] = [src, tests]
    pin_to_one_cpu()
    from workloads import SetupFailed

    if args.smoke:
        return smoke()
    try:
        result, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except SetupFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
