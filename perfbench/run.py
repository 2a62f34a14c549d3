#!/usr/bin/env python3
"""geodex benchmark.

    python3 perfbench/run.py --workload {paper,search,groups} --seed N \
        --seconds S --trace {0,1}

Run from the root of a geodex checkout; the library is imported from its
``src`` directory.  The load is a closed loop: one process, one thread, one
question at a time.  Set-up generates the workload's inputs from the seed.
The run asks the workload's questions in passes until ``--seconds`` would be
overrun, checking every answer.  ``pass_s`` is the median over passes of the
summed question latencies of one pass.  Between questions the set-up is
repeated, so that it takes about a tenth of the question time and its
samples span the run as the passes do; ``setup_s`` is their median.

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the first half of
the time runs untraced and the rest traced, and the JSON carries the
per-layer metrics: calls and self time per wrapped function and per module
over one traced set-up plus one traced pass, counters, per-claim times of
the suite, and the tracing overhead (traced minus untraced pass median).
Spans are written to ``.bench_out/``.  Lines before the JSON report every
named timing with its median, tail percentile and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats take this share of the question time, and run at least
# SETUP_REPEATS times.  Spread over the run, they see the same drift in the
# machine's speed as the questions do.
SETUP_SHARE = 0.1
SETUP_REPEATS = 5
PERCENTILES = (99, 95, 90, 75)
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> None:
    src = ROOT / "src"
    if not (src / "geodex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no geodex sources in {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class Ledger:
    """Timings and outcomes of every question asked."""

    def __init__(self):
        self.setup_times: list = []
        self.passes: list = []  # (pass seconds, {kind: seconds})
        self.latencies: defaultdict = defaultdict(list)  # (kind, label) -> question seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def pass_times(self) -> list:
        return [seconds for seconds, _ in self.passes]

    def kind_latencies(self, kind: str) -> list:
        return [t for (k, _), times in self.latencies.items() if k == kind for t in times]

    def set_up(self, build):
        """Build the workload once, recording how long it took."""
        begin = time.perf_counter()
        workload = build()
        self.setup_times.append(time.perf_counter() - begin)
        return workload


def run_passes(workload, seconds, ledger, tracer=None, build=None) -> list:
    """Ask every question once per pass until another pass would overrun
    ``seconds``; at least one pass runs.  With ``build``, the set-up is
    repeated between questions to keep its share of the question time at
    SETUP_SHARE.  With a tracer, returns the (start, end) tracer marks of
    each pass."""
    deadline = time.perf_counter() + seconds
    asked = 0.0
    ranges = []
    while True:
        number = len(ledger.passes)
        start_mark = tracer.mark() if tracer is not None else None
        sums: Counter = Counter()
        for index, question in enumerate(workload.questions):
            if tracer is not None:
                tracer.qid = f"{number}.{index}"
            begin = time.perf_counter()
            try:
                failures = question.ask()
            except Exception:  # a raise is a failed answer, not a failed run
                failures = [f"raised {traceback.format_exc(limit=-3)}"]
            elapsed = time.perf_counter() - begin
            asked += elapsed
            while build is not None and sum(ledger.setup_times) < SETUP_SHARE * asked:
                ledger.set_up(build)
            sums[question.kind] += elapsed
            ledger.latencies[question.kind, question.label].append(elapsed)
            ledger.attempted += 1
            if failures:
                ledger.failed += 1
                ledger.errors.append(f"{question.kind} {question.label}: {'; '.join(failures)}")
        pass_seconds = sum(sums.values())
        ledger.passes.append((pass_seconds, sums))
        if tracer is not None:
            ranges.append((start_mark, tracer.mark()))
        if time.perf_counter() + pass_seconds > deadline:
            return ranges


def tail(samples):
    """(p, value) for the highest percentile in PERCENTILES with at least ten
    samples beyond it (nearest rank), or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def describe(samples, what: str) -> str:
    text = f"median {statistics.median(samples):.4f} s"
    found = tail(samples)
    if found is not None:
        text += f", p{found[0]} {found[1]:.4f} s"
    return f"{text} over {len(samples)} {what}"


def report_lines(ledger, kinds) -> list:
    lines = []
    if ledger.setup_times:
        lines.append(f"setup_s: {describe(ledger.setup_times, 'set-ups')}")
    lines.append(f"pass_s: {describe(ledger.pass_times(), 'passes')}")
    for kind in kinds:
        per_pass = [sums[kind] for _, sums in ledger.passes]
        lines.append(
            f"{kind}_s: {describe(per_pass, 'passes')}; one question: "
            f"{describe(ledger.kind_latencies(kind), 'questions')}"
        )
    lines.append(f"peak_rss_mb: {peak_rss_mb():.1f} MB")
    ratio = ledger.failed / ledger.attempted
    lines.append(f"fail_ratio: {ratio:g} ({ledger.failed} of {ledger.attempted} questions)")
    return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end_metrics(ledger) -> dict:
    values = {
        "setup_s": statistics.median(ledger.setup_times),
        "pass_s": statistics.median(ledger.pass_times()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer_metrics(tracer, setup_range, pass_ranges, overhead_s, claim_times, claim_count) -> dict:
    from tracing import COUNTERS, LAYERS

    setup_calls, setup_self, setup_counts = tracer.summarize(*setup_range)
    passes = [tracer.summarize(*r) for r in pass_ranges]
    first_calls, _, first_counts = passes[0]
    calls = setup_calls + first_calls
    metrics = {}
    for layer, names in LAYERS.items():
        layer_self = 0.0
        for fname in names:
            key = f"{layer}.{fname}"
            self_s = setup_self[key] + statistics.median(p[1][key] for p in passes)
            layer_self += self_s
            metrics[f"{key}.calls"] = (calls[key], "count")
            metrics[f"{key}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_s"] = (layer_self, "s")
    counts = setup_counts + first_counts
    for name in COUNTERS:
        metrics[name] = (counts[name], "count")
    reports = calls["symmetry.transitivity_degrees"]
    per_report = calls["perm.pointwise_stabilizer"] / reports if reports else 0
    metrics["perm.pointwise_stabilizer.per_report"] = (per_report, "count")
    for criterion in range(1, claim_count + 1):
        times = claim_times.get(criterion)
        metrics[f"verify.claim_{criterion:02d}_s"] = (statistics.median(times) if times else 0.0, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


def main(argv=None, size: str = "full") -> dict:
    import_library()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    header = [
        f"geodex benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} size={size}",
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"({platform.python_implementation()}) {platform.system()} {platform.machine()}",
        "load: closed loop, 1 process, 1 thread, one question at a time",
    ]
    kinds = [k for k, w in workloads.KINDS.items() if w == args.workload]
    ledger = Ledger()

    def build():
        return workloads.build(args.workload, args.seed, size)

    if not args.trace:
        workload = ledger.set_up(build)
        run_passes(workload, args.seconds, ledger, build=build)
        while len(ledger.setup_times) < SETUP_REPEATS:
            ledger.set_up(build)
        metrics = end_to_end_metrics(ledger)
        lines = header + report_lines(ledger, kinds)
    else:
        from tracing import Tracer

        started = time.perf_counter()
        workload = build()
        run_passes(workload, args.seconds / 2, ledger)
        traced = Ledger()
        tracer = Tracer()
        try:
            tracer.install()
            tracer.qid = "setup"
            setup_start = tracer.mark()
            traced_workload = build()
            setup_range = (setup_start, tracer.mark())
            remaining = args.seconds - (time.perf_counter() - started)
            pass_ranges = run_passes(traced_workload, remaining, traced, tracer)
        finally:
            tracer.uninstall()
        overhead_s = statistics.median(traced.pass_times()) - statistics.median(ledger.pass_times())
        # per-claim times come from the untraced suite runs
        metrics = per_layer_metrics(
            tracer, setup_range, pass_ranges, overhead_s, workload.claim_times,
            workloads.CLAIM_COUNT,
        )
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
        ledger.attempted += traced.attempted
        ledger.failed += traced.failed
        ledger.errors += traced.errors
        lines = header + report_lines(ledger, kinds)
        lines.append(
            f"trace: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
            f"{len(ledger.passes)} untraced and {len(traced.passes)} traced passes; "
            f"overhead {overhead_s:.4f} s per pass"
        )
    for error in ledger.errors[:20]:
        print(f"wrong answer: {error}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
