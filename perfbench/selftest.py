#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json with their units, a report line for
every named timing, and ``fail_ratio: 0``; that a traced run prints exactly
the per-layer metrics; and that two traced runs with the same seed give
identical call counts and counters.  Last, it checks that the benchmark
copied without the library exits non-zero without printing a result.  The
paper workload has no tiny form (the suite is fixed), so this takes about a
minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def tiny_run(workload: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            size="tiny",
        )
    lines = out.getvalue().splitlines()
    expect(json.loads(lines[-1]) == result, f"{workload}: last line is not the result")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    return result, lines


def check_metrics(workload: str, result, declared) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{workload}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(got) ^ set(units))}")


def main() -> None:
    run.import_library()
    import workloads

    for workload in workloads.WORKLOADS:
        result, lines = tiny_run(workload, 0)
        check_metrics(workload, result, BENCHMARK["end_to_end"])
        named = ["setup_s", "pass_s", "peak_rss_mb", "fail_ratio"]
        named += [f"{k}_s" for k, w in workloads.KINDS.items() if w == workload]
        for name in named:
            expect(any(line.startswith(f"{name}: ") for line in lines),
                   f"{workload}: no report line for {name}")
        expect(any(line.startswith("fail_ratio: 0 ") for line in lines),
               f"{workload}: fail_ratio is not 0")

        first, _ = tiny_run(workload, 1)
        second, _ = tiny_run(workload, 1)
        check_metrics(workload, first, BENCHMARK["per_layer"])
        counts = {n for n, m in first["metrics"].items() if m["unit"] == "count"}
        for name in counts:
            expect(first["metrics"][name] == second["metrics"][name],
                   f"{workload}: {name} differs between traced runs")
        print(f"selftest: {workload} ok")

    bare = run.ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "benchmark without the library did not fail cleanly")
    print("selftest: run without the library fails cleanly")


if __name__ == "__main__":
    main()
