"""The benchmark's own test: every workload at a small size, in both modes.

For each workload this runs the benchmark command line in a subprocess,
once untraced and twice traced with one seed, and checks that

* the command exits 0 and its last line is a result with correct = true;
* the metric names and units equal BENCHMARK.json's end_to_end (untraced)
  or per_layer (traced) lists, and the workload names match;
* every count (units count and bytes) repeats exactly between the two
  traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys

SEED = 7
SECONDS = 1
TIMEOUT_S = 170


def _invoke(root, script, workload, trace):
    command = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace), "--small"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=root,
                          timeout=TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done, result


def main(root, script) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    import workloads

    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("workload names differ from BENCHMARK.json")
    for workload in workloads.NAMES:
        traced = []
        for trace in (0, 1, 1):
            done, result = _invoke(root, script, workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing} extra {extra} unit {wrong}")
            if trace:
                traced.append(result["metrics"])
            print(f"smoke {label}: ok={result['correct']} attempted={result['attempted']}")
        if len(traced) == 2:
            for name, m in traced[0].items():
                if m["unit"] in ("count", "bytes") and m["value"] != traced[1][name]["value"]:
                    problems.append(f"{workload}: count {name} {m['value']} then "
                                    f"{traced[1][name]['value']}")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0
