#!/usr/bin/env python3
"""Self-test of the benchmark, on the smoke mode's tiny grids.

    python3 perfbench/selftest.py

Checks, for every workload:

* the metric names and units printed with ``--trace 0`` and ``--trace 1``
  match ``BENCHMARK.json``, and every contract passes;
* traced prices equal untraced prices bit for bit;
* the same seed gives the same contract order, pass by pass;

and that the benchmark exits nonzero, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.  Exits 0 when
every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    with open(OUT / f"{workload}-seed{seed}-trace{trace}-smoke.json") as fh:
        return json.load(fh)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench(workload, 7, trace)
            if proc.returncode != 0:
                check(False, f"{workload} --trace {trace} exits 0:\n{proc.stderr[-2000:]}")
                continue
            result = last_json(proc)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected[trace], f"{workload} --trace {trace} metric names and units")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} --trace {trace} prices every contract")

        traced = record(workload, 7, 1)
        same = all(
            plain["contracts"][cid]["prices"] == entry["prices"]
            for plain, tr in zip(traced["passes"], traced["traced_passes"])
            for cid, entry in tr["contracts"].items()
        )
        check(same and traced["traced_passes"],
              f"{workload} traced prices equal untraced bit for bit")

        first = [p["order"] for p in record(workload, 7, 0)["passes"]]
        rerun = bench(workload, 7, 0)
        second = [p["order"] for p in record(workload, 7, 0)["passes"]]
        k = min(len(first), len(second))
        check(rerun.returncode == 0 and k > 0 and first[:k] == second[:k],
              f"{workload} same seed, same contract order")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("bs-tables", 7, 0, cwd=bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result,
          "without the pricer's sources the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
