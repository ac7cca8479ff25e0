#!/usr/bin/env python3
"""Pricer benchmark: closed-loop batch passes over one workload.

    python3 perfbench/run.py --workload {bs-tables,jump-finest,term-structure}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the pricer is imported from ``src/`` next to this
directory, never from an installed copy.  One process, one client: a pass
prices every contract of the workload once, in an order drawn from the seed,
and the next pass starts when it ends.  Passes repeat until ``--seconds``
have elapsed.

Times are reported at a reference machine speed.  The host is shared, and
its speed drifts by up to 1.8x over minutes, beyond what any statistic of
one run's raw times can absorb.  So a fixed calibration kernel (a
pure-Python loop and small sparse LU solves, the two kinds of work that
dominate the pricer on small grids) is timed ``CALIBRATION_LOOPS`` times
before the first contract, between contracts and after the last, and each
contract's seconds are scaled by ``REFERENCE_LOOP_S`` over the median of the
kernel times on either side of it: a value is the seconds the contract would
take were the kernel running at its reference time.  The kernel is the
benchmark's own code, so a change to the pricer moves only the contract
times.  Raw seconds and the scales are
kept in the run record.

``--trace 0`` prints the end-to-end metrics: each time is the median over
the run's passes of the scaled seconds of the contracts it covers.
``setup_s`` is the median of at least ``SETUP_PROBES`` fresh processes' time
to import the pricer and build the contracts, one probe before each pass,
each scaled by the loops around it.  ``--trace 1`` alternates untraced and
traced passes and prints per-layer self times and counters (medians over the
traced passes), class times and the tracing overhead, and the time of one
extra pass at the machine's default BLAS thread count.  Every contract is
checked (see ``workloads.py``); the last stdout line is the JSON result.  Run
records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from pin import PINNED_THREADS, environment, pin_blas  # noqa: E402

pin_blas(None if "--threaded-reference" in sys.argv else PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_PROBES = 7
# the speed calibration kernel: its size, timings per gap, reference time
LOOP_ITERATIONS = 30_000
LU_SIZE, LU_SOLVES = 300, 15
CALIBRATION_LOOPS = 5
REFERENCE_LOOP_S = 0.005
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "downin_s": "s",
    "downout_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "ratio",
}

PER_LAYER = {
    "class.perp_downin_s": "s",
    "class.perp_downout_s": "s",
    "class.finite_downin_s": "s",
    "class.finite_downout_s": "s",
    "ctmc.build_generator.self_s": "s",
    "ctmc.build_generator.calls": "count",
    "models.interval_mass.self_s": "s",
    "models.interval_mass.cells": "count",
    "numerics.policy_solve.self_s": "s",
    "numerics.policy_solve.calls": "count",
    "numerics.policy_solve.iterations": "count",
    "numerics.policy_solve.max_n": "count",
    "numerics.lemke_solve.self_s": "s",
    "numerics.lemke_solve.pivots": "count",
    "numerics.generator_expm.self_s": "s",
    "numerics.solve_tridiag.self_s": "s",
    "numerics.solve_tridiag.calls": "count",
    "numerics.lcp.unsolved": "count",
    "pricer_downin.vanilla_american_perpetual.self_s": "s",
    "pricer_downin.parisian_transform.self_s": "s",
    "pricer_downin.price_perpetual_downin.self_s": "s",
    "pricer_downin.bermudan_slice.self_s": "s",
    "pricer_downin.price_finite_downin.self_s": "s",
    "pricer_downout.duration_generator.self_s": "s",
    "pricer_downout.duration_generator.calls": "count",
    "pricer_downout.duration_generator.nnz": "count",
    "pricer_downout.price_perpetual_downout.self_s": "s",
    "pricer_downout.price_finite_downout.self_s": "s",
    "bench_cli.price_point.self_s": "s",
    "bench_cli.run_study.self_s": "s",
    "perfbench.contract.self_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "env.threaded_wall_s": "s",
}


def import_pricer():
    """Import ``parisian`` from this checkout's ``src/`` or exit nonzero."""

    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import parisian
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import the pricer from {src}: {exc}")
    if not Path(parisian.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"benchmark: imported {parisian.__file__}, not the checkout's src/")


def child(flag, args):
    """Command line re-running this script in a fresh process."""

    cmd = [sys.executable, str(HERE / "run.py"), flag, "--workload", args.workload,
           "--seed", str(args.seed)]
    return cmd + (["--smoke"] if args.smoke else [])


def calibrate():
    """``CALIBRATION_LOOPS`` timings of the fixed calibration kernel."""

    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = LU_SIZE
    matrix = sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                          [-1, 0, 1], format="csc")
    samples = []
    for _ in range(CALIBRATION_LOOPS):
        t0 = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i % 7
        rhs = np.ones(n)
        for _ in range(LU_SOLVES):
            rhs = np.maximum(splu(matrix).solve(rhs), 0.1) + 0.5 * rhs
        samples.append(time.perf_counter() - t0)
    return samples


def scale(before, after):
    """Factor taking seconds measured between two calibrations to reference speed."""

    return REFERENCE_LOOP_S / statistics.median(before + after)


def measure_setup(args):
    """Scaled seconds from a fresh process's start to its contracts being built."""

    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(child("--setup-probe", args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed ({line!r})")
    return elapsed * scale(before, calibrate())


def threaded_reference(args):
    """Scaled time of one pass at the machine's default BLAS thread count."""

    proc = subprocess.run(child("--threaded-reference", args), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(contracts, tracer=None):
    """Price each contract once; per-contract outcome, raw seconds and scale."""

    from workloads import Outcome

    results, scales = {}, {}
    before = calibrate()
    for contract in contracts:
        run = contract.run
        if tracer is not None:
            tracer.contract = contract.id
            run = tracer.wrap("perfbench.contract", run)
        t0 = time.perf_counter()
        try:
            outcome = run()
        except Exception as exc:  # a contract that raises is a counted failure
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome((), math.inf, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        after = calibrate()
        results[contract.id] = (outcome, seconds, contract.cls)
        scales[contract.id] = scale(before, after)
        before = after
    return {"results": results, "scales": scales}


def reference_seconds(records, classes=None):
    """Median over passes of the scaled seconds of contracts of ``classes`` (default all)."""

    return statistics.median(
        sum(seconds * record["scales"][cid]
            for cid, (_, seconds, cls) in record["results"].items()
            if classes is None or cls in classes)
        for record in records
    )


def passes_for(seconds, run_once):
    """Repeat ``run_once`` until ``seconds`` have elapsed (at least once)."""

    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(run_once())
    return records


def summarize(records):
    """Attempted and failed counts, worst error, per-contract lines."""

    attempted = failed = 0
    worst = -math.inf
    lines = []
    for i, record in enumerate(records):
        for cid, (outcome, seconds, cls) in record["results"].items():
            attempted += 1
            failed += outcome.problem is not None
            if outcome.problem is None:
                worst = max(worst, outcome.rel_err)
            status = "ok" if outcome.problem is None else f"FAILED: {outcome.problem}"
            price = outcome.prices[-1] if outcome.prices else float("nan")
            lines.append(f"pass {i} {cid:<28} {cls:<15} {seconds:8.3f} s"
                         f" x {record['scales'][cid]:.3f}"
                         f"  price {price:.10g}  rel err {outcome.rel_err:.3e}  {status}")
    return attempted, failed, (worst if worst > -math.inf else float("nan")), lines


def record_json(records):
    return [
        {
            "order": list(r["results"]),
            "contracts": {
                cid: {"class": cls, "seconds": s, "scale": r["scales"][cid],
                      "prices": list(o.prices),
                      "rel_err": o.rel_err, "problem": o.problem}
                for cid, (o, s, cls) in r["results"].items()
            },
        }
        for r in records
    ]


def untraced_metrics(args, contracts, rng):
    # one set-up probe before each pass spreads them over the run
    setup = []

    def probe_and_pass():
        setup.append(measure_setup(args))
        return run_pass(rng.sample(contracts, len(contracts)))

    records = passes_for(args.seconds, probe_and_pass)
    setup += [measure_setup(args) for _ in range(SETUP_PROBES - len(setup))]
    attempted, failed, worst, lines = summarize(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": reference_seconds(records),
        "downin_s": reference_seconds(records, ("perp_downin", "finite_downin")),
        "downout_s": reference_seconds(records, ("perp_downout", "finite_downout")),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "max_rel_err": worst,
    }
    extra = {"setup_samples_s": setup, "passes": record_json(records)}
    return values, attempted, failed, lines, extra


def traced_metrics(args, contracts, rng, out_stem):
    from spans import Tracer
    from workloads import PRICE_RTOL

    tracers, plain, traced = [], [], []

    def pair():
        order = rng.sample(contracts, len(contracts))
        plain.append(run_pass(order))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(order, tracer))
        tracers.append(tracer)

    passes_for(args.seconds, pair)
    threaded = threaded_reference(args)

    # tracing must not change a price
    mismatches = 0
    for p, t in zip(plain, traced):
        for cid, (outcome, _, _) in t["results"].items():
            base = p["results"][cid][0]
            same = len(outcome.prices) == len(base.prices) and all(
                abs(a - b) <= PRICE_RTOL * abs(b) for a, b in zip(outcome.prices, base.prices)
            )
            if not same:
                mismatches += 1
                print(f"traced price differs: {cid} {outcome.prices} vs {base.prices}",
                      file=sys.stderr)

    layers = [tr.layer_metrics() for tr in tracers]
    for lm, record in zip(layers, traced):
        factor = statistics.median(record["scales"].values())
        for name in lm:
            if name.endswith("_s"):
                lm[name] *= factor
        lm["numerics.lcp.unsolved"] = (lm.get("numerics.policy_solve.unsolved", 0)
                                       + lm.get("numerics.lemke_solve.unsolved", 0))
    plain_wall = reference_seconds(plain)
    traced_wall = reference_seconds(traced)
    values = {}
    for name in PER_LAYER:
        if name.startswith("class."):
            values[name] = reference_seconds(plain, (name[len("class."):-len("_s")],))
        else:
            pick = statistics.median_low if PER_LAYER[name] == "count" else statistics.median
            values[name] = pick(lm.get(name, 0) for lm in layers)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["env.threaded_wall_s"] = threaded["wall_s"]

    attempted, failed, _, lines = summarize(plain + traced)
    failed += mismatches
    self_times = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    total = sum(self_times.values())
    shares = sorted(((v / total, k) for k, v in self_times.items()), reverse=True)
    lines += [f"layer {name:<45} {share:6.1%} of traced self time" for share, name in shares[:6]]

    with open(f"{out_stem}-spans.jsonl", "w") as fh:
        for i, tracer in enumerate(tracers):
            tracer.write(fh, i)
    extra = {"passes": record_json(plain), "traced_passes": record_json(traced),
             "threaded_reference": threaded,
             "self_time_shares": {name: share for share, name in shares}}
    return values, attempted, failed, lines, extra


def main(argv=None):
    import_pricer()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and no accuracy gates (self-test only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--threaded-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    contracts = workloads.build(args.workload, args.smoke)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    # warm-up: load lazily imported code paths on tiny grids, untimed
    for contract in workloads.build(args.workload, smoke=True):
        contract.run()

    rng = random.Random(args.seed)
    if args.threaded_reference:
        record = run_pass(rng.sample(contracts, len(contracts)))
        print(json.dumps({"wall_s": reference_seconds([record]),
                          "blas_threads": environment(ROOT)["blas_threads"]}))
        return 0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}"
    if args.trace:
        values, attempted, failed, lines, extra = traced_metrics(args, contracts, rng, stem)
        units = PER_LAYER
    else:
        values, attempted, failed, lines, extra = untraced_metrics(args, contracts, rng)
        units = END_TO_END

    env = environment(ROOT, args.seed)
    for line in lines:
        print(line)
    print(f"failure share {failed}/{attempted}; env {json.dumps(env)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "smoke": args.smoke,
                   "env": env, "result": result, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
