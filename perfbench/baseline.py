#!/usr/bin/env python3
"""Baseline table: the 12 reference blocks at their finest grid.

    python3 perfbench/baseline.py [--label seed]

Prices each block of ``REFERENCE_TABLES`` (bs, kou, vg; four contract
classes each) untraced ``REPEATS`` times, for its end-to-end seconds (the
median), and once traced, for its dominant layer (largest self time).
Prints a markdown table and writes ``perfbench/baselines/BENCH_<label>.json``
with the environment, prices, relative errors against the published
benchmarks and per-layer self times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

from pin import PINNED_THREADS, environment, pin_blas  # noqa: E402

pin_blas(PINNED_THREADS)

import run  # noqa: E402

REPEATS = 3


def block_name(model, key):
    kind, _, flavor = key.partition("-")
    return f"{model} {'perp' if kind == 'perpetual' else 'fin'} {flavor}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="seed")
    args = parser.parse_args(argv)

    run.import_pricer()
    import workloads
    from parisian import bench_cli
    from spans import Tracer

    for model in ("bs", "kou", "vg"):  # untimed warm-up on tiny grids
        for opt in bench_cli.REFERENCE_TABLES[model]:
            bench_cli.price_point(opt.config, workloads.SMOKE_N)

    blocks = []
    for model in ("bs", "kou", "vg"):
        for opt in bench_cli.REFERENCE_TABLES[model]:
            cfg = opt.config
            n = cfg.grids[-1]
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                price = bench_cli.price_point(cfg, n).value
                times.append(time.perf_counter() - start)
            tracer = Tracer()
            with tracer.installed():
                traced_price = bench_cli.price_point(cfg, n).value
            layers = {
                name[: -len(".self_s")]: value
                for name, value in tracer.layer_metrics().items()
                if name.endswith(".self_s")
            }
            dominant = max(layers, key=layers.get)
            blocks.append({
                "block": block_name(model, opt.key),
                "n": n,
                "seconds": statistics.median(times),
                "seconds_samples": times,
                "price": price,
                "traced_price": traced_price,
                "benchmark": cfg.benchmark,
                "rel_err": abs(price - cfg.benchmark) / abs(cfg.benchmark),
                "gated": bool(opt.acceptance),
                "dominant_layer": dominant,
                "dominant_share": layers[dominant] / sum(layers.values()),
                "self_s": layers,
            })

    print("| block | n | e2e s | rel err vs benchmark | gated? | dominant layer |")
    print("|---|---|---|---|---|---|")
    for b in blocks:
        print(f"| {b['block']} | {b['n']} | {b['seconds']:.2f} | {100 * b['rel_err']:.3g}% |"
              f" {'yes' if b['gated'] else 'no'} |"
              f" `{b['dominant_layer']}` ({100 * b['dominant_share']:.0f}%) |")

    out_dir = HERE / "baselines"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump({"label": args.label, "env": environment(run.ROOT), "blocks": blocks},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
