#!/usr/bin/env python3
"""Measure the observed spatial convergence order of each pricer flavor.

For every contract flavor this prices a geometric ladder of grids plus a
much finer pseudo-benchmark grid, fits the log-log slope of the error
against the state count, and prints the observed order.  The pseudo-
benchmark must sit well beyond the measured grids (4x the finest here):
differencing against an in-regime reference systematically overstates
the slope.

Run from anywhere, without installing: the pricer is imported from the
``src/`` directory of this checkout.

Example:
    python3 scripts/convergence_order.py --grids 65,97,129 --factor 4
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parisian.bench_cli import StudyConfig, observed_order, run_study  # noqa: E402

_FLAVORS = {
    "perpetual-down-in": dict(flavor="down-in"),
    "perpetual-down-out": dict(flavor="down-out", dd=1.0 / 120.0),
    "finite-down-in": dict(flavor="down-in", maturity=1.0, dt=1.0 / 60.0),
    "finite-down-out": dict(flavor="down-out", maturity=1.0, dt=1.0 / 60.0,
                            dd=1.0 / 120.0),
}


def base_config(grids):
    return StudyConfig(
        model="bs",
        model_params={"r_f": 0.1, "dividend": 0.05, "sigma": 0.3},
        flavor="down-in",
        spot=90.0,
        strike=95.0,
        barrier=90.0,
        window=1.0 / 12.0,
        rate=0.1,
        grids=grids,
        lo=0.0,
        hi=720.0,
        split="sqrt",
        self_benchmark=True,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", default="65,97,129",
                        help="comma-separated measured state counts")
    parser.add_argument("--factor", type=int, default=4,
                        help="pseudo-benchmark refinement over finest grid")
    args = parser.parse_args(argv)

    measured = tuple(int(g) for g in args.grids.split(","))
    bench_n = args.factor * (measured[-1] - 1) + 1
    grids = measured + (bench_n,)

    print(f"grids {measured}, pseudo-benchmark n={bench_n}")
    for label, overrides in _FLAVORS.items():
        cfg = dataclasses.replace(base_config(grids), **overrides)
        rows = run_study(cfg)
        points = [(row.n, row.abs_error) for row in rows[:-1]
                  if row.abs_error is not None]
        order = observed_order(points)
        errs = ", ".join(f"{r.n}: {r.abs_error:.2e}" for r in rows[:-1])
        print(f"{label:22s} observed order {order:5.2f}   ({errs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
