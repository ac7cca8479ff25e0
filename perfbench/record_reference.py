#!/usr/bin/env python3
"""Record the prices the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``:

* ``jump-finest``: each Kou / VG block's price at its finest grid.  A later
  pass fails a block whose error against the published benchmark is worse
  than this price's (blocks without a raw acceptance cell at that grid).
* ``term-structure``: each contract's price at its benchmark grid n (a later
  pass fails if it moves by more than 1e-10 relative) and at the finer grid
  2n - 1, the reference for the reported relative error.

Run it on the commit whose prices should be the baseline; it takes about a
minute with one BLAS thread.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from pin import PINNED_THREADS, pin_blas  # noqa: E402

pin_blas(PINNED_THREADS)

import run  # noqa: E402


def main():
    run.import_pricer()
    import workloads
    from parisian import bench_cli

    jump = {}
    for model in ("kou", "vg"):
        for opt in bench_cli.REFERENCE_TABLES[model]:
            n = opt.config.grids[-1]
            jump[f"{model}/{opt.key}"] = {
                "n": n, "price": bench_cli.price_point(opt.config, n).value,
            }
    term = {}
    for family, key, n in workloads.TERM_STRUCTURE:
        term[f"{family}/{key}"] = {
            "n": n,
            "price": workloads.price_term_structure(family, key, n),
            "fine_n": 2 * n - 1,
            "fine_price": workloads.price_term_structure(family, key, 2 * n - 1),
        }
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump({"jump-finest": jump, "term-structure": term}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
