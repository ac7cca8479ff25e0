"""Outside-in tracing of the pricer's layers.

The tracer replaces a layer's public function everywhere its name is bound
inside the ``parisian`` package (its own module and every ``from x import
name`` binding), records one span per call, and restores the originals on
exit.  Spans stay in memory as (name, start, end, parent, contract) tuples and
are written out once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import operator
import sys
import time
from collections import defaultdict

import numpy as np
from scipy import sparse

from parisian.numerics import LCPStatus


def _lcp_counts(field):
    def count(result, args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        return {
            field: result.iterations,
            "max_n": problem.n,
            "unsolved": int(result.status is not LCPStatus.SOLVED),
        }

    return count


def _nnz(result, args, kwargs):
    n = result.nnz if sparse.issparse(result) else int(np.count_nonzero(result))
    return {"nnz": n}


def _cells(result, args, kwargs):
    return {"cells": int(np.size(result))}


# (module, function, counter hook).  Every call also counts in ``calls``.
TARGETS = (
    ("bench_cli", "price_point", None),
    ("bench_cli", "run_study", None),
    ("ctmc", "build_generator", None),
    ("numerics", "policy_solve", _lcp_counts("iterations")),
    ("numerics", "lemke_solve", _lcp_counts("pivots")),
    ("numerics", "generator_expm", None),
    ("numerics", "solve_tridiag", None),
    ("pricer_downin", "vanilla_american_perpetual", None),
    ("pricer_downin", "parisian_transform", None),
    ("pricer_downin", "price_perpetual_downin", None),
    ("pricer_downin", "bermudan_slice", None),
    ("pricer_downin", "price_finite_downin", None),
    ("pricer_downout", "duration_generator", _nnz),
    ("pricer_downout", "price_perpetual_downout", None),
    ("pricer_downout", "price_finite_downout", None),
)

# counters that aggregate by maximum instead of by sum
_MAX_COUNTERS = {"max_n"}


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, contract)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.contract = None
        self._stack = []         # [span index, start, child seconds]
        self._models = {}

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (name, frame[1], end, parent, self.contract)
                self.counts[name]["calls"] += 1
            if count is not None:
                bucket = self.counts[name]
                for key, value in count(result, args, kwargs).items():
                    merge = max if key in _MAX_COUNTERS else operator.add
                    bucket[key] = merge(bucket[key], value)
            return result

        traced.__wrapped__ = fn
        return traced

    def _instrument_model(self, model):
        """Same model, with its jump measure's cell integrals traced."""

        jm = model.jump_measure
        if jm is None:
            return model
        if id(jm) not in self._models:
            traced_jm = dataclasses.replace(
                jm,
                interval_mass=self.wrap("models.interval_mass", jm.interval_mass, _cells),
            )
            if hasattr(jm, "_state_independent"):
                object.__setattr__(traced_jm, "_state_independent", jm._state_independent)
            # keep ``jm`` alive so its id cannot be reused by another measure
            self._models[id(jm)] = (jm, dataclasses.replace(model, jump_measure=traced_jm))
        return self._models[id(jm)][1]

    def _traced_generator(self, fn):
        traced = self.wrap("ctmc.build_generator", fn)

        def build_generator(model, *args, **kwargs):
            return traced(self._instrument_model(model), *args, **kwargs)

        build_generator.__wrapped__ = fn
        return build_generator

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each target inside the package, then restore."""

        package = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "parisian" or name.startswith("parisian.")
        }
        patched = []
        try:
            for module_name, attr, count in TARGETS:
                original = getattr(package[f"parisian.{module_name}"], attr)
                if attr == "build_generator":
                    wrapper = self._traced_generator(original)
                else:
                    wrapper = self.wrap(f"{module_name}.{attr}", original, count)
                for mod in package.values():
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound, wrapper)
                            patched.append((mod, bound, original))
            yield self
        finally:
            for mod, bound, original in reversed(patched):
                setattr(mod, bound, original)

    def layer_metrics(self):
        """Self seconds and counters per span name."""

        out = {}
        for name, seconds in self.self_s.items():
            out[f"{name}.self_s"] = seconds
        for name, bucket in self.counts.items():
            for key, value in bucket.items():
                out[f"{name}.{key}"] = value
        return out

    def write(self, fh, pass_index):
        """Write the recorded spans as JSON lines, times relative to the first."""

        origin = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, contract in self.spans:
            fh.write(json.dumps({
                "pass": pass_index,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "contract": contract,
            }) + "\n")
