"""Spans around the calls into each exunits layer, recorded from outside.

install() replaces a module attribute with a wrapper at the place the caller
looks it up (for example exunits.counting.factorize, which counting calls),
so the program itself is unchanged. A span is (id, name, start, end, parent,
phase, seen): parent is the id of the enclosing span or -1, phase tells the
timed loop from the verify grid, and seen marks a call whose input was
already passed to the same function earlier in the phase. A span's self
time is its duration minus that of the spans it encloses.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable

# (module, attribute looked up by the caller, span name, input key or None)
PATCHES = (
    ("exunits.counting", "factorize", "arith.factorize", lambda n: n),
    ("exunits.counting", "classify", "poly.classify", None),
    ("exunits.verify", "classify", "poly.classify", None),
    ("exunits.counting", "root_set_mod_p", "poly.root_scan",
     lambda f, p, *args, **kwargs: (f.coeffs, p)),
    ("exunits.counting", "root_composition_count", "counting.root_sum", None),
    ("exunits.cli", "compute_count", "counting.count", None),
    ("exunits.cli", "exunit_set", "poly.exunit_set", None),
    ("exunits.verify", "exunit_set", "poly.exunit_set", None),
    ("exunits.verify", "global_count", "counting.count", None),
    ("exunits.verify", "linear_count", "counting.count", None),
    ("exunits.verify", "quadratic_count", "counting.count", None),
    ("exunits.verify", "brauer_count", "counting.count", None),
    ("exunits.verify", "yang_zhao_count", "counting.count", None),
    ("exunits.verify", "oracle_global_count_dp", "oracle.dp", None),
    ("exunits.verify", "oracle_equivalence_suite", "verify.oracle_equivalence", None),
    ("exunits.verify", "multiplicativity_suite", "verify.multiplicativity", None),
    ("exunits.verify", "conservation_suite", "verify.conservation", None),
    ("exunits.verify", "fast_path_suite", "verify.fast_path", None),
)


class Tracer:
    """Aggregates spans as they close; keeps the first SAMPLE of them whole."""

    SAMPLE = 20_000

    def __init__(self) -> None:
        self.phase = "loop"
        self.sample: list[tuple] = []
        self.totals: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "seen": 0})
        self._open: list[list] = []      # [index, child seconds] per open span
        self._next = 0
        self._seen: dict[tuple[str, str], set] = defaultdict(set)

    def wrap(self, name: str, fn: Callable, key: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            seen = None
            if key is not None:
                inputs = key(*args, **kwargs)
                bucket = self._seen[self.phase, name]
                seen = inputs in bucket
                bucket.add(inputs)
            parent = self._open[-1][0] if self._open else -1
            frame = [self._next, 0.0]
            self._next += 1
            self._open.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                duration = end - start
                if self._open:
                    self._open[-1][1] += duration
                entry = self.totals[self.phase, name]
                entry["s"] += duration
                entry["self_s"] += duration - frame[1]
                entry["calls"] += 1
                entry["seen"] += bool(seen)
                if frame[0] < self.SAMPLE:
                    self.sample.append((frame[0], name, start, end, parent, self.phase, seen))
        return traced

    def install(self) -> tuple[Callable[[], None], list[str]]:
        """Wrap every patch target; returns the undo function and the targets
        the program no longer has, whose layers would otherwise read 0."""
        undo, missing = [], []
        for module_name, attr, name, key in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original, key))
            undo.append((module, attr, original))

        def restore() -> None:
            for module, attr, original in undo:
                setattr(module, attr, original)
        return restore, missing

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in the phase: seconds, self seconds, calls, seen calls."""
        return {name: entry for (p, name), entry in self.totals.items() if p == phase}

    def dump(self, path: str) -> None:
        """The sampled spans as JSON lines, then one line per aggregate."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, phase, seen in sorted(self.sample):
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "phase": phase, "seen": seen}) + "\n")
            for (phase, name), entry in sorted(self.totals.items()):
                out.write(json.dumps({"phase": phase, "name": name, **entry}) + "\n")
