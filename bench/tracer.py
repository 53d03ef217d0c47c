"""Spans around the public functions of qcatlab's layers, set from outside.

`install` wraps each function under every name a qcatlab module binds it to,
so a caller that did `from .hecke import hecke_spectrum` calls the wrapper
too.  Spans nest on one stack (the traced workloads run in one thread and one
process), stay in memory, and are summarised when the run ends: a span's self
time is its duration less the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, function): the functions whose spans become per-layer metrics
TRACED = [
    ("groups", "build_hecke_torus"),
    ("models", "weil_op"),
    ("models", "canonical_intertwiner"),
    ("models", "raw_averaging"),
    ("models", "averaging_scale"),
    ("hecke", "hecke_spectrum"),
    ("hecke", "eigenfunction"),
    ("hecke", "transport"),
    ("harness", "universal_sweep"),
    ("harness", "supremum_records"),
    ("harness", "write_records_csv"),
]
ROOT = "cli.main"
PER_PRIME = ("hecke.hecke_spectrum", (101, 103, 197, 199))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, prime]
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, parent, time.perf_counter_ns(), 0, _prime_of(args)]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[3] = time.perf_counter_ns()
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("qcatlab.")]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"qcatlab.{layer}"], fname)
            wrapper = self.span(f"{layer}.{fname}", original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)

    def summary(self) -> dict:
        """Self seconds and calls per span name, plus whole-call seconds per prime."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        per_prime = {p: 0.0 for p in PER_PRIME[1]}
        for i, (name, _, start, end, p) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
            calls[name] = calls.get(name, 0) + 1
            if name == PER_PRIME[0] and p in per_prime:
                per_prime[p] += (end - start) / 1e9
        return {"self_s": self_s, "calls": calls, "per_prime_s": per_prime}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,parent,start_ns,end_ns,p\n")
            for name, parent, start, end, p in self.spans:
                fh.write(f"{name},{parent},{start},{end},{p}\n")


def _prime_of(args) -> int:
    """The prime a call works at, read from its first argument when it has one."""
    first = args[0] if args else None
    p = getattr(first, "p", None)
    return p if isinstance(p, int) else -1
