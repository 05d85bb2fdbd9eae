"""In-memory span tracing around the package's public functions.

A :class:`Tracer` replaces each traced function at every module attribute
that holds it (``semirings.semiring.is_congruence_simple`` and
``semirings.catalog.is_congruence_simple`` alike), so every caller resolves
the wrapper.  Each call records a span ``[name, start, end, parent]``;
spans stay in memory until :meth:`Tracer.layer_metrics` reduces them.
Self time ("busy") is a span's duration minus the time covered by its
child spans.  Everything runs in one thread, so children never overlap.
"""

from __future__ import annotations

import pathlib
import sys
from collections import defaultdict
from time import perf_counter

from semirings import catalog, cli, endo, lattice, semimodule, semiring


def _hit(result):
    return {"hits": int(result is not None)}


# (span name, owner object, attribute, stats taken from the return value)
TARGETS = (
    ("semiring.is_congruence_simple", semiring, "is_congruence_simple", None),
    ("semiring.semiring_iso", semiring, "semiring_iso", _hit),
    ("semiring.semiring_anti_iso", semiring, "semiring_anti_iso", _hit),
    ("endo.enumerate_sr", endo, "enumerate_sr", lambda r: {"families": len(r)}),
    ("endo.dense_closure", endo, "dense_closure", lambda r: {"members": r.size}),
    ("endo.endomorphisms", endo, "endomorphisms", lambda r: {"maps": len(r)}),
    ("endo.to_semiring", endo.EndoSubsemiring, "to_semiring",
     lambda r: {"cells": 2 * r.n * r.n}),
    ("lattice.enumerate_lattices", lattice, "enumerate_lattices",
     lambda r: {"lattices": len(r)}),
    ("lattice.lattice_iso", lattice, "lattice_iso", None),
    ("semimodule.descend_to_irreducible", semimodule, "descend_to_irreducible",
     lambda r: {"chain_len": len(r)}),
    ("semimodule.maximal_nontotal_congruence", semimodule,
     "maximal_nontotal_congruence", None),
    ("semimodule.irreducibility", semimodule, "irreducibility", None),
    ("semimodule.representation", semimodule, "representation", None),
    ("catalog.family_report", catalog, "family_report",
     lambda r: {"members": len(r.members)}),
    ("catalog.build_catalog", catalog, "build_catalog", None),
    ("catalog.load_catalog", catalog, "load_catalog", None),
    ("catalog.query_catalog", catalog, "query_catalog", None),
    ("cli.main", cli, "main", None),
)

# semiring_anti_iso is a semiring_iso search onto the opposite semiring;
# that inner search belongs to the anti-iso span, not to pairwise classing.
_FOLDED = {"semiring.semiring_iso": "semiring.semiring_anti_iso"}

# Catalog file traffic, counted while the named span is innermost.
_IO = {
    "write_text": ("catalog.build_catalog", "catalog.build_catalog.bytes_written"),
    "read_text": ("catalog.load_catalog", "catalog.bytes_read"),
}

ROOT = "round"

# Per-layer metrics in report order, with units.
LAYER_METRICS = (
    ("semiring.is_congruence_simple.busy_s", "s"),
    ("semiring.is_congruence_simple.calls", "count"),
    ("semiring.semiring_iso.busy_s", "s"),
    ("semiring.semiring_iso.calls", "count"),
    ("semiring.semiring_iso.hit_ratio", "ratio"),
    ("semiring.semiring_anti_iso.busy_s", "s"),
    ("semiring.semiring_anti_iso.calls", "count"),
    ("semiring.semiring_anti_iso.hit_ratio", "ratio"),
    ("endo.enumerate_sr.busy_s", "s"),
    ("endo.enumerate_sr.calls", "count"),
    ("endo.enumerate_sr.families", "count"),
    ("endo.dense_closure.busy_s", "s"),
    ("endo.dense_closure.calls", "count"),
    ("endo.dense_closure.members", "count"),
    ("endo.endomorphisms.busy_s", "s"),
    ("endo.endomorphisms.calls", "count"),
    ("endo.endomorphisms.maps", "count"),
    ("endo.to_semiring.busy_s", "s"),
    ("endo.to_semiring.calls", "count"),
    ("endo.to_semiring.cells", "count"),
    ("lattice.enumerate_lattices.busy_s", "s"),
    ("lattice.enumerate_lattices.lattices", "count"),
    ("lattice.lattice_iso.busy_s", "s"),
    ("semimodule.descend_to_irreducible.busy_s", "s"),
    ("semimodule.descend_to_irreducible.calls", "count"),
    ("semimodule.descend_to_irreducible.chain_len", "count"),
    ("semimodule.maximal_nontotal_congruence.busy_s", "s"),
    ("semimodule.maximal_nontotal_congruence.calls", "count"),
    ("semimodule.irreducibility.busy_s", "s"),
    ("semimodule.representation.busy_s", "s"),
    ("catalog.family_report.busy_s", "s"),
    ("catalog.family_report.members", "count"),
    ("catalog.build_catalog.busy_s", "s"),
    ("catalog.build_catalog.bytes_written", "bytes"),
    ("catalog.load_catalog.busy_s", "s"),
    ("catalog.query_catalog.busy_s", "s"),
    ("catalog.query_catalog.calls", "count"),
    ("catalog.bytes_read", "bytes"),
    ("cli.main.busy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.uninstrumented_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.stats = defaultdict(int)
        self._restore = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for name, owner, attr, stats in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, stats)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("semirings")
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, wrapper)
        for method, (span, key) in _IO.items():
            self._patch(pathlib.Path, method, self._wrap_io(
                getattr(pathlib.Path, method), span, key))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, stats):
        folded_into = _FOLDED.get(name)

        def traced(*args, **kwargs):
            if folded_into and self.stack and self.spans[self.stack[-1]][0] == folded_into:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self.stats[f"{name}.calls"] += 1
            if stats:
                for key, value in stats(result).items():
                    self.stats[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_io(self, fn, span, key):
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if self.stack and self.spans[self.stack[-1]][0] == span:
                text = result if isinstance(result, str) else args[0]
                self.stats[key] += len(text.encode())
            return result

        return counted

    # -- spans -------------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def busy(self):
        """Self time per span name, over all spans recorded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            busy[name] += (end - start) - child_time[i]
        return busy

    def layer_metrics(self, untraced_wall_s):
        """Every metric of LAYER_METRICS, as ``{name: value}``.

        ``trace.uninstrumented_s`` is the self time of the root span, i.e.
        the traced wall time that no wrapped function accounts for."""
        busy = self.busy()
        traced_wall = sum(end - start for name, start, end, _ in self.spans if name == ROOT)
        values = {}
        for metric, _unit in LAYER_METRICS:
            head, _, stat = metric.rpartition(".")
            if stat == "busy_s":
                values[metric] = busy.get(head, 0.0)
            elif stat == "hit_ratio":
                calls = self.stats.get(f"{head}.calls", 0)
                values[metric] = self.stats.get(f"{head}.hits", 0) / calls if calls else 0.0
            else:
                values[metric] = self.stats.get(metric, 0)
        values["trace.wall_s"] = traced_wall
        values["trace.uninstrumented_s"] = busy.get(ROOT, 0.0)
        values["trace.overhead_s"] = traced_wall - untraced_wall_s
        return values


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), None, parent])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()
        return False
