"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces public functions of chientropy with timing
wrappers, including every binding a caller imported by name (for
example ``chientropy.entropy.integrate_halfline`` next to
``chientropy.quad.integrate_halfline``).  Each wrapped call records a
span (name, start, end, parent) in memory; ``write`` saves them at the
end of the run.  A span's self time is its duration minus the time its
child spans cover.

Counts are taken at the same boundaries.  ``snapshot_counts`` freezes
them after round 0, whose inputs depend on the seed alone, so they
repeat exactly between runs; times use every round of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

from chientropy.quad import NonConvergence

# layer -> (module, function) bindings that callers reach it through
_BINDINGS = {
    "specfun.log_bessel_i": [("chientropy.specfun", "log_bessel_i"),
                             ("chientropy.dist", "log_bessel_i"),
                             ("chientropy", "log_bessel_i")],
    "dist.sample": [("chientropy.dist", "sample")],
    "quad.integrate": [("chientropy.quad", "integrate_halfline"),
                       ("chientropy.entropy", "integrate_halfline"),
                       ("chientropy", "integrate_halfline")],
    "entropy": [("chientropy.entropy", "entropy"), ("chientropy.proc", "entropy"),
                ("chientropy.cli", "entropy"), ("chientropy", "entropy")],
    "proc.table": [("chientropy.proc", "entropy_curve"),
                   ("chientropy.proc", "b_to_zero_study"),
                   ("chientropy.entropy", "lambda_convergence_study"),
                   ("chientropy.cli", "entropy_curve"),
                   ("chientropy.cli", "b_to_zero_study"),
                   ("chientropy.cli", "lambda_convergence_study"),
                   ("chientropy", "entropy_curve"),
                   ("chientropy", "b_to_zero_study"),
                   ("chientropy", "lambda_convergence_study")]}
_LAW_CLASSES = ("CentralChiSq", "NoncentralChiSq", "GammaLaw", "ScaledLaw")


def _base_key(law) -> tuple:
    while type(law).__name__ == "ScaledLaw":
        law = law.base
    return (type(law).__name__,) + tuple(vars(law).values())


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, points]
        self.stack = []          # indices of open spans
        self.counts = {}
        self.frozen = None
        self.round_laws = set()
        self._originals = []

    # ---- recording

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str, points: int = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, points])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _span(self, name: str, points: int, fn, args, kwargs):
        idx = self._open(name, points)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # ---- one wrapper per layer boundary

    def _log_bessel_i(self, fn):
        @functools.wraps(fn)
        def wrapper(nu, x):
            n = int(np.broadcast(np.asarray(nu), np.asarray(x)).size)
            self._count("specfun.log_bessel_i.calls")
            self._count("specfun.log_bessel_i.points", n)
            return self._span("specfun.log_bessel_i", n, fn, (nu, x), {})
        return wrapper

    def _log_pdf(self, fn):
        @functools.wraps(fn)
        def wrapper(law, x):
            if self._inside("dist.log_pdf"):
                return fn(law, x)      # a scaled or lam = 0 law delegating
            n = int(np.size(x))
            self._count("dist.log_pdf.calls")
            self._count("dist.log_pdf.points", n)
            return self._span("dist.log_pdf", n, fn, (law, x), {})
        return wrapper

    def _sample(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span("dist.sample", 0, fn, args, kwargs)
        return wrapper

    def _integrate_halfline(self, fn):
        @functools.wraps(fn)
        def wrapper(f, config=None):
            def counted(x):
                self.counts["quad.evals"] = self.counts.get("quad.evals", 0) + 1
                return f(x)

            self._count("quad.integrals")
            try:
                return self._span("quad.integrate", 0, fn, (counted, config), {})
            except NonConvergence:
                self._count("quad.nonconvergence")
                raise
        return wrapper

    def _entropy(self, fn):
        @functools.wraps(fn)
        def wrapper(law, spec, config=None, **kwargs):
            if self._inside("entropy"):
                return fn(law, spec, config, **kwargs)   # the scaling route's base law
            self._count("entropy.calls")
            if type(law).__name__ == "ScaledLaw" and not kwargs.get("scaled_direct"):
                self._count("entropy.scaling_calls")
            key = _base_key(law)
            if key in self.round_laws:
                self._count("proc.repeated_base_laws")
            self.round_laws.add(key)
            return self._span("entropy", 0, fn, (law, spec, config), kwargs)
        return wrapper

    def _table(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = self._span("proc.table", 0, fn, args, kwargs)
            self._count("proc.rows", len(rows))
            return rows
        return wrapper

    def install(self) -> None:
        factories = {"specfun.log_bessel_i": self._log_bessel_i,
                     "dist.sample": self._sample,
                     "quad.integrate": self._integrate_halfline,
                     "entropy": self._entropy,
                     "proc.table": self._table}
        for name, bindings in _BINDINGS.items():
            wrapped = {}
            for mod_name, attr in bindings:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                if fn not in wrapped:
                    wrapped[fn] = factories[name](fn)
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, wrapped[fn])
        dist = importlib.import_module("chientropy.dist")
        for cls_name in _LAW_CLASSES:
            cls = getattr(dist, cls_name)
            self._originals.append((cls, "log_pdf", cls.log_pdf))
            cls.log_pdf = self._log_pdf(cls.log_pdf)

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._originals):
            setattr(obj, attr, fn)
        self._originals.clear()

    def new_round(self) -> None:
        self.round_laws = set()

    def snapshot_counts(self) -> None:
        if self.frozen is None:
            self.frozen = dict(self.counts)

    # ---- results

    def _child_seconds(self) -> list:
        """Per span, the seconds its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.frozen if self.frozen is not None else self.counts
        child = self._child_seconds()
        # per span name: [spans, seconds, self seconds, points]
        agg = {}
        scalar_self = scalar_n = vec_s = vec_pts = 0.0
        for i, (name, start, end, _, points) in enumerate(self.spans):
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
            a[3] += points
            if name == "dist.log_pdf" and points == 1:
                scalar_self += end - start - child[i]
                scalar_n += 1
            elif name == "dist.log_pdf" and points >= 1000:
                vec_s += end - start
                vec_pts += points

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        bessel, quad, ent, table, smp = (agg.get(n, [0, 0.0, 0.0, 0]) for n in (
            "specfun.log_bessel_i", "quad.integrate", "entropy", "proc.table", "dist.sample"))
        return {
            "specfun.log_bessel_i.calls": (c.get("specfun.log_bessel_i.calls", 0), "count"),
            "specfun.log_bessel_i.points": (c.get("specfun.log_bessel_i.points", 0), "count"),
            "specfun.log_bessel_i.self_us_per_point": (per(bessel[2], bessel[3], 1e6), "us"),
            "dist.log_pdf.calls": (c.get("dist.log_pdf.calls", 0), "count"),
            "dist.log_pdf.points": (c.get("dist.log_pdf.points", 0), "count"),
            "dist.log_pdf.self_us_per_call": (per(scalar_self, scalar_n, 1e6), "us"),
            "dist.log_pdf.us_per_point_vector": (per(vec_s, vec_pts, 1e6), "us"),
            "dist.sample.ms": (per(smp[1], smp[0], 1e3), "ms"),
            "quad.integrals": (c.get("quad.integrals", 0), "count"),
            "quad.evals_per_integral": (per(c.get("quad.evals", 0),
                                            c.get("quad.integrals", 0)), "count"),
            "quad.ms_per_integral": (per(quad[1], quad[0], 1e3), "ms"),
            "quad.self_ms_per_integral": (per(quad[2], quad[0], 1e3), "ms"),
            "quad.nonconvergence": (c.get("quad.nonconvergence", 0), "count"),
            "entropy.calls": (c.get("entropy.calls", 0), "count"),
            "entropy.integrals_per_call": (per(c.get("quad.integrals", 0),
                                               c.get("entropy.calls", 0)), "count"),
            "entropy.ms_per_call": (per(ent[1], ent[0], 1e3), "ms"),
            "entropy.scaling_calls": (c.get("entropy.scaling_calls", 0), "count"),
            "proc.rows": (c.get("proc.rows", 0), "count"),
            "proc.ms_per_row": (per(table[1], self.counts.get("proc.rows", 0), 1e3), "ms"),
            "proc.repeated_base_laws": (c.get("proc.repeated_base_laws", 0), "count"),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "points"],
                       "spans": self.spans}, fh, separators=(",", ":"))
