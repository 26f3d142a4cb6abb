"""Per-layer tracing from outside the program.

:func:`instrument` wraps the public functions of each ``src/invar`` module by
rebinding module globals (in every ``invar`` module that imported the
function) and class attributes; nothing under ``src/`` is edited.  Layers
are the modules.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame, so a call's self time is its duration minus the wrapped calls
made inside it.  ``busy`` counts only the outermost call of each name, so
recursion or re-entry is not counted twice.

Ordinary calls are recorded as spans (name, start, end, parent span, op) and
kept in memory until :meth:`Tracer.write`.  The hot leaves -- GaussRat
arithmetic, ring and series ``mul``, ``canonical`` and ``pairing``, at
millions of calls per pass -- are not spanned; their count and time are
aggregated per op instead.
"""

from __future__ import annotations

import json
import sys
import time

from invar import (
    bergman,
    calculus,
    chern,
    fourier,
    geometry,
    invariants,
    jets,
    linalg,
    monomials,
    rationals,
    rings,
    series,
    solver,
)

_CALLS, _BUSY, _SELF, _DEPTH = range(4)


class Tracer:
    """Spans, per-name call statistics and size counters of one pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.op_hot: list[tuple] = []
        self.op = None
        self._frames: list[list] = []
        self._span_ids: list[int] = []
        self._hot_names: list[str] = []
        self._hot_mark: dict[str, tuple] = {}
        self._origin = time.perf_counter()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, hot=False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        span_ids = self._span_ids
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        if hot and name not in self._hot_names:
            self._hot_names.append(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            stat[_DEPTH] += 1
            if not hot:
                span_id = len(spans)
                parent = span_ids[-1] if span_ids else None
                spans.append(None)
                span_ids.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                frames.pop()
                stat[_DEPTH] -= 1
                stat[_CALLS] += 1
                if not stat[_DEPTH]:
                    stat[_BUSY] += dt
                stat[_SELF] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if not hot:
                    span_ids.pop()
                    spans[span_id] = (span_id, name, start, end, parent, tracer.op)
            return result

        return wrapper

    def begin_op(self, op_id):
        self.op = op_id
        self._hot_mark = {n: (self.stats[n][_CALLS], self.stats[n][_SELF]) for n in self._hot_names}

    def end_op(self):
        for n in self._hot_names:
            calls, self_s = self.stats[n][_CALLS], self.stats[n][_SELF]
            calls0, self0 = self._hot_mark[n]
            if calls != calls0:
                self.op_hot.append((self.op, n, calls - calls0, self_s - self0))
        self.op = None

    def stat(self, name):
        calls, busy, self_s, _ = self.stats.get(name, (0, 0.0, 0.0, 0))
        return calls, busy, self_s

    def metrics(self):
        """Every layer metric, zero where the layer did no work.  Units follow
        the name: ``*_s`` seconds, ``*_ratio`` ratios, everything else counts."""
        c = self.counters

        def calls(n):
            return self.stat(n)[0]

        def busy(n):
            return self.stat(n)[1]

        def self_s(n):
            return self.stat(n)[2]

        def ratio(num, den):
            return num / den if den else 0.0

        canon = calls("monomials.canonical")
        spaces = calls("solver.column_space")
        return {
            "rationals.gauss_mul.calls": calls("rationals.gauss_mul"),
            "rationals.gauss_add.calls": calls("rationals.gauss_add"),
            "rationals.self_s": sum(
                self_s(n) for n in self.stats if n.startswith("rationals.")
            ),
            "rings.symbolic_mul.calls": calls("rings.symbolic_mul"),
            "rings.symbolic_mul.self_s": self_s("rings.symbolic_mul"),
            "rings.graded_mul.calls": calls("rings.graded_mul"),
            "rings.graded_mul.self_s": self_s("rings.graded_mul"),
            "series.mul.calls": calls("series.mul"),
            "series.mul.self_s": self_s("series.mul"),
            "series.mul.terms_out": c.get("series.mul.terms_out", 0),
            "jets.potential.busy_s": busy("jets.potential"),
            "geometry.curvature_package.busy_s": busy("geometry.curvature_package"),
            "geometry.named_scalar.busy_s": busy("geometry.named_scalar"),
            "geometry.todd_polynomial.busy_s": busy("geometry.todd_polynomial"),
            "geometry.reference.busy_s": busy("geometry.reference"),
            "bergman.build_A.busy_s": busy("bergman.build_A"),
            "bergman.adjoint.busy_s": busy("bergman.adjoint"),
            "bergman.extract.self_s": self_s("bergman.extract"),
            "bergman.A_terms": c.get("bergman.A_terms", 0),
            "bergman.Astar_terms": c.get("bergman.Astar_terms", 0),
            "monomials.canonical.calls": canon,
            "monomials.canonical.miss_ratio": ratio(c.get("monomials.canonical.misses", 0), canon),
            "monomials.canonical.self_s": self_s("monomials.canonical"),
            "invariants.from_json.busy_s": busy("invariants.from_json"),
            "invariants.polarize.busy_s": busy("invariants.polarize"),
            "calculus.integrates_to_zero.busy_s": busy("calculus.integrates_to_zero"),
            "calculus.local_divergence.busy_s": busy("calculus.local_divergence"),
            "calculus.local_divergence.terms_out": c.get("calculus.local_divergence.terms_out", 0),
            "calculus.divergence.busy_s": busy("calculus.divergence"),
            "chern.chern_invariant.calls": calls("chern.chern_invariant"),
            "chern.chern_invariant.busy_s": busy("chern.chern_invariant"),
            "solver.enumerate_monomials.busy_s": busy("solver.enumerate_monomials"),
            "solver.enumerate_monomials.out": c.get("solver.enumerate_monomials.out", 0),
            "solver.column_space.calls": spaces,
            "solver.column_space.hit_ratio": ratio(c.get("solver.column_space.hits", 0), spaces),
            "solver.column_space.self_s": self_s("solver.column_space"),
            "solver.rows": c.get("solver.rows", 0),
            "solver.columns": c.get("solver.columns", 0),
            "solver.decompose.self_s": self_s("solver.decompose"),
            "solver.verify.busy_s": busy("solver.verify"),
            "linalg.factor.calls": calls("linalg.factor"),
            "linalg.factor.busy_s": busy("linalg.factor"),
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.solve.busy_s": busy("linalg.solve"),
            "linalg.rank": c.get("linalg.rank", 0),
            "linalg.inconsistent": c.get("linalg.inconsistent", 0),
            "fourier.eval_integral.calls": calls("fourier.eval_integral"),
            "fourier.eval_integral.busy_s": busy("fourier.eval_integral"),
            "fourier.pairing.calls": calls("fourier.pairing"),
            "fourier.random_phi.busy_s": busy("fourier.random_phi"),
        }

    def write(self, path):
        """Spans and per-op hot aggregates as JSON lines, times from pass start."""
        o = self._origin
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "span": span_id, "name": name, "start": start - o,
                    "end": end - o, "parent": parent, "op": op,
                }) + "\n")
            for op, name, calls, seconds in self.op_hot:
                fh.write(json.dumps({
                    "op": op, "name": name, "calls": calls, "self_s": seconds,
                }) + "\n")


def _rebind_function(original, wrapper):
    """Point every invar module global that holds ``original`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if name == "invar" or name.startswith("invar."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def instrument(tracer: Tracer):
    """Wrap every layer's public entry points; process-wide and permanent.

    ``around`` adds a counting shim inside the traced call, so its cost is
    part of the call's own span.
    """
    t = tracer

    def fn(module, attr, name, around=None, **kw):
        original = getattr(module, attr)
        inner = around(original) if around else original
        _rebind_function(original, t.wrap(name, inner, **kw))

    def method(cls, attr, name, around=None, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            inner = around(raw.__func__) if around else raw.__func__
            setattr(cls, attr, classmethod(t.wrap(name, inner, **kw)))
        else:
            inner = around(raw) if around else raw
            setattr(cls, attr, t.wrap(name, inner, **kw))

    def sized(counter, size):
        def around(f):
            def counted(*args, **kwargs):
                result = f(*args, **kwargs)
                t.count(counter, size(result))
                return result
            return counted
        return around

    G = rationals.GaussRat
    for attrs, name in (
        (("__add__", "__radd__"), "rationals.gauss_add"),
        (("__sub__", "__rsub__"), "rationals.gauss_sub"),
        (("__mul__", "__rmul__"), "rationals.gauss_mul"),
        (("__truediv__", "__rtruediv__"), "rationals.gauss_div"),
        (("__neg__",), "rationals.gauss_neg"),
        (("__pow__",), "rationals.gauss_pow"),
        (("conjugate",), "rationals.gauss_conj"),
    ):
        for attr in attrs:
            method(G, attr, name, hot=True)

    method(rings.GradedRing, "mul", "rings.graded_mul", hot=True)
    method(rings.SymbolicRing, "mul", "rings.symbolic_mul", hot=True)
    method(series.ScalarSeries, "mul", "series.mul", hot=True,
           around=sized("series.mul.terms_out", lambda r: len(r.terms)))

    for attr in ("numeric", "graded_numeric", "symbolic"):
        method(jets.Potential, attr, "jets.potential")

    fn(geometry, "curvature_package", "geometry.curvature_package")
    fn(geometry, "named_scalar", "geometry.named_scalar")
    fn(geometry, "todd_polynomial", "geometry.todd_polynomial")
    fn(geometry, "kernel_coefficient_reference", "geometry.reference")

    fn(bergman, "build_A", "bergman.build_A", around=sized("bergman.A_terms", len))
    fn(bergman, "adjoint", "bergman.adjoint", around=sized("bergman.Astar_terms", len))
    fn(bergman, "bergman_coefficients", "bergman.extract")

    def canonical_misses(f):
        def canonical(self):
            if self.kind == monomials.PHI and self._key not in monomials._CANONICAL_CACHE:
                t.count("monomials.canonical.misses")
            return f(self)
        return canonical

    method(monomials.ContractionMonomial, "canonical", "monomials.canonical",
           hot=True, around=canonical_misses)

    method(invariants.Invariant, "from_json_dict", "invariants.from_json")
    method(invariants.Invariant, "polarize", "invariants.polarize")

    fn(calculus, "integrates_to_zero", "calculus.integrates_to_zero")
    fn(calculus, "local_divergence", "calculus.local_divergence",
       around=sized("calculus.local_divergence.terms_out", lambda r: len(r.terms)))
    fn(calculus, "divergence", "calculus.divergence")

    fn(chern, "chern_invariant", "chern.chern_invariant")

    fn(solver, "enumerate_monomials", "solver.enumerate_monomials",
       around=sized("solver.enumerate_monomials.out", len))

    def column_space_hits(f):
        def column_space(w, sigma, restriction):
            if (w, sigma, restriction) in solver._SYSTEM_CACHE:
                t.count("solver.column_space.hits")
                return f(w, sigma, restriction)
            entry = f(w, sigma, restriction)
            t.count("solver.rows", len(entry["rows"]))
            t.count("solver.columns", len(entry["columns"]))
            return entry
        return column_space

    fn(solver, "_column_space", "solver.column_space", around=column_space_hits)
    fn(solver, "decompose", "solver.decompose")
    fn(solver, "verify_decomposition", "solver.verify")

    def factor_rank(f):
        def factor(self, *args):
            f(self, *args)
            t.count("linalg.rank", self.rank)
        return factor

    def inconsistent(f):
        def solve(self, rhs):
            x = f(self, rhs)
            t.count("linalg.inconsistent", x is None)
            return x
        return solve

    method(linalg.LinearSystem, "__init__", "linalg.factor", around=factor_rank)
    method(linalg.LinearSystem, "solve", "linalg.solve", around=inconsistent)

    fn(fourier, "eval_integral", "fourier.eval_integral")
    fn(fourier, "pairing", "fourier.pairing", hot=True)
    fn(fourier, "random_phi", "fourier.random_phi")
