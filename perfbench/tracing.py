"""Spans for the traced run, recorded from the benchmark's side.

A span is [name, start, end, parent index, attrs].  Spans stay in memory
and are written out when the run ends.  Self time is a span's duration
minus the time its direct children cover.

install() wraps the library's entry points where a caller looks them up:
the name a module imported, or the module attribute a caller reads.  Only
non-recursive functions are wrapped in place.  The recursive ones (to_core,
nand_nf, to_json, render) are wrapped at the binding their outside caller
uses, so their own recursive calls stay untimed.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

import sclc.axioms
import sclc.cli
import sclc.congruence
import sclc.nandform
import sclc.normalform


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.kept: list[tuple[str, int, object]] = []  # (span, parent index, output)
        self.active = True
        self._stack: list[int] = []
        # Seconds a span took, from its start and end; the worker sets the
        # host-normalised measure once the run is over.
        self.duration = lambda start, end: end - start

    def call(self, name: str, fn, args=(), attrs=None, keep=False, kwargs=None):
        kwargs = kwargs or {}
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if keep:
            self.kept.append((name, parent, out))
        return out

    def wrap(self, fn, name: str, keep=False, chars=False):
        def traced(*args, **kwargs):
            attrs = {"chars": len(args[0])} if chars else None
            return self.call(name, fn, args, attrs, keep, kwargs)
        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def unwrapped(fn):
        return getattr(fn, "__wrapped__", fn)

    def self_times(self) -> dict[tuple[str, str | None], float]:
        """Summed self time per (span name, table attribute)."""
        took = [self.duration(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += took[i]
        out: dict = defaultdict(float)
        for i, (name, _, _, _, attrs) in enumerate(self.spans):
            table = attrs.get("table") if attrs else None
            out[(name, table)] += took[i] - child[i]
        return out

    def total(self, name: str) -> float:
        return sum(self.duration(start, end)
                   for n, start, end, _, _ in self.spans if n == name)

    def attr_sum(self, name: str, key: str) -> int:
        return sum(a.get(key, 0) for n, _, _, _, a in self.spans if n == name and a)


def _proxy(module, **wrapped):
    """A stand-in for a module reference, with some functions wrapped."""
    ns = types.SimpleNamespace(**{k: getattr(module, k) for k in dir(module)
                                  if not k.startswith("__")})
    for k, v in wrapped.items():
        setattr(ns, k, v)
    return ns


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    cli, cong, nf, nand, ax = (sclc.cli, sclc.congruence, sclc.normalform,
                               sclc.nandform, sclc.axioms)
    bf = w(nf.bf, "normalform.bf", keep=True)
    to_core = w(nf.to_core, "translate.to_core", keep=True)
    normal_form = w(cong.normal_form, "congruence.normal_form", keep=True)

    cli.parse = w(cli.parse, "syntax.parse", chars=True)
    cli.print_term = w(cli.print_term, "syntax.print")
    cli.render = w(cli.render, "normalform.render")
    cli.normalform = _proxy(nf, to_json=w(nf.to_json, "normalform.render"))
    cli.nandform = _proxy(nand,
                          nand_nf=w(nand.nand_nf, "nandform.nand_nf", keep=True),
                          check_munbf=w(nand.check_munbf, "nandform.check"),
                          render_nand=w(nand.render_nand, "nandform.render"),
                          to_json=w(nand.to_json, "nandform.render"))
    cong.normal_form = normal_form
    cong.evaluate = w(cong.evaluate, "congruence.evaluate")
    cong.bf = bf
    cong.mbf = w(cong.mbf, "normalform.mbf", keep=True)
    nf.bf = bf
    nf.to_core = to_core
    ax.normal_form = normal_form
    ax.to_core = to_core
