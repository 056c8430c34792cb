"""Outside-in tracing of clockwork for the benchmark's traced run.

The tracer never edits clockwork's source.  It re-points the names that
``clockwork.testkit`` and ``clockwork.cli`` import (and the entries of
``testkit.SEMANTICS``) at wrappers that record one span per call, and it
re-points ``aval``/``bval`` as bound in the evaluator and oracle modules,
and ``Store.set``, at count-only wrappers.  Recursive calls inside a
module go through that module's own globals and are not wrapped, so a
span is one call across a layer boundary.

A span is ``[name, start_ns, end_ns, parent, op, busy_ns, tag]``: the
parent is the index of the enclosing span (-1 for none), ``op`` the id
of the CLI invocation it belongs to, ``busy_ns`` the time the layer
itself was running (the span's length, except for ``iter_trace``, which
only counts time spent inside ``next``), and ``tag`` a per-layer result
summary (timeout flag, oracle steps, characters parsed, property id).
Spans stay in memory until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Optional

NAME, START, END, PARENT, OP, BUSY, TAG = range(7)

EVALUATORS = {
    "ev": "clocked_env.ev",
    "ev_min": "clocked_env.ev_min",
    "cval": "clocked_state.cval",
    "cval_guard": "clocked_state.cval_guard",
    "cval_tick": "clocked_state.cval_tick",
}


def _assign(obj, attr: str, value) -> None:
    if isinstance(obj, dict):
        obj[attr] = value
    else:
        setattr(obj, attr, value)


class Tracer:
    """Span and counter recorder; install() wraps, uninstall() restores."""

    def __init__(self, cw) -> None:
        self.cw = cw
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, itertools.count] = {}
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers ---

    def _span(self, name: str, fn: Callable, tag: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                rec[BUSY] = end - rec[START]
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(args, result)
            return result

        return traced

    def _iter_span(self, name: str, fn: Callable) -> Callable:
        """Spans a generator over its iteration; consumer time is excluded."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, -1]
            idx = len(spans)
            spans.append(rec)
            it = fn(*args, **kwargs)

            def iterate():
                while True:
                    stack.append(idx)
                    t0 = clock()
                    if not rec[START]:
                        rec[START] = t0
                    try:
                        cfg = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[END] = t1 = clock()
                        rec[BUSY] += t1 - t0
                        stack.pop()
                    rec[TAG] += 1  # yields minus one = steps taken
                    yield cfg

            return iterate()

        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counter = self.counters.setdefault(key, itertools.count())
        tick = counter.__next__

        def counted(*args):
            tick()
            return fn(*args)

        return counted

    def _patch(self, obj, attr: str, value) -> None:
        """Re-points a module or class attribute, or a dict entry."""
        self._saved.append((obj, attr, obj[attr] if isinstance(obj, dict) else getattr(obj, attr)))
        _assign(obj, attr, value)

    # --- install / restore ---

    def install(self) -> None:
        cw = self.cw
        tk, cli, ss = cw.testkit, cw.cli, cw.smallstep
        for key, name in EVALUATORS.items():
            module = getattr(cw, name.split(".")[0])
            w = self._span(name, getattr(module, key), lambda a, r: r is None)
            self._patch(tk, key, w)
            self._patch(tk.SEMANTICS, key, w)

        def oracle_tag(args, outcome):
            limited = isinstance(outcome, ss.StepLimit)
            return (outcome.cap if limited else outcome.steps, limited)

        for attr, name, tag, modules in (
            ("run_oracle", "smallstep.run_oracle", oracle_tag, (tk, cli)),
            ("run_oracle_stats", "smallstep.run_oracle_stats", lambda a, r: oracle_tag(a, r[0]), (tk,)),
            ("parse_com", "parser.parse_com", lambda a, r: len(a[0]), (tk, cli)),
            ("pretty", "imp.pretty", None, (tk, cli, ss)),
            ("fuel_search", "testkit.fuel_search", None, (tk, cli)),
            ("run_property", "testkit.run_property", lambda a, r: (a[0], a[2]), (cli,)),
        ):
            w = self._span(name, getattr(modules[0], attr), tag)
            for m in modules:
                self._patch(m, attr, w)
        w = self._iter_span("smallstep.iter_trace", tk.iter_trace)
        self._patch(tk, "iter_trace", w)
        self._patch(cli, "iter_trace", w)
        for attr in ("aval", "bval"):
            w = self._counted(f"imp.{attr}", getattr(ss, attr))
            for m in (cw.clocked_env, cw.clocked_state, ss):
                self._patch(m, attr, w)
        self._patch(cw.imp.Store, "set", self._counted("imp.Store.set", cw.imp.Store.set))

    def uninstall(self) -> None:
        while self._saved:
            _assign(*self._saved.pop())

    def root(self, fn: Callable) -> Callable:
        """`fn` (the CLI entry point) wrapped as the root span of an operation."""
        return self._span("cli.main", fn)

    # --- results ---

    def counts(self) -> dict[str, int]:
        """Calls per counted name; read once, after the traced pass."""
        return {key: next(counter) for key, counter in self.counters.items()}

    def self_ns(self) -> list[int]:
        """Per span: busy time minus the busy time of its direct children."""
        own = [rec[BUSY] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[BUSY]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\top\tname\tstart_ns\tend_ns\tbusy_ns\ttag\n")
            for i, (name, start, end, parent, op, busy, tag) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start}\t{end}\t{busy}\t{tag}\n")
