"""Spans and counters recorded from outside the program.

The tracer replaces module-level names of `varred` -- the functions and
methods through which one module calls the next -- with wrappers, and puts
the originals back when it is uninstalled.  Nothing in `src/` knows about
it.  A function is wrapped under every name that refers to it in a loaded
`varred` module, so `apply_gauge` is traced whether `reduction` or
`fixtures` calls it.

A span records its name, its parent span, start and end; counters count
calls of hot functions without the cost of a span.  Spans stay in memory
and are written as JSONL when the run ends.
"""

import contextlib
import json
import sys
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, attrs]
        self.stack = []  # ids of the open spans, innermost last
        self.counts = {}
        self._patches = []  # (owner, attribute, original)
        self._plan = []  # (owner, attribute, original, make_wrapper)

    # ---- what to wrap ---------------------------------------------------

    def _owners(self, fn, only_in):
        """(module, name) pairs of loaded varred modules that refer to fn."""
        out = []
        for modname, mod in sorted(sys.modules.items()):
            if not (modname == "varred" or modname.startswith("varred.")):
                continue
            if only_in is not None and modname not in only_in:
                continue
            for attr, val in vars(mod).items():
                if val is fn:
                    out.append((mod, attr))
        return out

    def span_function(self, module, name, span_name, on_result=None):
        fn = getattr(module, name)
        for owner, attr in self._owners(fn, None):
            self._plan.append((owner, attr, fn, lambda f: self._span_wrapper(f, span_name, on_result)))

    def span_method(self, cls, name, span_name, on_result=None):
        fn = cls.__dict__[name]
        self._plan.append((cls, name, fn, lambda f: self._span_wrapper(f, span_name, on_result)))

    def count_function(self, module, name, key, only_in=None, inner=None):
        """Count calls; `inner` maps the name of the innermost open span to
        a second counter, bumped only for calls made directly inside it."""
        fn = getattr(module, name)
        for owner, attr in self._owners(fn, only_in):
            self._plan.append((owner, attr, fn, lambda f: self._count_wrapper(f, key, inner)))

    def count_method(self, cls, name, key):
        fn = cls.__dict__[name]
        self._plan.append((cls, name, fn, lambda f: self._count_wrapper(f, key)))

    # ---- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, span_name, on_result):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, span_name, _perf(), None, None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _perf()
                stack.pop()
            if on_result is not None:
                on_result(self, rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key, inner=None):
        counts, spans, stack = self.counts, self.spans, self.stack
        counts.setdefault(key, 0)

        if inner is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if stack:
                    extra = inner.get(spans[stack[-1]][2])
                    if extra is not None:
                        counts[extra] = counts.get(extra, 0) + 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- lifetime -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, fn, make in self._plan:
            setattr(owner, attr, make(fn))
            self._patches.append((owner, attr, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def root(self, span_name):
        """A span the benchmark itself opens around its own calls."""
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               span_name, _perf(), None, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = _perf()
            self.stack.pop()

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset_counts(self):
        for key in self.counts:
            self.counts[key] = 0

    # ---- results --------------------------------------------------------

    def self_times(self):
        """{span id: duration minus the time its direct children cover}."""
        out = {}
        for sid, parent, _, start, end, _ in self.spans:
            out[sid] = out.get(sid, 0.0) + (end - start)
            if parent is not None:
                out[parent] = out.get(parent, 0.0) - (end - start)
        return out

    def write_jsonl(self, path, t0):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0, "self": selfs[sid]}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
