"""Spans recorded from outside the program.

`hooks` replaces functions in the namespace of the module that *calls*
them (convexlab's modules bind their helpers with `from ... import`, so
patching the defining module would miss every call) and restores them on
exit.  Each wrapper records one span: inclusive duration, plus the time
its child spans cover, so a layer's self time is duration minus children.
Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.prefix = ""
        self.durations = defaultdict(list)  # key -> inclusive seconds per call
        self.self_s = defaultdict(float)    # key -> summed self time
        self.counters = defaultdict(float)  # key -> summed observation
        self._open = []                      # child time of each open span

    def _close(self, key, t0):
        dur = time.perf_counter() - t0
        child = self._open.pop()
        if self._open:
            self._open[-1] += dur
        self.durations[key].append(dur)
        self.self_s[key] += dur - child

    def wrap(self, layer, fn, observe=None):
        def traced(*args, **kwargs):
            key = self.prefix + layer
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(key, t0)
            if observe is not None:
                observe(self, args, out)
            return out
        return traced

    def wrap_generator(self, layer, fn):
        """One span per next() of the generator `fn` returns, not per call:
        the call itself only builds the generator."""
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                key = self.prefix + layer
                self._open.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._open.pop()
                    return
                except BaseException:
                    self._close(key, t0)
                    raise
                self._close(key, t0)
                yield item
        return traced

    def count(self, key, value=1.0):
        self.counters[self.prefix + key] += value

    def calls(self, key):
        return len(self.durations.get(key, ()))

    def p50_us(self, key):
        d = self.durations.get(key)
        return statistics.median(d) * 1e6 if d else 0.0


@contextlib.contextmanager
def hooks(tracer, module, spec):
    """Install `spec` = {attribute: wrapper factory} into `module` for the
    duration of the block.  A factory takes (tracer, original) and returns
    the replacement.  A name the module no longer has is reported on stderr
    and left out, so its layer reads zero calls instead of aborting the run."""
    originals = {}
    try:
        for attr, factory in spec.items():
            if not hasattr(module, attr):
                print(f"perfbench: {module.__name__}.{attr} not found; not traced", file=sys.stderr)
                continue
            original = getattr(module, attr)
            originals[attr] = original
            setattr(module, attr, factory(tracer, original))
        yield
    finally:
        for attr, original in originals.items():
            setattr(module, attr, original)
