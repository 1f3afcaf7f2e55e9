"""In-memory spans around netrecon's layer calls, for the traced run only.

The wrappers live in the benchmark, so no library file changes.  Two
binding details decide where they go:

* ``reconstruct()`` binds the smoother and SBL functions by name when
  ``netrecon.reconstruct`` is imported, so those names are replaced in that
  module.  The module is reached through ``sys.modules``: the package
  re-exports the ``reconstruct`` function under the same name, so
  ``import netrecon.reconstruct`` would yield the function.
* ``sbl_em()`` looks ``posterior`` up in ``netrecon.sbl`` at call time, and
  both ``reconstruct()`` and ``generate_random_network()`` look the DSF
  functions up on ``netrecon.dsf`` at call time, so those are replaced on
  their own modules.  A DSF span is booked to the DSF layer only when its
  parent is a ``reconstruct`` span; under ``model.generate`` it is part of
  truth generation.
"""

import sys
import time
from contextlib import contextmanager

# module -> {function name: span name}
WRAPPED = {
    "netrecon.reconstruct": {
        "kalman_filter": "smoother.filter",
        "rts_smoother": "smoother.rts",
        "lag_one_smoother": "smoother.lag1",
        "observed_loglik": "smoother.loglik",
        "expectation_sums": "smoother.esums",
        "regression_from_moments": "sbl.moments",
        "sbl_em": "sbl.em",
    },
    "netrecon.sbl": {"posterior": "sbl.posterior"},
    "netrecon.dsf": {
        "dsf_from_state_space": "dsf.sample",
        "boolean_structure": "dsf.structure",
    },
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent   # index of the enclosing span, or None
        self.start = self.end = 0.0
        self.error = None
        self.info = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Spans in call order; ``parent`` links each to the span open at its
    start.  Calls run on one thread, so a stack gives the parent."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        s = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note=None):
        """``fn`` inside a span.  After the span closes, ``note(result, *args,
        **kwargs)`` may return counters for ``span.info``; results are not
        kept, since a smoothing pass holds N n-by-n covariances."""
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if note is not None:
                s.info = note(result, *args, **kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def children(self, index):
        return [s for s in self.spans if s.parent == index]


@contextmanager
def installed(tracer, notes=None):
    """Replace the names in ``WRAPPED`` with traced versions; restore the
    originals on exit.  ``notes`` maps span names to ``Tracer.wrap`` notes."""
    notes = notes or {}
    saved = []
    try:
        for mod_name, names in WRAPPED.items():
            module = sys.modules[mod_name]
            for attr, span_name in names.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(span_name, original,
                                                  notes.get(span_name)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost(calls=20000, repeats=5):
    """Median seconds a traced call adds over a plain call of a no-op."""
    def noop(*args, **kwargs):
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, k=2)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1, k=2)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]
