"""In-memory span tracer that wraps pabeam functions from outside the package.

Each wrapped name is the binding a caller module looks up at call time (for
example ``pabeam.pipeline.build_snapshots`` is what the pixel loop calls), so
the package itself is not edited. A span records its count, total time and
self time (total minus the time of spans nested in it on the same thread).
Each thread keeps its own aggregates, merged when read; nothing is written
while tracing.
"""

import threading
import time
import types
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0


class _ThreadState:
    def __init__(self):
        self.stack = []  # per open span: time spent in its nested spans
        self.spans = {}  # name -> [calls, total_s, self_s, cpu_s, errors]
        self.counters = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._wraps = []  # (module, attr, name, observe, cpu)
        self._saved = []  # (module, attr, original) while installed

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    @property
    def spans(self) -> dict:
        """Aggregates over every thread, by span name."""
        out = {}
        for state in self._states:
            for name, (calls, total, own, cpu, errors) in state.spans.items():
                s = out.setdefault(name, SpanStats())
                s.calls += calls
                s.total_s += total
                s.self_s += own
                s.cpu_s += cpu
                s.errors += errors
        return out

    @property
    def counters(self) -> dict:
        out = {}
        for state in self._states:
            for name, value in state.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def count(self, name: str, value: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    def wrap(self, module, attr: str, name, observe=None, cpu: bool = False) -> None:
        """Registers ``module.attr`` for tracing while installed.

        ``name`` is a span name, or a function of the call's arguments that
        returns one. ``observe(tracer, result, args, kwargs)`` runs after each
        successful call to derive counters from the result. ``cpu`` also
        records the process CPU time spent in the span.
        """
        self._wraps.append((module, attr, name, observe, cpu))

    def install(self) -> None:
        for module, attr, name, observe, cpu in self._wraps:
            original = getattr(module, attr, None)
            if original is None:
                continue  # the layer no longer exists; its metrics read as 0
            self._saved.append((module, attr, original))
            setattr(module, attr, self._traced(original, name, observe, cpu))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _traced(self, fn, name, observe, cpu):
        perf_counter, process_time = time.perf_counter, time.process_time
        state_of = self._state

        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            c0 = process_time() if cpu else 0.0
            t0 = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                wall = perf_counter() - t0
                used = process_time() - c0 if cpu else 0.0
                child = stack.pop()
                if stack:
                    stack[-1] += wall
                s = state.spans.get(span)
                if s is None:
                    s = state.spans[span] = [0, 0.0, 0.0, 0.0, 0]
                s[0] += 1
                s[1] += wall
                s[2] += wall - child
                s[3] += used
                s[4] += failed
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def span_cost_s(n: int = 20000) -> float:
    """Added cost of one span, measured on a wrapped no-op."""
    target = types.SimpleNamespace(noop=lambda: None)
    tracer = Tracer()
    tracer.wrap(target, "noop", "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        target.noop()
    direct = time.perf_counter() - t0
    tracer.install()
    t0 = time.perf_counter()
    for _ in range(n):
        target.noop()
    traced = time.perf_counter() - t0
    tracer.uninstall()
    return max(traced - direct, 0.0) / n
