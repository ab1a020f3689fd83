"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent, attrs); every span of one run shares
the tracer's run id.  Spans come from wrappers that the benchmark installs
on public library functions at the place where the calling module looks
them up (``pipeline.forward_mesh``, ``optimizer.rasterize``, ...), so the
library itself is not modified.  The untraced runs install no wrappers and
use :data:`NO_TRACE`, whose ``span`` is a shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or None, attrs or None]
        self._stack = []
        self._patched = []

    def open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        idx = self.open(name, attrs)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, module, attr: str, name: str, attrs_fn=None, result_fn=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper (undone by restore).

        ``attrs_fn(*args, **kwargs)`` labels the span from the call's inputs;
        ``result_fn(result)`` may replace the returned value (used to trace
        the objective closure that ``optimizer.make_objective`` returns).
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name, attrs_fn(*args, **kwargs) if attrs_fn else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            return result_fn(result) if result_fn else result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON; attrs keep only plain numbers and flags."""
        rows = []
        for name, start, end, parent, attrs in self.spans:
            plain = {k: v for k, v in (attrs or {}).items()
                     if isinstance(v, (bool, int, float, str))}
            rows.append({"name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id, **plain})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": rows}, fh)


class _NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name, attrs=None):
        return self._null


NO_TRACE = _NoTrace()
