"""In-memory span tracer for the benchmark's traced runs.

Spans are opened by the benchmark around its own calls into qsqrt, or by
wrappers it installs over a module's binding of a public function, so that
calls the program makes through that binding nest under the caller's span.
Nothing inside the package changes: wrappers are swapped in by `installed`
and the original bindings are restored when it exits.

Totals are aggregated as spans close instead of keeping every span, because
a verify replay opens one span per case (65 536 for adder n=8).
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Per-name inclusive time, child-covered time and counters.

    A span opened with opaque=True is timed, but spans and counters inside
    it are dropped: it stands for a whole entry-point call whose inner
    stages the benchmark replays separately. A disabled tracer records
    nothing and adds one attribute check per call, so untraced runs can
    share the traced code path.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.total: defaultdict[str, float] = defaultdict(float)
        self.child: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.notes: defaultdict[str, set] = defaultdict(set)
        self.spans = 0
        self._stack: list[list] = []  # [name, start, child seconds, opaque]
        self._opaque = 0

    @property
    def recording(self) -> bool:
        return self.enabled and not self._opaque

    def _open(self, name: str, opaque: bool) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, opaque])
        self._opaque += opaque

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, opaque = self._stack.pop()
        self._opaque -= opaque
        duration = end - start
        self.total[name] += duration
        self.child[name] += child
        self.counts[name] += 1
        self.spans += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str, opaque: bool = False) -> Iterator[None]:
        if not self.recording:
            yield
            return
        self._open(name, opaque)
        try:
            yield
        finally:
            self._close()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """fn(*args, **kwargs) inside a span called `name`."""
        if not self.recording:
            return fn(*args, **kwargs)
        self._open(name, False)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def add(self, counter: str, value: int) -> None:
        if self.recording:
            self.counts[counter] += value

    def note(self, key: str, value: object) -> None:
        """Remember a distinct value, such as each width a call used."""
        if self.recording:
            self.notes[key].add(value)

    def counting(self, counter: str, fn: Callable) -> Callable:
        """A stand-in for fn that counts its calls, inside opaque spans too."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.enabled:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(
        self,
        name: str,
        fn: Callable,
        counters: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable:
        """A stand-in for fn that runs each call inside a span `name`.

        counters(tracer, args, result) runs after the span closes, so the
        time it takes is not charged to the layer.
        """

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if counters is not None:
                counters(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
        """Swap each (owner, attribute) binding for its stand-in, then restore."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
