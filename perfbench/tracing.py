"""In-memory spans recorded around calls into the program's layers.

The benchmark records spans from its own files only: it calls the stage
functions one by one, and for calls a stage makes internally it swaps the
module attribute for a wrapper while the traced pass runs.  A span is a name,
start, end, parent span and instance id; a layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    instance: int


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.instance = 0

    @contextmanager
    def span(self, name: str):
        rec = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets: Iterable[Tuple[str, object, str]]):
        """Route calls to module.attr through a span named span_name.

        Targets are (span_name, module, attr); an attribute the module no
        longer has is skipped, so its span simply never appears.
        """
        saved = []
        try:
            for name, module, attr in targets:
                if hasattr(module, attr):
                    orig = getattr(module, attr)
                    saved.append((module, attr, orig))
                    setattr(module, attr, self.wrap(name, orig))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)


def self_times(spans: List[Span]) -> List[float]:
    """Duration minus child time, per span.

    The traced run is single-threaded, so the children of one span never
    overlap and the time they cover is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def median_self_ms(spans: List[Span], scale: Sequence[float]) -> Dict[str, float]:
    """Per span name: the median over instances of its summed self time, in ms.

    `scale[k]` multiplies the times of instance k; the traced run passes the
    factor that turns its wall times into reference-host ms.
    """
    per: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        per[s.name][s.instance] += t * scale[s.instance]
    return {name: statistics.median(d.values()) * 1000 for name, d in per.items()}
