"""In-memory spans around twf's layer functions, recorded from outside.

The tracer swaps module attributes for timing wrappers while a traced pass
runs and puts the originals back afterwards; nothing under `src/` changes.
Only names that are looked up across a module boundary are wrapped (what
`cli` imports, and what `extended`, `dsl`, `semantics` and `qcn` call by
module-level name), so hot loops inside one module, such as
`allen.compose_sets` inside `qcn`, stay unwrapped and the overhead stays low.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    doc: int = -1
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    doc: int = -1
    saved: list[tuple[object, str, object]] = field(default_factory=list)
    results: list[tuple[str, object, tuple]] = field(default_factory=list)

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, doc=self.doc))
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self.stack.pop()]
        span.end = time.perf_counter()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    def wrap(self, module, attr: str, name: str, keep: bool = False, first: bool = False) -> None:
        """Time every call of module.attr made inside a request span as a
        span called ``name``.

        ``keep`` stores (name, result, args) for counting after the request;
        ``first`` is for generator functions whose caller takes one item:
        the span covers producing that item.
        """
        original = getattr(module, attr)
        self.saved.append((module, attr, original))

        def traced(*args, **kwargs):
            if not self.stack:
                return original(*args, **kwargs)
            self.open(name)
            try:
                if first:
                    item = next(original(*args, **kwargs), None)
                    result = iter(() if item is None else (item,))
                else:
                    result = original(*args, **kwargs)
            finally:
                self.close()
            if keep:
                self.results.append((name, result, args))
            return result

        setattr(module, attr, traced)

    def unwrap(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def busy(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "doc": s.doc}
            for s in self.spans
        ]
