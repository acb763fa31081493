"""In-memory CPU-time spans around module attributes of granmpc.

The benchmark replaces a public function (``ocp.qp_solve``, ``chance.gamma``
and so on) by a wrapper that records one span per call: name, start, end and
parent, all in process CPU seconds. Callers inside granmpc look these names
up at call time, so the wrapper sees every call. A layer's self time is its
span minus the spans of its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.clock = time.process_time
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.attrs: dict = {}          # span index -> what the hook recorded
        self.absent: set = set()        # wrapped names the program no longer has
        self._stack = [-1]
        self._patches: list = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace owner.attr by a spanning wrapper; hook(tracer, idx, args,
        kwargs, result) runs after the span closes. A missing attribute is
        recorded in ``absent`` instead of raising."""
        if not hasattr(owner, attr):
            self.absent.add(name)
            return
        raw = vars(owner).get(attr, getattr(owner, attr))
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def wrap_all(self, specs) -> None:
        """wrap() for each (owner, attr, name, hook) in specs."""
        for owner, attr, name, hook in specs:
            self.wrap(owner, attr, name, hook)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def self_times(self, lo: int = 0) -> dict:
        """Total self time per span name over the spans from index lo on (seconds)."""
        hi = len(self.names)
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.duration(i)
        out: dict = {}
        for i in range(lo, hi):
            name = self.names[i]
            out[name] = out.get(name, 0.0) + self.duration(i) - child[i - lo]
        return out

    def spans(self, name: str, lo: int = 0):
        return [i for i in range(lo, len(self.names)) if self.names[i] == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "process_time", "unit": "s", "names": self.names,
                       "start": self.start, "end": self.end, "parent": self.parent},
                      fh, separators=(",", ":"))
            fh.write("\n")
