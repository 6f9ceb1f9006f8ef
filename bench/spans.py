"""Span recording around calls into the package's public functions.

A Tracer replaces a module attribute by a wrapper that records one span
per call: name, start, end, parent span and one integer attribute. Spans
live in flat arrays until the run ends; ``self_times`` reduces them to
the time each span spent outside its child spans.
"""

from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.attr = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patched = []

    def _open(self, name, attr):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attr.append(attr)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr_name, span_name, attr_of=None):
        """Route calls of ``module.attr_name`` through a recording wrapper.

        ``attr_of(args, kwargs)`` gives the span's integer attribute.
        """
        fn = getattr(module, attr_name)

        def wrapper(*args, **kwargs):
            sid = self._open(span_name, attr_of(args, kwargs) if attr_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        self._patched.append((module, attr_name, fn))
        setattr(module, attr_name, wrapper)

    def restore(self):
        for module, attr_name, fn in reversed(self._patched):
            setattr(module, attr_name, fn)
        self._patched.clear()

    def arrays(self):
        """The spans as numpy arrays, plus the name table."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "attr": np.frombuffer(self.attr, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], duration[has_parent])
    return duration, duration - child
