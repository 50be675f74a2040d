"""In-memory spans around the benchmark's calls into the package.

Spans are recorded only at the benchmark's own call sites; nothing inside
the package is patched. A traced pass and an untraced pass run the same
code: the untraced one gets `NULL`, whose spans do nothing.
"""

import time

LAYERS = ("lattice", "dynamics", "exact", "paths", "ground", "cli")


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "start", "end", "attrs")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.attrs = {}

    def set(self, **attrs):
        self.attrs.update(attrs)

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr.stack[-1] if tr.stack else None
        tr.spans.append(self)
        tr.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def record(self, workload):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "workload": workload,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects every span of a run; `spans` is in start order."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name):
        return Span(self, name)


class _NullSpan:
    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name):
        return self._span


NULL = _NullTracer()


def is_layer(name):
    return name.split(".", 1)[0] in LAYERS


def subtree(spans, root_id):
    """The spans below `root_id` (spans are in start order, so children
    follow their parent)."""
    inside = {root_id}
    out = []
    for sp in spans[root_id + 1 :]:
        if sp.parent in inside:
            inside.add(sp.id)
            out.append(sp)
    return out


def pass_totals(spans, root_id):
    """Busy time and summed attributes per span name under one pass span,
    plus the pass's self time: its duration minus its layer spans."""
    root = spans[root_id]
    busy = {}
    attrs = {}
    layer_s = 0.0
    for sp in subtree(spans, root_id):
        d = sp.end - sp.start
        busy[sp.name] = busy.get(sp.name, 0.0) + d
        for k, v in sp.attrs.items():
            key = f"{sp.name}.{k}"
            attrs[key] = attrs.get(key, 0) + v
        if is_layer(sp.name):
            layer_s += d
    return busy, attrs, (root.end - root.start) - layer_s
