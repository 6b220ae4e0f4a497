"""In-memory span recorder and the per-layer arithmetic built on it.

Spans are recorded around calls into pcmd from the benchmark's side: the
recorder wraps public functions and methods and patches the wrapped names
into the namespaces that call them, because callers bind most names with
`from ... import`.  Spans stay in memory until the run ends.
"""

import json
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, start, end=None, attrs=None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


NOTE_SPAN = "trace.note"


class Tracer:
    """Records nested spans for calls made on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        """Return `fn` wrapped in a span.

        `name` is a string or a callable (args, kwargs) -> string.  `note`,
        if given, maps (args, kwargs, result) to a dict of span attributes.
        It runs after the span has closed, inside a span of its own named
        NOTE_SPAN, so neither the call's span nor its caller's self time is
        charged with it.
        """
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), label, parent, self.clock())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()
            if note is not None:
                noting = Span(len(self.spans), NOTE_SPAN, parent, self.clock())
                self.spans.append(noting)
                span.attrs = note(args, kwargs, result)
                noting.end = self.clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def patch(tracer, targets):
    """Install span wrappers; returns a function that restores the originals.

    `targets` holds (owner, attribute, span name, note) tuples, where owner
    is a module or a class.  Class attributes are saved from the class
    dict so descriptors such as classmethod come back unchanged.
    """
    saved = []
    for owner, attr, name, note in targets:
        raw = vars(owner)[attr]
        saved.append((owner, attr, raw))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))

    def undo():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return undo


def write_spans(path, spans):
    """Write spans as JSON lines, one object per span."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part of it covered by its child spans}."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def busy(spans, name):
    """Wall time during which at least one span called `name` was open."""
    return _covered([(s.start, s.end) for s in spans if s.name == name])


def percentile(samples, q):
    """Linearly interpolated q-th percentile (0 <= q <= 100) of the samples."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def tail_level(n):
    """Highest reported percentile with at least ten of `n` samples beyond it.

    None when fewer than 20 samples leave no tail percentile to report.
    """
    for level in TAIL_LEVELS:
        per_mille_beyond = round(1000 - 10 * level)   # exact, unlike 100 - 99.9
        if n * per_mille_beyond >= 10 * 1000:
            return level
    return None
