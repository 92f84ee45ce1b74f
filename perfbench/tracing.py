"""In-memory spans around the public functions of the program's modules.

Tracer.install replaces every public function of every module of the
package (except the unwrapped layers) at each place it is bound: its own
module and every module that imported it by name. Calls that go through a
module attribute therefore open a span; calls to private helpers do not,
so their time is self time of the nearest wrapped caller. In particular:

* the double-precision tracker's private hot spots (the compiled
  evaluator and the native solve) are self time of homotopy.track_path;
* scalars is not wrapped, because its operator-level calls would distort
  the timing, so its cost is self time of linalg and polynomials;
* work that the program runs in worker processes would be visible only as
  the time of the span that waits for it; only spans inside the program
  could split it.

Spans are thread-aware: each thread keeps its own stack, and a span opened
on a thread with an empty stack (a certify_batch pool thread) takes the
innermost open span of the job thread as its parent, which is the batch
call waiting for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
from collections import defaultdict
from time import perf_counter

UNWRAPPED = frozenset({"scalars"})

# Span fields.
SID, NAME, START, END, PARENT, JOB, PROBE = range(7)


def _certify_probe(args, kwargs):
    prec = args[2] if len(args) > 2 else kwargs["prec"]
    return (prec.mode, prec.bits)


def _refine_probe(args, kwargs):
    k = args[2] if len(args) > 2 else kwargs["k"]
    prec = args[3] if len(args) > 3 else kwargs["prec"]
    return (k, prec.bits)


def _track_probe(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return cfg.seed


# Call arguments kept on a span, for metrics that group by them.
PROBES = {
    "certify.certify_solution": _certify_probe,
    "refine.newton_refine": _refine_probe,
    "homotopy.track_path": _track_probe,
}


class Tracer:
    """Collects (id, name, start, end, parent id, job id, probe) spans."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_stack = None
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                job_stack = self._job_stack
                parent = job_stack[-1] if job_stack and job_stack is not stack else None
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job,
                              probe(args, kwargs) if probe else None))

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions; the calling thread runs jobs."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._job_stack = self._stack()
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            if layer in UNWRAPPED:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                    self._restore.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Parent links, self times and ancestor lookups over a span list."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[SID]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append((s[START], s[END]))
        self.self_time = {
            s[SID]: (s[END] - s[START]) - _covered(s[START], s[END], children.get(s[SID], ()))
            for s in spans
        }

    def named(self, name: str):
        return [s for s in self.spans if s[NAME] == name]

    def parent_name(self, span):
        parent = self.by_id.get(span[PARENT])
        return parent[NAME] if parent else None

    def nearest(self, span, names):
        """Name of the closest ancestor whose name is in `names`, or None."""
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return parent[NAME]
            parent = self.by_id.get(parent[PARENT])
        return None

    def function_table(self):
        """{function name: (calls, self seconds, total seconds)}."""
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = table[s[NAME]]
            row[0] += 1
            row[1] += self.self_time[s[SID]]
            row[2] += s[END] - s[START]
        return {k: tuple(v) for k, v in table.items()}
