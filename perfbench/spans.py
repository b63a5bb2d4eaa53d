"""Span recording around rankmin's public functions, from outside src/.

``install(recorder)`` wraps each function in ``TRACED`` and rebinds the
wrapper at every attribute of every loaded ``rankmin`` module that binds
the original, because the package imports by name (``is_cutting`` lives
in ``geometry``, ``search``, ``minimality``, ``suites`` and ``rankmin``).
Methods are rebound on their class.

A span holds a name, start, end, parent span, job id and an optional
value (a verdict as 0/1, or a count such as candidates visited).  Spans
stay in memory and are written out once, at the end of the job.  Field
operations are not wrapped: ``FieldLevel`` binds the engines' methods
when a tower is built, so they are microbenchmarked instead.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NO_VALUE = math.nan


def _route(args, kwargs, result):
    route = kwargs.get("route", args[4] if len(args) > 4 else "evasive")
    return route, float(result.verdict)


def _evasive(args, kwargs, result):
    return None, float(result[0])


def _method(args, kwargs, result):
    method = kwargs.get("method", args[2] if len(args) > 2 else "grw")
    if result.method == "trivial":
        method = "trivial"
    return method, float(result.verdict)


def scan_kernel(tower, k: int, r: int) -> str:
    """The kernel scan_dimension runs: the GF(2) line table when q = 2 and
    k - r - 1 = 1, else the generic deciders."""
    if tower.q == 2 and k - r - 1 == 1:
        return "q2_line"
    return f"generic_q{tower.q}"


def _scan(args, kwargs, result):
    bound = dict(zip(("tower", "k", "r"), args), **kwargs)
    return (scan_kernel(bound["tower"], bound["k"], bound["r"]),
            float(result.visited))


def _suite(args, kwargs, result):
    name = args[0] if args else kwargs["name"]
    return name, float(sum(r.instances for r in result.results))


# (module, attribute, tag).  A tag maps (args, kwargs, result) to a
# (variant, value) pair; the variant is appended to the span name.
TRACED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("linalg", "rref", None),
    ("linalg", "Subspace.span", None),
    ("linalg", "Subspace.intersect", None),
    ("linalg", "Subspace.intersection_dim", None),
    ("linalg", "flatten_subspace", None),
    ("linalg", "espan_of_flat", None),
    ("linalg", "enumerate_subspaces", None),        # a generator
    ("geometry", "is_cutting", _route),
    ("geometry", "is_evasive", _evasive),
    ("rank_metric", "grw", None),
    ("rank_metric", "weight", None),
    ("rank_metric", "subcode_weight", None),
    ("rank_metric", "chi", None),
    ("rank_metric", "column_support", None),
    ("minimality", "is_r_minimal", _method),
    ("minimality", "constant_weight_class", None),
    ("combinatorics", "omega_bounds", None),
    ("combinatorics", "qbinom", None),
    ("search", "scan_dimension", _scan),
    ("search", "omega_exhaustive", None),
    ("search", "census_codes", None),
    ("suites", "run_suite", _suite),
    ("cli", "run_command", None),
)

GENERATORS = frozenset({"linalg.enumerate_subspaces"})


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.value = array("d")
        self.calls: Counter = Counter()
        self.job_id = 0
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.value.append(NO_VALUE)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def label(self, idx: int, name: str, value: float) -> None:
        """Rename a finished span to its variant and attach its value."""
        self.name[idx] = self.name_id(name)
        self.value[idx] = value
        self.calls[name] += 1

    def write(self, path: str) -> None:
        """One JSON header line (names, call counts), then the columns."""
        header = {"names": self.names, "calls": dict(self.calls),
                  "count": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in COLUMNS:
                getattr(self, column).tofile(fh)


# Column name -> array typecode, in file order.
COLUMNS = {"name": "i", "parent": "i", "job": "i",
           "start": "d", "end": "d", "value": "d"}


def load(path: str) -> dict:
    """Read a span file written by ``Recorder.write``."""
    with open(path, "rb") as fh:
        dump = json.loads(fh.readline())
        for column, code in COLUMNS.items():
            col = array(code)
            col.fromfile(fh, dump["count"])
            dump[column] = col
    return dump


def _wrap_function(rec: Recorder, name: str, fn: Callable,
                   tag: Optional[Callable]) -> Callable:
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        idx = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(idx)
        if tag is None:
            rec.label(idx, name, NO_VALUE)
        else:
            variant, value = tag(args, kwargs, result)
            rec.label(idx, f"{name}.{variant}" if variant else name, value)
        return result

    return traced


def _wrap_generator(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Count calls; record one span per ``next`` (time spent inside it)."""
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        rec.calls[name] += 1
        it = fn(*args, **kwargs)
        while True:
            idx = rec.enter(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.leave(idx)
            yield item

    return traced


def install(rec: Recorder) -> None:
    """Wrap every TRACED function at every binding site."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "rankmin"
                                     or n.startswith("rankmin."))]
    for mod_name, attr, tag in TRACED:
        module = sys.modules[f"rankmin.{mod_name}"]
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = _wrap_function(rec, name, fn, tag)
            setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
            continue
        fn = getattr(module, attr)
        if name in GENERATORS:
            wrapped = _wrap_generator(rec, name, fn)
        else:
            wrapped = _wrap_function(rec, name, fn, tag)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# Analysis.
# ---------------------------------------------------------------------------


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for i in sorted(kids, key=lambda j: start[j]):
            s, e = max(start[i], lo), min(end[i], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class SpanSummary:
    """Per-name aggregates of one or more span dumps."""

    def __init__(self, dumps: Sequence[dict]):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.value_sum: Dict[str, float] = defaultdict(float)
        self.value_n: Dict[str, int] = defaultdict(int)
        self.spans: Counter = Counter()
        # children of each parent name, counted by child name
        self.child_spans: Dict[Tuple[str, str], int] = defaultdict(int)
        for dump in dumps:
            self._add(dump)

    def _add(self, d: dict) -> None:
        names = d["names"]
        self.calls.update(d["calls"])
        own = self_times(d["start"], d["end"], d["parent"])
        labels = [names[n] for n in d["name"]]
        for i, label in enumerate(labels):
            self.spans[label] += 1
            self.self_s[label] += own[i]
            self.total_s[label] += d["end"][i] - d["start"][i]
            v = d["value"][i]
            if not math.isnan(v):
                self.value_sum[label] += v
                self.value_n[label] += 1
            p = d["parent"][i]
            if p >= 0:
                self.child_spans[(labels[p], label)] += 1

    def prefixed(self, prefix: str) -> List[str]:
        return [n for n in self.spans if n == prefix
                or n.startswith(prefix + ".")]

    def sum_self(self, prefix: str) -> float:
        return sum((self.self_s[n] for n in self.prefixed(prefix)), 0.0)

    def sum_total(self, prefix: str) -> float:
        return sum((self.total_s[n] for n in self.prefixed(prefix)), 0.0)

    def sum_calls(self, prefix: str) -> int:
        return sum(c for n, c in self.calls.items()
                   if n == prefix or n.startswith(prefix + "."))

    def share(self, name: str) -> float:
        n = self.value_n.get(name, 0)
        return self.value_sum[name] / n if n else 0.0

    def sum_values(self, prefix: str) -> float:
        return sum((self.value_sum[n] for n in self.prefixed(prefix)), 0.0)

    def children_of(self, parent_prefix: str, child: str) -> int:
        return sum(c for (p, ch), c in self.child_spans.items()
                   if ch == child and (p == parent_prefix
                                       or p.startswith(parent_prefix + ".")))
