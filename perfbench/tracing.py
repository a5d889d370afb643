"""Per-layer spans recorded from outside the package.

`Tracer.install()` rebinds every public function of the traced citeconc
modules, plus `Corpus.__init__` and the public `Corpus` methods, to a wrapper
that records a span (name, start, end, parent span, run id). A function is
rebound in every loaded citeconc module that holds it under any name, so a
call through `from citeconc.windows import in_window_edge_mask` in `studies`
is traced the same as one through `windows.in_window_edge_mask`.
`uninstall()` puts every original back.

Spans stay in memory until `write_spans()`; `metrics()` reduces them to the
per-layer numbers listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import resource
import sys
import time
import uuid
import weakref

import numpy as np

TRACED_MODULES = ("synthgen", "corpus", "windows", "normalize", "concentration", "studies", "report", "cli")

SERIES_FUNCTIONS = (
    "gini_series", "uncited_share_series", "region_removal_uncitedness",
    "region_tail_shares", "top_share_series", "gini_by_field",
)
SERIES_SPANS = frozenset(f"studies.{fn}" for fn in SERIES_FUNCTIONS)
# Functions whose argument tuples are fingerprinted for `.distinct_ratio`.
DISTINCT = ("corpus.subset", "corpus.filter_core_journals", "windows.in_window_edge_mask")
# Functions whose rise in the process's peak RSS is recorded.
MAXRSS = ("synthgen.generate", "corpus.load_corpus", "corpus.Corpus")


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []

    def add(name, unit="s", better="lower"):
        out.append((name, unit, better))

    add("synthgen.generate.s"); add("synthgen.generate.self_s")
    add("synthgen.generate.maxrss_rise_mb", "MB"); add("synthgen.edges", "count", "higher")
    add("corpus.Corpus.s"); add("corpus.Corpus.calls", "count")
    add("corpus.Corpus.maxrss_rise_mb", "MB")
    add("corpus.load_corpus.s"); add("corpus.load_corpus.self_s")
    add("corpus.load_corpus.maxrss_rise_mb", "MB")
    add("corpus.rows_read", "count", "higher"); add("corpus.edges_retained", "count", "higher")
    add("corpus.write_tables.s")
    for fn in ("corpus.subset", "corpus.filter_core_journals", "windows.in_window_edge_mask"):
        add(f"{fn}.s"); add(f"{fn}.calls", "count"); add(f"{fn}.distinct_ratio", "ratio", "higher")
    for fn in ("ics_array", "nics_array", "field_mean_reference_table", "year_weights"):
        add(f"normalize.{fn}.s"); add(f"normalize.{fn}.calls", "count")
    for fn in ("gini", "top_share"):
        add(f"concentration.{fn}.s"); add(f"concentration.{fn}.calls", "count")
    add("concentration.values", "count")
    for fn in SERIES_FUNCTIONS:
        add(f"studies.{fn}.s"); add(f"studies.{fn}.self_s"); add(f"studies.{fn}.calls", "count")
    add("studies.rows", "count", "higher"); add("studies.null_rows", "count")
    for fn in ("write_csv", "write_json", "write_manifest"):
        add(f"report.{fn}.s")
    add("report.bytes", "bytes")
    add("cli.cmd_validate.s"); add("cli.cmd_validate.self_s")
    add("cli.cmd_analyze.s"); add("cli.cmd_analyze.self_s")
    add("trace.wall_s"); add("trace.untraced_wall_s"); add("trace.overhead_s"); add("trace.wrapper_s")
    add("trace.spans", "count")
    return out


PER_LAYER = _per_layer()


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex
        # span: [id, name, start, end, parent]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.rss_rise: dict[str, float] = {name: 0.0 for name in MAXRSS}
        # A serial per live Corpus, never handed out twice: a freed corpus's
        # successor may reuse its address but not its serial.
        self._corpus_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._saved: list[tuple[object, str, object]] = []
        # Seconds the wrappers spent outside the functions they wrap.
        self.wrapper_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from citeconc import corpus as corpus_mod

        loaded = [m for n, m in sorted(sys.modules.items()) if n == "citeconc" or n.startswith("citeconc.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"citeconc.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in loaded:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, name, wrapper)
        cls = corpus_mod.Corpus
        self._rebind(cls, "__init__", self._wrap("corpus.Corpus", cls.__init__))
        for attr, fn in sorted(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._rebind(cls, attr, self._wrap(f"corpus.{attr}", fn))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()

    def _rebind(self, holder, name, value) -> None:
        self._saved.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        distinct = name in DISTINCT
        rss = name in MAXRSS
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if distinct:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.keys[name].add(tuple(self._fingerprint(v) for v in bound.arguments.values()))
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(rec[0])
            rss0 = _maxrss_mb() if rss else 0.0
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if rss:
                    self.rss_rise[name] += _maxrss_mb() - rss0
            if observe is not None:
                observe(self, rec, args, kwargs, result)
            self.wrapper_s += (rec[2] - entered) + (time.perf_counter() - rec[3])
            return result

        return traced

    def _fingerprint(self, value):
        from citeconc.corpus import Corpus

        if isinstance(value, Corpus):
            if value not in self._corpus_serial:
                self._corpus_serial[value] = next(self._serials)
            return ("corpus", self._corpus_serial[value])
        if isinstance(value, np.ndarray):
            digest = hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=16).hexdigest()
            return ("array", value.dtype.str, value.shape, digest)
        try:
            hash(value)
        except TypeError:
            return ("repr", repr(value))
        return value

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- reduction ----------------------------------------------------------

    def _has_ancestor(self, rec, predicate) -> bool:
        parent = rec[4]
        while parent is not None:
            p = self.spans[parent]
            if predicate(p[1]):
                return True
            parent = p[4]
        return False

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds (`s`), self seconds (`self_s`) and `calls`.

        Busy time counts each span whose ancestors do not share its name, so a
        function that reaches itself again is not counted twice. Self time is a
        span's duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] is not None:
                child_time[rec[4]] += rec[3] - rec[2]
        stats: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            st = stats.setdefault(rec[1], {"s": 0.0, "self_s": 0.0, "calls": 0})
            duration = rec[3] - rec[2]
            st["calls"] += 1
            st["self_s"] += duration - child_time[rec[0]]
            if not self._has_ancestor(rec, lambda n, name=rec[1]: n == name):
                st["s"] += duration
        return stats

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, dict]:
        """Per-layer metrics of a traced operation that took `wall_s`, set
        against the same operation untraced in the same process."""
        stats = self.span_stats()
        values: dict[str, float] = {}
        for name, st in stats.items():
            for field, v in st.items():
                values[f"{name}.{field}"] = v
            if name in DISTINCT:
                values[f"{name}.distinct_ratio"] = len(self.keys[name]) / st["calls"]
        for name, rise in self.rss_rise.items():
            values[f"{name}.maxrss_rise_mb"] = rise
        values.update(self.counters)
        values["trace.wall_s"] = wall_s
        values["trace.untraced_wall_s"] = untraced_wall_s
        values["trace.overhead_s"] = wall_s - untraced_wall_s
        values["trace.wrapper_s"] = self.wrapper_s
        values["trace.spans"] = len(self.spans)
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}

    def call_counts(self) -> dict[str, int]:
        return {name: st["calls"] for name, st in sorted(self.span_stats().items())}

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for rec_id, name, start, end, parent in self.spans:
                f.write(json.dumps({"run_id": self.run_id, "id": rec_id, "name": name,
                                    "start": start, "end": end, "parent": parent}) + "\n")


# -- counters observed at layer boundaries -----------------------------------

def _observe_generate(tracer, rec, args, kwargs, result):
    tracer.count("synthgen.edges", result.n_edges)


def _observe_load(tracer, rec, args, kwargs, result):
    tracer.count("corpus.rows_read", sum(result.rows_read))
    tracer.count("corpus.edges_retained", result.n_edges)


def _observe_values(tracer, rec, args, kwargs, result):
    dist = args[0] if args else kwargs["d"]
    tracer.count("concentration.values", len(dist))


def _observe_series(tracer, rec, args, kwargs, result):
    # Only the outermost series call counts, so rows of a gini_series run by
    # gini_by_field are not counted twice.
    if tracer._has_ancestor(rec, SERIES_SPANS.__contains__):
        return
    reports = result.values() if isinstance(result, dict) else [result]
    for rep in reports:
        tracer.count("studies.rows", len(rep.rows))
        tracer.count("studies.null_rows", sum(1 for r in rep.rows if r.get("reason") is not None))


def _observe_write(tracer, rec, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("report.bytes", os.path.getsize(path))


_OBSERVERS = {
    "synthgen.generate": _observe_generate,
    "corpus.load_corpus": _observe_load,
    "concentration.gini": _observe_values,
    "concentration.top_share": _observe_values,
    "report.write_csv": _observe_write,
    "report.write_json": _observe_write,
    "report.write_manifest": _observe_write,
    **{name: _observe_series for name in SERIES_SPANS},
}
