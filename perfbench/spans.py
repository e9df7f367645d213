"""Spans recorded around calls into the gkmhess modules.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each target function or method with a wrapper that records a span
(name, start, end, parent) and, off the clock, adds counters computed from
the call's arguments and result.  A target that no longer exists (a later
change removed or renamed it) is reported as missing and skipped; a
counter that cannot be computed is reported the same way.  Neither stops
the run.

Spans are aggregated as they close: per name the number of calls, the
total and self time (duration minus the time covered by child spans) and
the longest single call; per (parent, name) edge the calls and total time.
Spans of at least KEEP_S seconds are also kept one by one with their
start, end and parent, for the trace file.  Time spent computing counters
is kept out of the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

KEEP_S = 0.001      # spans at least this long are kept one by one


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}        # name -> [calls, total, self, max]
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.kept: list[tuple] = []             # (id, parent id, name, start, end)
        self.missing: list[str] = []
        self._stack: list[list] = []            # [name, start, child time, id]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        name, start, child, sid = frame
        while self._stack and self._stack[-1] is not frame:
            self._stack.pop()   # a frame left open by an escaping exception
        if self._stack:
            self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if dur > st[3]:
            st[3] = dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (parent[0] if parent else "", name)
        ed = self.edges.get(key)
        if ed is None:
            ed = self.edges[key] = [0, 0.0]
        ed[0] += 1
        ed[1] += dur
        if dur >= KEEP_S:
            self.kept.append((sid, parent[3] if parent else 0, name,
                              start, end))

    def _exclude(self, dt: float) -> None:
        """Keep dt (tracer work) out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += dt

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for whole operations)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def see(self, counter: str, key) -> None:
        """Count distinct keys under counter."""
        self.distinct.setdefault(counter, set()).add(key)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped to record span `name`; after(tracer, args, kwargs,
        result) adds counters once the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                t0 = perf_counter()
                try:
                    after(tracer, args, kwargs, result)
                except Exception as exc:   # the program changed shape
                    tag = f"{name} (counters: {type(exc).__name__})"
                    if tag not in tracer.missing:
                        tracer.missing.append(tag)
                tracer._exclude(perf_counter() - t0)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every (span name, module, attribute path, after) target.

        A module-level function is replaced in every gkmhess module that
        holds it (``from x import f`` makes copies of the reference); a
        method is replaced on its class.  Missing targets are recorded in
        ``self.missing``.
        """
        for name, module, path, after in targets:
            try:
                mod = importlib.import_module(module)
                owner = mod
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(name, raw.__func__, after))
            elif callable(raw):
                new = self.wrap(name, raw, after)
            else:
                self.missing.append(name)
                continue
            if owner is mod:
                for other in list(sys.modules.values()):
                    oname = getattr(other, "__name__", "") or ""
                    if oname != "gkmhess" and not oname.startswith("gkmhess."):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is raw:
                            self._undo.append((other, key, val))
                            setattr(other, key, new)
            else:
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def summary(self) -> dict:
        """JSON-ready aggregates."""
        counters = dict(self.counters)
        for key, seen in self.distinct.items():
            counters[key] = len(seen)
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, v[0], v[1]] for (p, c), v in self.edges.items()],
            "counters": counters,
            "missing": list(self.missing),
        }


# ---------------------------------------------------------------------------
# counters taken from arguments and results

def _kernel(tr: Tracer, args, kwargs, result) -> None:
    rows, ncols = args[0], args[1]
    tr.add("linalg.kernel_rows", len(rows))
    tr.add("linalg.kernel_cols", ncols)
    tr.add("linalg.kernel_dim", len(result.columns))
    nnz = 0
    bits = 0
    for col in result.columns:
        nnz += len(col)
        for v in col.values():
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > bits:
                bits = b
    tr.add("linalg.kernel_nnz", nnz)
    tr.maximum("linalg.kernel_max_bits", bits)


def _rank(tr: Tracer, args, kwargs, result) -> None:
    tr.add("linalg.rank_cols", len(args[0]))


def _rows(tr: Tracer, args, kwargs, result) -> None:
    tr.add("cohomology.rows_nnz", sum(len(r) for r in result))


def _solve(tr: Tracer, args, kwargs, result) -> None:
    graph = args[0]
    tr.see("cohomology.solve_graphs",
           (type(graph).__name__, graph.content_key(), result.max_degree))


def _cache_read(tr: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tr.add("cohomology.cache_hits", 1)


def _enum(kind: str):
    def after(tr: Tracer, args, kwargs, result) -> None:
        tr.see("coloring.enum_distinct", (kind, tuple(args[0].values)))
    return after


# (span name, module, attribute path, counters).  Span names are the
# qualified names of what they wrap; run.py groups them into layer metrics.
TARGETS = [
    ("linalg.kernel_of_rows", "gkmhess.linalg", "kernel_of_rows", _kernel),
    ("linalg.rank_of_int_rows", "gkmhess.linalg", "rank_of_int_rows", _rank),
    ("linalg.rank_of_columns", "gkmhess.linalg", "rank_of_columns", None),
    ("linalg.columns_to_int_rows", "gkmhess.linalg", "columns_to_int_rows",
     None),
    ("linalg.ColumnReducer.reduce", "gkmhess.linalg", "ColumnReducer.reduce",
     None),
    ("linalg.ColumnReducer.insert", "gkmhess.linalg", "ColumnReducer.insert",
     None),
    ("cohomology.constraint_rows", "gkmhess.cohomology", "constraint_rows",
     _rows),
    ("cohomology.solve_graph", "gkmhess.cohomology", "solve_graph", _solve),
    ("cohomology._cache_read", "gkmhess.cohomology", "_cache_read",
     _cache_read),
    ("cohomology._cache_write", "gkmhess.cohomology", "_cache_write", None),
    ("cohomology.check_action_invariance", "gkmhess.cohomology",
     "check_action_invariance", None),
    ("cohomology.equivariant_trace", "gkmhess.cohomology",
     "equivariant_trace", None),
    ("cohomology._trace_on_reducer", "gkmhess.cohomology",
     "_trace_on_reducer", None),
    ("cohomology._cross_check_direct", "gkmhess.cohomology",
     "_cross_check_direct", None),
    ("cohomology.graded_character", "gkmhess.cohomology", "graded_character",
     None),
    ("maps.map_image_columns", "gkmhess.maps", "map_image_columns", None),
    ("maps.check_theorem_main", "gkmhess.maps", "check_theorem_main", None),
    ("maps.TripleContext.build", "gkmhess.maps", "TripleContext.build", None),
    ("graphs.build_GX", "gkmhess.graphs", "build_GX", None),
    ("graphs.build_GY", "gkmhess.graphs", "build_GY", None),
    ("graphs.build_graph", "gkmhess.graphs", "build_graph", None),
    ("graphs.build_circle_graph", "gkmhess.graphs", "build_circle_graph",
     None),
    ("graphs.build_blowup", "gkmhess.graphs", "build_blowup", None),
    ("symfunc.frobenius", "gkmhess.symfunc", "frobenius", None),
    ("symfunc.SymmetricFunction.convert", "gkmhess.symfunc",
     "SymmetricFunction.convert", None),
    ("coloring.csf_q", "gkmhess.coloring", "csf_q", _enum("csf_q")),
    ("coloring.llt", "gkmhess.coloring", "llt", _enum("llt")),
    ("hessenberg.find_modular_triples", "gkmhess.hessenberg",
     "find_modular_triples", None),
]
