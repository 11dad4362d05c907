"""In-process span tracer for one starcob CLI invocation.

`install()` replaces each traced function with a wrapper at every module
attribute that still refers to it (so `mul_word` is wrapped in `ainfty`,
`barcobar`, `hochschild` and `gradegroup` as well as in `staralg`), and each
traced method on its class.  A wrapper opens a span on entry and closes it on
exit.  Spans carry a name, start, end, parent span id and thread id.

Every call is aggregated per name: `calls` (an exact count), `s` (inclusive
time), `self_s` (inclusive time minus the part of the span's interval that its
child spans cover) and `items` (a work count, where the function has one).
Full span records are kept in memory up to SPAN_CAP per name, because the hot
leaves (`mul_word`, `mono_mul`) run hundreds of thousands of times; the
aggregates always cover every call.  `dump()` writes both out as JSON.

Each thread keeps its own parent stack and its own aggregates, merged at the
end, so spans of thread-pool workers never nest under whatever the main thread
happens to be doing and no count is lost to a racing update.  A span that
opens on a worker thread with an empty stack is parented to the innermost open
span of a pool owner (`check_ainfty`, `verify_homotopy`); the owner's self
time subtracts the union of its children's intervals, which may overlap.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

SPAN_CAP = 2000

# (module, attribute path, trace name, items): items is None, a function of
# (args, kwargs, result) giving the call's work count, or "yields" for a
# generator function, whose items are the values it yields
TARGETS = [
    ("starcob.ainfty", "relation_sum", "ainfty.relation_sum", None),
    ("starcob.ainfty", "check_ainfty", "ainfty.check_ainfty", lambda a, k, r: len(r)),
    ("starcob.ainfty", "passing_windows", "ainfty.passing_windows", lambda a, k, r: len(r)),
    ("starcob.ainfty", "op_grading_check", "ainfty.op_grading_check", None),
    ("starcob.ring", "mono_mul", "ring.mono_mul", None),
    ("starcob.staralg", "AlgElem.__add__", "staralg.AlgElem.add", None),
    ("starcob.staralg", "mul_word", "staralg.mul_word", None),
    ("starcob.staralg", "grading", "staralg.grading", None),
    ("starcob.gradegroup", "check_multiplicativity", "gradegroup.check_multiplicativity", None),
    ("starcob.gradegroup", "assign_grading", "gradegroup.assign_grading", None),
    ("starcob.barcobar", "verify_homotopy", "barcobar.verify_homotopy", None),
    ("starcob.barcobar", "enumerate_strings", "barcobar.enumerate_strings", "yields"),
    ("starcob.barcobar", "cobar_diff", "barcobar.cobar_diff", None),
    ("starcob.barcobar", "homotopy_h", "barcobar.homotopy_h", None),
    ("starcob.barcobar", "phi", "barcobar.phi", None),
    ("starcob.barcobar", "psi", "barcobar.psi", None),
    ("starcob.barcobar", "TString.__init__", "barcobar.TString", None),
    ("starcob.barcobar", "CobElem.__add__", "barcobar.CobElem.add", None),
    ("starcob.hochschild", "cohomology_dim", "hochschild.cohomology_dim", None),
    ("starcob.hochschild", "slice_basis", "hochschild.slice_basis", lambda a, k, r: len(r)),
    ("starcob.hochschild", "twisted_diff", "hochschild.twisted_diff", None),
    ("starcob.hochschild", "diff_matrix", "hochschild.diff_matrix", None),
    # items: rows x columns handed to elimination
    ("starcob.gf2la", "SparseMatF2.kernel_basis", "gf2la.kernel_basis", lambda a, k, r: a[0].nrows * a[0].ncols),
    (
        "starcob.gf2la",
        "row_space_basis",
        "gf2la.row_space_basis",
        lambda a, k, r: len(a[0]) * max((row.bit_length() for row in a[0]), default=0),
    ),
    ("starcob.cli", "main", "cli.main", None),
]

POOL_OWNERS = ("ainfty.check_ainfty", "barcobar.verify_homotopy")


class _Frame:
    __slots__ = ("span_id", "child_s", "intervals", "tids")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0
        # pool owners only: child (start, end) pairs from any thread, and the
        # threads whose spans were adopted
        self.intervals = None
        self.tids = None


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "tid")

    def __init__(self, tid: int):
        self.stack: list[_Frame] = []
        self.agg: dict[str, list] = {}  # name -> [calls, s, self_s, items, spans kept]
        self.spans: list[tuple] = []
        self.tid = tid


def _covered(intervals: list, t0: float, t1: float) -> float:
    """Length of the union of the intervals, clipped to [t0, t1]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, t0), min(b, t1)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._owners: list[_Frame] = []  # open pool-owner frames, innermost last
        self._main_tid = threading.get_ident()
        self.threads: dict[str, int] = {}  # pool owner -> most threads that ran its work

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _open(self, name: str):
        st = self._state()
        stack = st.stack
        if stack:
            parent = stack[-1]
        elif st.tid != self._main_tid and self._owners:
            parent = self._owners[-1]
            parent.tids.add(st.tid)
        else:
            parent = None
        frame = _Frame(next(self._ids))
        if name in POOL_OWNERS:
            frame.intervals = []
            frame.tids = set()
            self._owners.append(frame)
        stack.append(frame)
        return st, frame, parent, perf_counter()

    def _close(self, name, st, frame, parent, t0, items=0, count_call=True):
        t1 = perf_counter()
        st.stack.pop()
        d = t1 - t0
        if frame.intervals is not None:
            self._owners.remove(frame)
            child = _covered(frame.intervals, t0, t1)
            self.threads[name] = max(self.threads.get(name, 0), len(frame.tids) or 1)
        else:
            child = frame.child_s
        agg = st.agg.get(name)
        if agg is None:
            agg = st.agg[name] = [0, 0.0, 0.0, 0, 0]
        if count_call:
            agg[0] += 1
        agg[1] += d
        agg[2] += d - child
        agg[3] += items
        if parent is not None:
            if parent.intervals is not None:
                parent.intervals.append((t0, t1))
            else:
                parent.child_s += d
        if agg[4] < SPAN_CAP:
            agg[4] += 1
            st.spans.append((name, t0, t1, parent.span_id if parent else None, st.tid, frame.span_id))

    def wrap(self, name: str, fn, items=None):
        tracer = self

        if items == "yields":

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st, frame, parent, t0 = tracer._open(name)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._close(name, st, frame, parent, t0)
                return tracer._drive(name, it)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, frame, parent, t0 = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n_items = items(args, kwargs, result) if items is not None and result is not None else 0
                tracer._close(name, st, frame, parent, t0, n_items)

        return wrapper

    def _drive(self, name, it):
        """Re-yield a generator, timing each resumption as a segment of the
        generator's span and counting yields as items."""
        while True:
            st, frame, parent, t0 = self._open(name)
            got = False
            try:
                item = next(it)
                got = True
            except StopIteration:
                return
            finally:
                self._close(name, st, frame, parent, t0, int(got), count_call=False)
            yield item

    def install(self) -> None:
        for mod_name, path, name, items in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), items))
                continue
            original = getattr(mod, path)
            wrapped = self.wrap(name, original, items)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] != "starcob" or other is None:
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)

    def aggregates(self) -> dict:
        out: dict[str, dict] = {}
        for st in self._states:
            for name, (calls, s, self_s, items, _) in st.agg.items():
                cur = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
                cur["calls"] += calls
                cur["s"] += s
                cur["self_s"] += self_s
                cur["items"] += items
        return out

    def dump(self, path: str) -> None:
        spans = [s for st in self._states for s in st.spans]
        doc = {
            "aggregates": self.aggregates(),
            "threads": self.threads,
            "span_fields": ["name", "start", "end", "parent", "thread", "id"],
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
