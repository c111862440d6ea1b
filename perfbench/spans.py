"""Span recorder and per-layer metrics for the traced run.

Tracing lives entirely in the benchmark: ``install`` wraps the public
functions named in ``WRAPPED`` at every greenbox module attribute that binds
them (``zoo.ball_enumerate`` as well as ``engine.ball_enumerate``), the two
constructor-like methods on their classes, and the report entries in
``report.ENTRY_FUNCTIONS``.  Each wrapped call records a span (name, start,
end, parent span, job id) in memory; spans are written out when the run
ends.  A span's self time is its duration minus the durations of its child
spans, which nest exactly because the loop is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class Recorder:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.job_id = -1
        self.job_span = None
        self.counters: dict = {}
        self.oracle_calls = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def next_job(self) -> None:
        """Close the running job span and open the next one."""
        self.end_job()
        self.job_id += 1
        self.job_span = self.open(self.name_id("job"))

    def end_job(self) -> None:
        if self.job_span is not None:
            self.close(self.job_span)
            self.job_span = None

    def self_times(self) -> list:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> tuple:
        """Calls and summed self time per span name."""
        calls: dict = {}
        self_s: dict = {}
        for nid, own in zip(self.name, self.self_times()):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        return calls, self_s

    def write_tsv(self, path: str) -> None:
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - origin:.7f}\t"
                         f"{self.end[i] - origin:.7f}\t"
                         f"{self.parent[i]}\t{self.job[i]}\n")


# ---------------------------------------------------------------------------
# what is wrapped


def _letters(rec, args, kwargs, out, state):
    rec.add("words.letters", len(out))


def _fold(rec, args, kwargs, out, state):
    rec.add("munn.fold.vertices_in", args[0].n)
    rec.add("munn.fold.vertices_out", out.n)


def _canonical_key(rec, args, kwargs, out, state):
    pointed = args[1] if len(args) > 1 else kwargs.get("pointed", True)
    if not pointed:
        rec.add("munn.canonical_key.unpointed_vertices", args[0].n)


def _ball_before(rec):
    return rec.oracle_calls


def _ball(rec, args, kwargs, out, state):
    rec.add("engine.ball_enumerate.elements", len(out))
    rec.add("engine.ball_enumerate.oracle_calls", rec.oracle_calls - state)
    rec.add("engine.ball_enumerate.calls", 1)


def _table_cells(rec, args, kwargs, out, state):
    rec.add("engine.table_cells", len(args[0].table) ** 2)


def _extend_before(rec):
    return rec.counters.get("engine.ball_enumerate.calls", 0)


def _extend(rec, args, kwargs, out, state):
    rec.add("engine.extend.calls", 1)
    if rec.counters.get("engine.ball_enumerate.calls", 0) == state:
        rec.add("engine.extend.hits", 1)


def _count_oracle(rec, args, kwargs, out, state):
    mult = out.mult

    def counted(x, y):
        rec.oracle_calls += 1
        return mult(x, y)
    out.mult = counted


def _expansions(rec, args, kwargs, out, state):
    rec.add("stephen.expansions", out[2])


def _stage(rec, args, kwargs, out, state):
    rec.add("stephen.stage_vertices", out.n)


def _tau(rec, args, kwargs, out, state):
    rec.add("stephen.tau_equal.calls", 1)
    rec.add("stephen.tau_equal.unknown", out == "unknown")


def _assignments(rec, args, kwargs, out, state):
    rec.add("identities.assignments", out.checked)


# (module, attribute or Class.method, span name or None, before, after)
WRAPPED = [
    ("words", "parse_word", "words.parse_word", None, _letters),
    ("munn", "fold", "munn.fold", None, _fold),
    ("munn", "munn_tree", "munn.munn_tree", None, None),
    ("munn", "canonical_key", "munn.canonical_key", None, _canonical_key),
    ("engine", "ball_enumerate", "engine.ball_enumerate", _ball_before, _ball),
    ("engine", "table_from_ball", "engine.table_from_ball", None, None),
    ("engine", "FiniteSemigroup.__init__", "engine.FiniteSemigroup", None,
     _table_cells),
    ("engine", "green_scc", "engine.green_scc", None, None),
    ("engine", "green_definitional", "engine.green_definitional", None, None),
    ("engine", "iso_tables", "engine.iso_tables", None, None),
    ("engine", "direct_product", "engine.direct_product", None, None),
    ("engine", "witnessed_green", "engine.witnessed_green", None, None),
    ("engine", "witnessed_related", "engine.witnessed_related", None, None),
    ("engine", "BallEnumeration.extend", "engine.BallEnumeration.extend",
     _extend_before, _extend),
    ("zoo", "transformation_oracle", None, None, _count_oracle),
    ("zoo", "bicyclic_oracle", None, None, _count_oracle),
    ("zoo", "parse_zoo", "zoo.parse_zoo", None, None),
    ("zoo", "mn_table", "zoo.mn_table", None, None),
    ("zoo", "p_window_green_counts", "zoo.p_window_green_counts", None, None),
    ("zoo", "p_witnessed_related", "zoo.p_witnessed_related", None, None),
    ("stephen", "r_expand", "stephen.r_expand", None, _expansions),
    ("stephen", "stephen_step", "stephen.stephen_step", None, _stage),
    ("stephen", "tau_equal", "stephen.tau_equal", None, _tau),
    ("vmaps", "compose", "vmaps.compose", None, None),
    ("vmaps", "generate_ball", "vmaps.generate_ball", None, None),
    ("identities", "check_identity_exhaustive", "identities.check", None,
     _assignments),
    ("identities", "check_identity_window", "identities.check", None,
     _assignments),
    ("identities", "parse_identity", "identities.parse_identity", None, None),
    ("cli", "main", "cli.main", None, None),
]


def _wrap(rec: Recorder, span, fn, before, after):
    nid = rec.name_id(span) if span else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(rec) if before else None
        if nid is None:
            out = fn(*args, **kwargs)
        else:
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
        if after is not None:
            after(rec, args, kwargs, out, state)
        return out
    return wrapper


def install(rec: Recorder):
    """Install every wrapper; returns a function that removes them."""
    from greenbox import report
    undo = []
    modules = [m for name, m in sys.modules.items()
               if name == "greenbox" or name.startswith("greenbox.")]

    def rebind(fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    undo.append((setattr, module, attr, fn))

    for modname, attr, span, before, after in WRAPPED:
        module = sys.modules["greenbox." + modname]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[method]
            setattr(cls, method, _wrap(rec, span, fn, before, after))
            undo.append((setattr, cls, method, fn))
        else:
            fn = getattr(module, attr)
            rebind(fn, _wrap(rec, span, fn, before, after))
    entries = report.ENTRY_FUNCTIONS
    for i, fn in enumerate(list(entries) + [report.entry_fixture]):
        wrapper = _wrap(rec, f"report.entry.{fn.__name__}", fn, None, None)
        if i < len(entries):
            entries[i] = wrapper
            undo.append((list.__setitem__, entries, i, fn))
        rebind(fn, wrapper)

    def remove():
        for restore, owner, key, value in reversed(undo):
            restore(owner, key, value)
    return remove


# ---------------------------------------------------------------------------
# per-layer metrics

# Per-layer metric names and units are listed in BENCHMARK.json.  A name
# ending in ``.calls`` or ``.self_s`` is read from the spans of that name (or
# of names under it, as for ``report.entry``); a ratio divides two counters;
# any other name is a counter of that name.  Counts and times are per round,
# one pass over the workload's job list, so that runs which complete
# different numbers of rounds compare.
RATIOS = {
    "engine.ball_enumerate.yield_ratio": ("engine.ball_enumerate.elements",
                                          "engine.ball_enumerate.oracle_calls"),
    "engine.extend.hit_ratio": ("engine.extend.hits", "engine.extend.calls"),
    "stephen.tau_equal.unknown_ratio": ("stephen.tau_equal.unknown",
                                        "stephen.tau_equal.calls"),
}


def layer_metrics(rec: Recorder, rounds: int, overhead: float,
                  names: list) -> dict:
    calls, self_s = rec.totals()
    counters = dict(rec.counters, **{"engine.oracle_calls": rec.oracle_calls,
                                     "trace.spans": len(rec.name)})

    def under(span, table):
        return sum(v for k, v in table.items()
                   if k == span or k.startswith(span + "."))

    out = {}
    for name in names:
        span, _, suffix = name.rpartition(".")
        if name == "trace.overhead":
            out[name] = overhead
        elif name in RATIOS:
            num, den = (counters.get(c, 0) for c in RATIOS[name])
            out[name] = num / den if den else 0.0
        elif suffix == "calls":
            out[name] = under(span, calls) / rounds
        elif suffix == "self_s":
            out[name] = under(span, self_s) / rounds
        else:
            out[name] = counters.get(name, 0) / rounds
    return out


def report_entry_breakdown(rec: Recorder, rounds: int) -> dict:
    _, self_s = rec.totals()
    return {k[len("report.entry."):]: v / rounds for k, v in sorted(self_s.items())
            if k.startswith("report.entry.")}
