"""Spans around the public functions of mclie, installed from outside.

``Tracer.install()`` wraps every public function and method (plus
``__init__``, reported as ``init``) defined in the layer modules, and
rebinds each wrapper in every ``mclie`` module that imported the function
by name, so that no call escapes its span.

Functions that run more than about 10^5 times in one op (``HOT``) get
counts only, and in a round of their own: ``install(hot=True)`` wraps
just them, with a wrapper that only counts.  In the timed round they are
not wrapped at all, so their time is self time of the span that called
them (for example ``Dgla.bracket_labels`` inside ``CEComplex.init``),
and none of the wrappers' cost lands there.  A timed wrapper costs about
0.5 us inside its interval and 1 us outside it on a 2-vCPU VM, several
times the ~0.2 us body of such a function, so no correction could give
them an own time that means anything.

A span records its op id, its own id, its parent's id, its name, start
and end.  Spans stay in memory until ``write_spans``.  Self time is a
span's duration minus the time its child spans cover, less the
wrappers' own cost: ``calibrate`` measures, on a no-op function, the
cost per call inside the timed interval (taken off the callee) and
outside it (taken off the caller).  The hooks that compute per-layer
counts, and host-speed probes, are timed and taken off every self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

LAYERS = ("linalg", "freelie", "dgla", "cdga", "cehar", "mc", "defs")

# Run more than 5e4 times in one op of some workload (counted with
# count-only wrappers on every function): counts only, no spans.  The
# heaviest is Dgla.bracket_labels, 2.3M calls in one fp-cohomology op.
HOT = frozenset({
    "dgla.Dgla.bracket_labels",
    "linalg.GradedElement.coeff",
    "linalg.rational",
    "linalg.GradedElement.init",
    "freelie.foliage",
    "linalg.GradedElement.scale",
    "cdga.Cdga.mult_labels",
    "mc.poly_mul",
    "mc.poly_substitute",
    "mc.poly_const",
    "mc.poly_add",
    "freelie.FreeLieTruncation.word_degree",
    "freelie.FreeLieTruncation.tree_degree",
    "freelie.FreeLieTruncation.word_weight",
    "freelie.FreeLieTruncation.tree_weight",
})


class Tracer:
    def __init__(self):
        # name -> [calls, raw self seconds, direct children]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        # per-layer values computed by the hooks
        self.extra: dict[str, float] = {
            key: 0 for _, _, keys in HOOKS.values() for key in keys}
        self._stack: list[list] = []  # open spans: [child seconds, id, stat]
        self._ids = 0
        self._op = -1
        self._undo: list[tuple] = []
        # wrapper cost per call, (inside, outside) the timed interval
        self.cost = (0.0, 0.0)
        self.time_scale = 1.0  # factor applied to reported self times

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int):
        self._op = op_id
        self._ids += 1
        self._stack.clear()
        stat = self.stats.setdefault("cli.op", [0, 0.0, 0])
        self._stack.append([0.0, self._ids, stat])
        self._op_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        child, sid, stat = self._stack.pop()
        stat[0] += 1
        stat[1] += end - self._op_start - child
        self.spans.append((self._op, sid, 0, "cli.op", self._op_start, end))

    def exclude(self, seconds: float):
        """Take time spent on measuring (a hook, a host-speed probe) off
        the open span, and so off every self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        pre, post, _ = HOOKS.get(name, (None, None, ()))
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                t = clock()
                args = pre(tracer, args)
                tracer.exclude(clock() - t)
            stat[0] += 1
            tracer._ids += 1
            frame = [0.0, tracer._ids, stat]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[1] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    parent[2][2] += 1
                spans.append((tracer._op, frame[1],
                               parent[1] if parent is not None else 0,
                               name, start, end))
            if post is not None:
                t = clock()
                post(tracer, args, result)
                tracer.exclude(clock() - t)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def calibrate(self):
        """Measure a span wrapper's cost per call on a no-op function:
        (inside the timed interval, outside it), medians over 7 repeats
        of 20000 calls."""
        calls, repeats = 20000, 7

        def noop(a, b):
            return None

        probe = Tracer()
        probe.begin_op(0)
        wrapped = probe._spanned("calibrate", noop)
        stat = probe.stats["calibrate"]
        inner, total = [], []
        for _ in range(repeats):
            stat[1] = 0.0
            probe.spans.clear()
            t = time.perf_counter()
            for _ in range(calls):
                noop(probe, calls)
            bare = time.perf_counter() - t
            t = time.perf_counter()
            for _ in range(calls):
                wrapped(probe, calls)
            total.append((time.perf_counter() - t - bare) / calls)
            inner.append((stat[1] - bare) / calls)
        self.cost = (statistics.median(inner),
                     statistics.median(total) - statistics.median(inner))

    def install(self, hot: bool = False):
        """Wrap the non-HOT functions with spans, or with hot=True the HOT
        functions with counters."""
        if not hot:
            self.calibrate()
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "mclie" or name.startswith("mclie.")}
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = mods["mclie." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._patch_class(layer, obj, hot)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    name = "%s.%s" % (layer, attr)
                    if (name in HOT) == hot:
                        replaced[id(obj)] = (obj, self._wrap(name, obj))
        # rebind in every module that holds the function, under any name
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def _wrap(self, name, fn):
        return self._counted(name, fn) if name in HOT else self._spanned(name, fn)

    def _patch_class(self, layer, cls, hot):
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            label = "init" if attr == "__init__" else attr
            name = "%s.%s.%s" % (layer, cls.__name__, label)
            if (name in HOT) != hot:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif callable(raw):
                new = self._wrap(name, raw)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    # -- results -------------------------------------------------------------

    def add(self, key: str, value: float):
        self.extra[key] += value

    def maximum(self, key: str, value: float):
        self.extra[key] = max(self.extra[key], value)

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name: str) -> float:
        """Self time less the wrappers' cost, times `time_scale`; HOT
        functions have none of their own."""
        if name not in self.stats or name in HOT:
            return 0.0
        calls, raw, children = self.stats[name]
        inner, outer = self.cost
        if name == "cli.op":
            calls = 0  # timed by begin_op and end_op, not by a wrapper
        return (raw - calls * inner - children * outer) * self.time_scale

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("cli",)}
        for name in self.stats:
            out[name.split(".", 1)[0]] += self.self_s(name)
        return out

    def write_spans(self, path: str):
        """Write the spans as JSON, times in microseconds from the first."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            json.dump({"fields": ["op", "id", "parent", "name", "start_us", "end_us"],
                       "names": names,
                       "spans": [[op, sid, parent, index[name],
                                  round((start - t0) * 1e6), round((end - t0) * 1e6)]
                                 for op, sid, parent, name, start, end in self.spans]},
                      f, separators=(",", ":"))
            f.write("\n")


def _rref_pre(tracer, args):
    rows, ncols = list(args[0]), args[1]
    tracer.add("linalg.rref.cells", len(rows) * ncols)
    return (rows, ncols) + tuple(args[2:])


def _quotient_post(tracer, args, result):
    q = args[0]
    cells: dict = {}
    for deg in q.space.degrees():
        for lab in q.space.labels(deg):
            key = (q.weight_of_label[lab], deg)
            cells[key] = cells.get(key, 0) + 1
    tracer.maximum("freelie.quotient.dim_max", max(cells.values(), default=0))


def _ce_post(tracer, args, result):
    ce = args[0]
    tracer.add("cehar.ce.generators", len(ce.algebra.generators))
    tracer.add("cehar.ce.basis_dim", ce.algebra.space.total_dim())


def _constraints_post(tracer, args, result):
    tracer.add("mc.constraints.unknowns", len(result.unknowns))


def _solve_post(tracer, args, result):
    tracer.add("mc.solve.families", len(result.families))


# name -> (pre, post, the per-layer values the hooks compute)
HOOKS = {
    "linalg.rref": (_rref_pre, None, ("linalg.rref.cells",)),
    "freelie.QuotientLie.init": (None, _quotient_post, ("freelie.quotient.dim_max",)),
    "cehar.CEComplex.init": (None, _ce_post, ("cehar.ce.generators", "cehar.ce.basis_dim")),
    "mc.derive_constraints": (None, _constraints_post, ("mc.constraints.unknowns",)),
    "mc.solve_structured": (None, _solve_post, ("mc.solve.families",)),
}
